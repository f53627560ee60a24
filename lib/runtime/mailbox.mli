(** Bounded blocking mailboxes: the runtime's equivalent of Akka's
    [BoundedMailbox] with a blocking producer (paper §5.1).

    [put] blocks while the mailbox is full — this is the
    Blocking-After-Service backpressure the cost model assumes. [take]
    blocks while it is empty. Both are thread-safe; waiters are woken in an
    unspecified but starvation-free order.

    Two implementations live behind this interface and behave
    identically at the API level:
    - {!create} builds the general locking mailbox (a ring of [capacity]
      slots under a mutex and two condition variables) — safe for any
      number of producers and consumers, so it backs fan-in edges:
      shuffle/key-partition collectors and fission merge points;
    - {!create_spsc} builds a bounded lock-free single-producer/
      single-consumer ring ({!Spsc_ring}) whose fast path takes no lock at
      all — the executor selects it statically for topology edges with
      exactly one producing and one consuming actor.

    A mailbox can be {!close}d (poisoned) for fault containment: every
    blocked producer and consumer wakes immediately with {!Closed} instead
    of waiting forever, pending items are discarded, and all subsequent
    operations (except {!length}, {!capacity}, {!is_spsc} and
    {!is_closed}) raise {!Closed}. The supervisor uses this to unblock the
    whole actor network when one actor fails. All operations release any
    internal mutex on every path, exceptional ones included. *)

type 'a t

exception Closed
(** Raised by [put]/[take]/[try_put]/[try_take] once the mailbox is closed,
    including by callers that were already blocked when [close] ran.
    (Physically the same exception as [Spsc_ring.Closed].) *)

val create : capacity:int -> 'a t
(** The locking multi-producer implementation.
    @raise Invalid_argument if [capacity < 1]. *)

val create_spsc : capacity:int -> 'a t
(** The lock-free ring. Contract: at most one concurrent producer and one
    concurrent consumer (not checked — the executor guarantees it by
    construction from the topology). [close], [length] and [is_closed]
    remain safe from any domain.
    @raise Invalid_argument if [capacity < 1]. *)

val is_spsc : 'a t -> bool
(** True for mailboxes built by {!create_spsc}. *)

val capacity : 'a t -> int

val put : 'a t -> 'a -> unit
(** Enqueue, blocking while full. @raise Closed if the mailbox is (or
    becomes, while blocked) closed. *)

val take : 'a t -> 'a
(** Dequeue, blocking while empty. @raise Closed if the mailbox is (or
    becomes, while blocked) closed. *)

val try_put : 'a t -> 'a -> bool
(** Non-blocking enqueue; false when full. @raise Closed when closed. *)

val try_take : 'a t -> 'a option
(** Non-blocking dequeue; [None] when empty. @raise Closed when closed. *)

val try_put_chunk : 'a t -> 'a list -> 'a list
(** Non-blocking multi-item enqueue in one mailbox transaction (one lock
    round-trip on the locking path, one index publication on the ring):
    enqueues a prefix bounded by free capacity and returns the suffix that
    did not fit — physically a tail of the input, so the call allocates
    nothing. [[]] means everything was enqueued; an empty input is a no-op
    that never raises. @raise Closed when closed and the input is
    non-empty. *)

val put_batch : 'a t -> 'a list -> unit
(** Enqueue all items in order, blocking for space as needed; equivalent
    to iterated {!put} but amortizes to one mailbox transaction per
    capacity-sized chunk. Fission emitters use this to publish a routed
    burst per worker. An empty input is a no-op.
    @raise Closed if closed, including mid-batch while blocked (items
    already enqueued are discarded by the close, like any pending item). *)

val take_batch : 'a t -> max:int -> into:'a Ss_prelude.Ring.t -> int
(** Non-blocking dequeue of up to [max] items in queue order, appended to
    the caller's reusable [into] buffer (no per-activation list is built
    and no cell per item — cf. stream fusion: the N:M scheduler drains a
    batch per activation to amortize dispatch cost). Returns the occupancy observed {e before}
    draining, so [min max result] items were appended and the result
    doubles as the occupancy sample behind adaptive drain sizing.
    @raise Closed when closed.
    @raise Invalid_argument if [max < 1]. *)

val on_space : 'a t -> (unit -> unit) -> bool
(** [on_space t k] atomically checks for free capacity: if the mailbox is
    full (and open), registers [k] as a one-shot wakeup callback and
    returns [true]; otherwise returns [false] without registering — the
    caller should retry its [try_put] immediately. [k] is invoked (outside
    the mailbox lock, at most once) when a slot may have freed or the
    mailbox closes; a wakeup is a hint — the caller must retry, and may
    re-register. This is the parking hook for {!Ss_sched.Sched.suspend}. *)

val on_item : 'a t -> (unit -> unit) -> bool
(** [on_item t k] — dual of {!on_space}: registers [k] only while the
    mailbox is empty and open; [k] fires when an item may have arrived or
    the mailbox closes. *)

val length : 'a t -> int
(** Instantaneous occupancy (racy by nature; for monitoring only). Never
    raises; a closed mailbox reports 0. *)

val close : 'a t -> unit
(** Poison the mailbox: discard pending items, wake every blocked producer
    and consumer with {!Closed}, invoke every parked-task callback
    registered via {!on_space}/{!on_item} (so parked actors resume, retry,
    and observe {!Closed}), and make subsequent operations raise {!Closed}.
    Idempotent. *)

val is_closed : 'a t -> bool
