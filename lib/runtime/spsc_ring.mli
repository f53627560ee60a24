(** Bounded lock-free single-producer/single-consumer ring buffer — the
    fast path behind {!Mailbox} for topology edges with exactly one
    producing actor and one consuming actor.

    The design is the classic Lamport queue with the Vyukov refinements:
    a power-of-two slot array indexed by monotonically increasing head and
    tail counters published through [Atomic], and a per-side cache of the
    opposite index so the common case of a put or take touches only the
    owner's own atomic plus a plain array slot. No mutex is taken on the
    fast path; a lock exists only on the parking slow path
    ({!on_space}/{!on_item}, blocking {!put}/{!take}, {!close}), mirroring
    the locking mailbox's waiter protocol exactly so the N:M scheduler and
    the supervision close/poison protocol behave identically on both
    implementations.

    Contract: at most one domain (or pooled task) calls the producer
    operations ([put], [try_put], [try_put_chunk], [put_batch]) and at most
    one calls the consumer operations ([take], [try_take], [take_batch])
    at any time. This is not checked; violating it loses items. [close],
    [length], [capacity] and [is_closed] are safe from any domain —
    supervision closers and occupancy monitors rely on this. *)

type 'a t

exception Closed
(** Same role as [Mailbox.Closed]; {!Mailbox} aliases its exception to
    this one so both implementations raise physically the same
    exception. *)

val create : capacity:int -> 'a t
(** The slot array is rounded up to a power of two, but backpressure
    honors the requested [capacity] exactly.
    @raise Invalid_argument if [capacity < 1]. *)

val capacity : 'a t -> int

val put : 'a t -> 'a -> unit
(** Enqueue, blocking (condition-variable park) while full.
    @raise Closed if closed, including while blocked. *)

val take : 'a t -> 'a
(** Dequeue, blocking while empty. @raise Closed as {!put}. *)

val try_put : 'a t -> 'a -> bool
(** Lock-free enqueue; false when full. @raise Closed when closed. *)

val try_take : 'a t -> 'a option
(** Lock-free dequeue; [None] when empty. @raise Closed when closed. *)

val try_put_chunk : 'a t -> 'a list -> 'a list
(** Enqueue a prefix of the list — bounded by free capacity — with a
    single tail publication; returns the items that did not fit (a
    physical suffix of the input, so no allocation). [[]] means all were
    enqueued. An empty input returns [[]] without touching the ring.
    @raise Closed when closed and the input is non-empty. *)

val put_batch : 'a t -> 'a list -> unit
(** Enqueue all items in order, blocking for space as needed. Equivalent
    to iterated {!put} but publishes capacity-sized chunks at once.
    @raise Closed if closed, including mid-batch (already-enqueued items
    stay behind and are discarded by the close). *)

val take_batch : 'a t -> max:int -> into:'a Ss_prelude.Ring.t -> int
(** Dequeue up to [max] items in order, appending them to [into], with a
    single head publication. Returns the occupancy observed {e before}
    draining — so [min max result] items were appended, and the caller can
    use the result as an occupancy sample for adaptive drain sizing.
    Non-blocking. @raise Closed when closed.
    @raise Invalid_argument if [max < 1]. *)

val on_space : 'a t -> (unit -> unit) -> bool
(** Parking hook, same contract as [Mailbox.on_space]: registers the
    one-shot callback only if the ring is full and open (checked under the
    waiter lock, after raising the waiter flag, so a concurrent consumer
    either sees the flag or the registration re-check sees the freed
    slot — no lost wakeup). A wakeup is a hint; callers retry. *)

val on_item : 'a t -> (unit -> unit) -> bool
(** Dual of {!on_space}: registers only while empty and open. *)

val length : 'a t -> int
(** Instantaneous occupancy (racy; monitoring only). 0 once closed. *)

val close : 'a t -> unit
(** Poison: subsequent operations raise {!Closed}, blocked producers and
    consumers wake with {!Closed}, parked waiters fire. Pending items are
    never delivered (observably discarded; the slots themselves are not
    scrubbed — a ring pins at most [capacity] items until it is
    collected, because a concurrent scrub could race the consumer's slot
    read). Idempotent; safe from any domain. *)

val is_closed : 'a t -> bool

(** {2 Waiter sets}

    The parked callbacks of one side, shared with the locking mailbox. The
    first waiter sits in a field of its own, so a lone waiter — one
    consumer, one producer — is registered without a cons cell; more
    concurrent waiters go to a list. Not synchronized: the owner guards a
    set with its own lock. *)

type waiters

val waiters : unit -> waiters

val add_waiter : waiters -> (unit -> unit) -> unit
(** Register a callback. *)

val unlock_and_wake : Mutex.t -> waiters -> unit
(** [unlock_and_wake lock w] — the caller holds [lock], which guards [w]:
    empty [w], release [lock], then invoke the callbacks it held, oldest
    first. Allocates nothing for a lone waiter. *)
