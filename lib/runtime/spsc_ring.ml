exception Closed

(* Lamport/Vyukov SPSC ring. [head] is the next slot to consume, [tail]
   the next to fill; both grow monotonically (63-bit counters never wrap
   in practice) and are published through [Atomic], which under the OCaml
   memory model gives the release/acquire pairing that makes the plain
   slot write visible to the reader of the index. Each side additionally
   caches its last view of the opposite index ([cached_head] is touched
   only by the producer, [cached_tail] only by the consumer), so in the
   common case an operation reads one atomic it owns and refreshes the
   cache only when the cached view says the ring looks full/empty.

   Slots hold [Obj.t] with a unique out-of-band sentinel [nil] marking an
   empty slot: values are stored with [Obj.repr] directly, avoiding a
   [Some]-box per enqueue on the hot path. The array is created from a
   heap-allocated sentinel, so it is a regular (boxed) array even when
   ['a = float] and the representation is uniform throughout.

   The waiter lock serializes only the slow path: parked-waiter
   registration, the blocking put/take park, and close. The fast path
   skips it entirely — a successful publish checks a single [Atomic]
   flag and takes the lock only when the opposite side is actually
   parked. The no-lost-wakeup argument is in [on_item] below. *)
type 'a t = {
  mask : int; (* slot-array length - 1; power of two *)
  buf : Obj.t array;
  capacity : int; (* requested bound, honored exactly (<= mask+1) *)
  head : int Atomic.t;
  tail : int Atomic.t;
  mutable cached_head : int; (* producer-private *)
  mutable cached_tail : int; (* consumer-private *)
  closed : bool Atomic.t;
  (* True while the corresponding waiter queue may be non-empty; lets a
     publish skip the waiter lock when nobody is parked. *)
  item_waiting : bool Atomic.t;
  space_waiting : bool Atomic.t;
  wlock : Mutex.t;
  wcond : Condition.t; (* blocking put/take park on this *)
  (* Parked callbacks; guarded by [wlock]. *)
  item_waiters : waiters;
  space_waiters : waiters;
}

(* A waiter set: the oldest callback in a field of its own, so the lone
   waiter of a single consumer (or producer) costs no cons cell, and any
   later ones in a list, newest first. [rest] is empty while [first] is
   [no_waiter]. *)
and waiters = {
  mutable first : unit -> unit;
  mutable rest : (unit -> unit) list;
}

let nil : Obj.t = Obj.repr (ref ())
let no_waiter () = ()
let waiters () = { first = no_waiter; rest = [] }
let has_waiters w = w.first != no_waiter

let add_waiter w k =
  if w.first == no_waiter then w.first <- k else w.rest <- k :: w.rest

(* Take a waiter set's callbacks (under its lock), release [lock], then
   run them oldest first: a resumed task may touch the ring — or this
   very lock — at once. Allocates nothing for a lone waiter, and an
   empty set — the locking mailbox's every transfer — costs one
   comparison. *)
let unlock_and_wake lock w =
  let first = w.first in
  if first == no_waiter then Mutex.unlock lock
  else begin
    let rest = w.rest in
    w.first <- no_waiter;
    w.rest <- [];
    Mutex.unlock lock;
    first ();
    if rest != [] then List.iter (fun k -> k ()) (List.rev rest)
  end

(* [head] and [tail] are written by opposite domains; allocated side by
   side they would share a cache line and bounce it between the domains
   on every publish (false sharing). OCaml 5.1 has no
   [Atomic.make_contended], so each index is a block of a "line" of words
   (16: 128 bytes, which also covers adjacent-line prefetch) whose field 0
   is the atomic cell — the [Atomic] primitives touch field 0 only. On a
   2-core host the padding raised the two-domain handoff rate by about
   half. *)
let line_words = 16

let padded_int_atomic (v : int) : int Atomic.t =
  let b = Obj.new_block 0 line_words in
  for i = 0 to line_words - 1 do
    Obj.set_field b i (Obj.repr 0)
  done;
  Obj.set_field b 0 (Obj.repr v);
  Obj.obj b

let create ~capacity =
  if capacity < 1 then invalid_arg "Spsc_ring.create: capacity must be >= 1";
  let rec pow2 n = if n >= capacity then n else pow2 (n * 2) in
  let slots = pow2 1 in
  {
    mask = slots - 1;
    buf = Array.make slots nil;
    capacity;
    head = padded_int_atomic 0;
    tail = padded_int_atomic 0;
    cached_head = 0;
    cached_tail = 0;
    closed = Atomic.make false;
    item_waiting = Atomic.make false;
    space_waiting = Atomic.make false;
    wlock = Mutex.create ();
    wcond = Condition.create ();
    item_waiters = waiters ();
    space_waiters = waiters ();
  }

let capacity t = t.capacity
let is_closed t = Atomic.get t.closed

let length t =
  if Atomic.get t.closed then 0
  else
    let d = Atomic.get t.tail - Atomic.get t.head in
    if d < 0 then 0 else d

let wake_item t =
  Mutex.lock t.wlock;
  Atomic.set t.item_waiting false;
  unlock_and_wake t.wlock t.item_waiters

let wake_space t =
  Mutex.lock t.wlock;
  Atomic.set t.space_waiting false;
  unlock_and_wake t.wlock t.space_waiters

let try_put t x =
  if Atomic.get t.closed then raise Closed;
  let tail = Atomic.get t.tail in
  let free = t.capacity - (tail - t.cached_head) in
  let free =
    if free > 0 then free
    else begin
      t.cached_head <- Atomic.get t.head;
      t.capacity - (tail - t.cached_head)
    end
  in
  if free <= 0 then false
  else begin
    t.buf.(tail land t.mask) <- Obj.repr x;
    Atomic.set t.tail (tail + 1);
    if Atomic.get t.item_waiting then wake_item t;
    true
  end

let try_take t =
  if Atomic.get t.closed then raise Closed;
  let head = Atomic.get t.head in
  let avail = t.cached_tail - head in
  let avail =
    if avail > 0 then avail
    else begin
      t.cached_tail <- Atomic.get t.tail;
      t.cached_tail - head
    end
  in
  if avail <= 0 then None
  else begin
    let i = head land t.mask in
    let x = t.buf.(i) in
    t.buf.(i) <- nil;
    Atomic.set t.head (head + 1);
    if Atomic.get t.space_waiting then wake_space t;
    Some (Obj.obj x)
  end

(* Fill slots [tail + i ..] while [i < free], then publish the new tail
   once; returns the suffix that did not fit. A top-level function, so a
   chunk costs no closure and no result tuple. *)
let rec fill t tail i free xs =
  match xs with
  | x :: rest when i < free ->
      t.buf.((tail + i) land t.mask) <- Obj.repr x;
      fill t tail (i + 1) free rest
  | rest ->
      Atomic.set t.tail (tail + i);
      rest

let try_put_chunk t xs =
  match xs with
  | [] -> []
  | _ ->
      if Atomic.get t.closed then raise Closed;
      let tail = Atomic.get t.tail in
      t.cached_head <- Atomic.get t.head;
      let free = t.capacity - (tail - t.cached_head) in
      if free <= 0 then xs
      else begin
        let rest = fill t tail 0 free xs in
        if Atomic.get t.item_waiting then wake_item t;
        rest
      end

let take_batch t ~max ~into =
  if max < 1 then invalid_arg "Spsc_ring.take_batch: max must be >= 1";
  if Atomic.get t.closed then raise Closed;
  let head = Atomic.get t.head in
  let tail = Atomic.get t.tail in
  t.cached_tail <- tail;
  let avail = tail - head in
  let n = if avail < max then avail else max in
  for k = 0 to n - 1 do
    let i = (head + k) land t.mask in
    Ss_prelude.Ring.push into (Obj.obj t.buf.(i));
    t.buf.(i) <- nil
  done;
  if n > 0 then begin
    Atomic.set t.head (head + n);
    if Atomic.get t.space_waiting then wake_space t
  end;
  avail

(* Registration raises the waiter flag {e before} re-checking the
   emptiness/fullness condition, both under the waiter lock; a publish
   writes its index {e before} reading the flag. [Atomic] operations are
   sequentially consistent, so if the re-check here missed the publish,
   the publisher's flag read is ordered after our flag write and sees it —
   the publisher then takes the lock (serializing with this registration)
   and fires the callback. Either way no wakeup is lost. *)
let on_item t k =
  if Atomic.get t.closed then false
  else begin
    Mutex.lock t.wlock;
    Atomic.set t.item_waiting true;
    let park =
      (not (Atomic.get t.closed))
      && Atomic.get t.tail - Atomic.get t.head = 0
    in
    if park then add_waiter t.item_waiters k
    else if not (has_waiters t.item_waiters) then
      Atomic.set t.item_waiting false;
    Mutex.unlock t.wlock;
    park
  end

let on_space t k =
  if Atomic.get t.closed then false
  else begin
    Mutex.lock t.wlock;
    Atomic.set t.space_waiting true;
    let park =
      (not (Atomic.get t.closed))
      && Atomic.get t.tail - Atomic.get t.head >= t.capacity
    in
    if park then add_waiter t.space_waiters k
    else if not (has_waiters t.space_waiters) then
      Atomic.set t.space_waiting false;
    Mutex.unlock t.wlock;
    park
  end

(* Blocking slow path, built on the parking hooks: register a callback
   that flips a flag under the waiter lock and broadcasts; close fires
   registered callbacks, so a blocked side wakes and re-observes Closed.
   Both sides share [wcond] — a broadcast may wake the other side too,
   which just re-checks its own flag and sleeps again. *)
let block_on t register =
  let signaled = ref false in
  let k () =
    Mutex.lock t.wlock;
    signaled := true;
    Condition.broadcast t.wcond;
    Mutex.unlock t.wlock
  in
  if register k then begin
    Mutex.lock t.wlock;
    while not !signaled do
      Condition.wait t.wcond t.wlock
    done;
    Mutex.unlock t.wlock
  end

let rec put t x =
  if not (try_put t x) then begin
    block_on t (on_space t);
    put t x
  end

let rec take t =
  match try_take t with
  | Some x -> x
  | None ->
      block_on t (on_item t);
      take t

let rec put_batch t xs =
  match try_put_chunk t xs with
  | [] -> ()
  | rest ->
      block_on t (on_space t);
      put_batch t rest

let close t =
  Mutex.lock t.wlock;
  Atomic.set t.closed true;
  Atomic.set t.item_waiting false;
  Atomic.set t.space_waiting false;
  Condition.broadcast t.wcond;
  (* One waiter set per lock hold; a registration in between sees the
     close and refuses to park. *)
  unlock_and_wake t.wlock t.item_waiters;
  Mutex.lock t.wlock;
  unlock_and_wake t.wlock t.space_waiters
