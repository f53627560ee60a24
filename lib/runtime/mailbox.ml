(* Both implementations raise physically the same exception so callers —
   and the supervision protocol — never care which one backs an edge. *)
exception Closed = Spsc_ring.Closed

(* --- locking MPSC implementation ---------------------------------- *)

(* A fixed ring of [capacity] slots under one mutex. Slots hold [Obj.t]
   with an out-of-band sentinel for an empty slot, as in {!Spsc_ring}, so
   an item costs no queue cell and the array stays a regular (boxed) one
   even when ['a = float]. *)
type 'a locking = {
  capacity : int;
  buf : Obj.t array;
  mutable head : int; (* slot of the oldest item *)
  mutable len : int;
  mutex : Mutex.t;
  not_full : Condition.t;
  not_empty : Condition.t;
  (* Parked-task wakeup callbacks (scheduler resumptions). Registered by
     [on_space]/[on_item] only while the awaited condition does not hold;
     taken — and invoked outside the lock — whenever it may again. *)
  space_waiters : Spsc_ring.waiters;
  item_waiters : Spsc_ring.waiters;
  mutable closed : bool;
}

let nil : Obj.t = Obj.repr (ref ())

let create_lk ~capacity =
  {
    capacity;
    buf = Array.make capacity nil;
    head = 0;
    len = 0;
    mutex = Mutex.create ();
    not_full = Condition.create ();
    not_empty = Condition.create ();
    space_waiters = Spsc_ring.waiters ();
    item_waiters = Spsc_ring.waiters ();
    closed = false;
  }

(* Lock discipline, without a [Fun.protect] closure per operation: every
   path unlocks explicitly before it raises [Closed] and before it runs
   wakeups (a resumed task may touch the mailbox at once), and the only
   call that can raise while the lock is held — the condition wait — is
   wrapped to release it. So no exception wedges peer actors. *)
let wait_lk t cond =
  try Condition.wait cond t.mutex
  with e ->
    Mutex.unlock t.mutex;
    raise e

let closed_lk t =
  Mutex.unlock t.mutex;
  raise Closed

(* Release the lock, then run the callbacks of one waiter set, taken
   under it. Allocates nothing. *)
let unlock_wake t ws = Spsc_ring.unlock_and_wake t.mutex ws

let push_lk t x =
  let i = t.head + t.len in
  let i = if i >= t.capacity then i - t.capacity else i in
  Array.unsafe_set t.buf i (Obj.repr x);
  t.len <- t.len + 1

let pop_lk t =
  let i = t.head in
  let x = Array.unsafe_get t.buf i in
  Array.unsafe_set t.buf i nil;
  t.head <- (if i + 1 = t.capacity then 0 else i + 1);
  t.len <- t.len - 1;
  Obj.obj x

(* Push while capacity lasts; the suffix that did not fit is physically a
   tail of the input. *)
let rec fill_lk t xs =
  match xs with
  | x :: rest when t.len < t.capacity ->
      push_lk t x;
      fill_lk t rest
  | rest -> rest

let put_lk t x =
  Mutex.lock t.mutex;
  while (not t.closed) && t.len >= t.capacity do
    wait_lk t t.not_full
  done;
  if t.closed then closed_lk t;
  push_lk t x;
  Condition.signal t.not_empty;
  unlock_wake t t.item_waiters

let take_lk t =
  Mutex.lock t.mutex;
  while (not t.closed) && t.len = 0 do
    wait_lk t t.not_empty
  done;
  if t.closed then closed_lk t;
  let x = pop_lk t in
  Condition.signal t.not_full;
  unlock_wake t t.space_waiters;
  x

let try_put_lk t x =
  Mutex.lock t.mutex;
  if t.closed then closed_lk t;
  if t.len < t.capacity then begin
    push_lk t x;
    Condition.signal t.not_empty;
    unlock_wake t t.item_waiters;
    true
  end
  else begin
    Mutex.unlock t.mutex;
    false
  end

let try_take_lk t =
  Mutex.lock t.mutex;
  if t.closed then closed_lk t;
  if t.len = 0 then begin
    Mutex.unlock t.mutex;
    None
  end
  else begin
    let x = pop_lk t in
    Condition.signal t.not_full;
    unlock_wake t t.space_waiters;
    Some x
  end

(* Multi-item publish in one lock round-trip: push while capacity lasts,
   hand back the suffix that did not fit (physically shared — no
   allocation). *)
let try_put_chunk_lk t xs =
  Mutex.lock t.mutex;
  if t.closed then closed_lk t;
  let n0 = t.len in
  let rest = fill_lk t xs in
  if t.len > n0 then begin
    Condition.broadcast t.not_empty;
    unlock_wake t t.item_waiters
  end
  else Mutex.unlock t.mutex;
  rest

let rec put_batch_lk t xs =
  match xs with
  | [] -> ()
  | xs ->
      Mutex.lock t.mutex;
      while (not t.closed) && t.len >= t.capacity do
        wait_lk t t.not_full
      done;
      if t.closed then closed_lk t;
      let rest = fill_lk t xs in
      Condition.broadcast t.not_empty;
      unlock_wake t t.item_waiters;
      put_batch_lk t rest

let take_batch_lk t ~max ~into =
  Mutex.lock t.mutex;
  if t.closed then closed_lk t;
  let avail = t.len in
  let n = Stdlib.min max avail in
  for _ = 1 to n do
    Ss_prelude.Ring.push into (pop_lk t)
  done;
  if n > 0 then begin
    Condition.broadcast t.not_full;
    unlock_wake t t.space_waiters
  end
  else Mutex.unlock t.mutex;
  avail

let on_space_lk t k =
  Mutex.lock t.mutex;
  let park = (not t.closed) && t.len >= t.capacity in
  if park then Spsc_ring.add_waiter t.space_waiters k;
  Mutex.unlock t.mutex;
  park

let on_item_lk t k =
  Mutex.lock t.mutex;
  let park = (not t.closed) && t.len = 0 in
  if park then Spsc_ring.add_waiter t.item_waiters k;
  Mutex.unlock t.mutex;
  park

let length_lk t =
  Mutex.lock t.mutex;
  let n = t.len in
  Mutex.unlock t.mutex;
  n

let close_lk t =
  Mutex.lock t.mutex;
  if t.closed then Mutex.unlock t.mutex
  else begin
    t.closed <- true;
    Array.fill t.buf 0 t.capacity nil;
    t.head <- 0;
    t.len <- 0;
    Condition.broadcast t.not_full;
    Condition.broadcast t.not_empty;
    (* One waiter set per lock hold; a registration in between sees the
       close and refuses to park. *)
    unlock_wake t t.item_waiters;
    Mutex.lock t.mutex;
    unlock_wake t t.space_waiters
  end

let is_closed_lk t =
  Mutex.lock t.mutex;
  let c = t.closed in
  Mutex.unlock t.mutex;
  c

(* --- facade ------------------------------------------------------- *)

type 'a t = Locking of 'a locking | Spsc of 'a Spsc_ring.t

let create ~capacity =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  Locking (create_lk ~capacity)

let create_spsc ~capacity =
  if capacity < 1 then invalid_arg "Mailbox.create: capacity must be >= 1";
  Spsc (Spsc_ring.create ~capacity)

let is_spsc = function Locking _ -> false | Spsc _ -> true

let capacity = function
  | Locking t -> t.capacity
  | Spsc r -> Spsc_ring.capacity r

let put m x =
  match m with Locking t -> put_lk t x | Spsc r -> Spsc_ring.put r x

let take = function Locking t -> take_lk t | Spsc r -> Spsc_ring.take r

let try_put m x =
  match m with Locking t -> try_put_lk t x | Spsc r -> Spsc_ring.try_put r x

let try_take = function
  | Locking t -> try_take_lk t
  | Spsc r -> Spsc_ring.try_take r

let try_put_chunk m xs =
  match xs with
  | [] -> []
  | _ -> (
      match m with
      | Locking t -> try_put_chunk_lk t xs
      | Spsc r -> Spsc_ring.try_put_chunk r xs)

let put_batch m xs =
  match xs with
  | [] -> ()
  | _ -> (
      match m with
      | Locking t -> put_batch_lk t xs
      | Spsc r -> Spsc_ring.put_batch r xs)

let take_batch m ~max ~into =
  if max < 1 then invalid_arg "Mailbox.take_batch: max must be >= 1";
  match m with
  | Locking t -> take_batch_lk t ~max ~into
  | Spsc r -> Spsc_ring.take_batch r ~max ~into

let on_space m k =
  match m with
  | Locking t -> on_space_lk t k
  | Spsc r -> Spsc_ring.on_space r k

let on_item m k =
  match m with
  | Locking t -> on_item_lk t k
  | Spsc r -> Spsc_ring.on_item r k

let length = function
  | Locking t -> length_lk t
  | Spsc r -> Spsc_ring.length r

let close = function Locking t -> close_lk t | Spsc r -> Spsc_ring.close r

let is_closed = function
  | Locking t -> is_closed_lk t
  | Spsc r -> Spsc_ring.is_closed r
