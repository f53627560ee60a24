(** A growable FIFO ring, unsynchronized: its owner (or the lock that
    guards it) is its only user.

    The slots live in one array that doubles when full, so once a ring
    has grown to its largest backlog, pushing and popping allocate
    nothing — unlike a [Queue], which costs a cell per item. Mailbox
    readers drain into one ({!Ss_runtime.Mailbox.take_batch}); the
    scheduler keeps its locked pool's queues and a worker's yielded tasks
    in them. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back, growing the array when full. *)

val pop : 'a t -> 'a
(** Remove and return the front item.
    @raise Invalid_argument when empty. *)

val pop_back : 'a t -> 'a
(** Remove and return the back item (the newest).
    @raise Invalid_argument when empty. *)

val clear : 'a t -> unit
(** Drop every item; the slots are reset, so nothing stays reachable. *)
