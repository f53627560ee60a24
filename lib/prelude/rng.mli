(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component of the library (topology generation, service
    processes in the simulator, key distributions) takes an explicit [Rng.t]
    so experiments are reproducible from a single integer seed. *)

type t

val create : int -> t
(** [create seed] returns a generator initialized from [seed]. Two generators
    created from the same seed produce identical streams. *)

val copy : t -> t
(** Independent copy sharing the current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequently produce decorrelated streams. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val bits53 : t -> int
(** The top 53 bits of the next raw output, [Int64.shift_right_logical
    (int64 t) 11], as an immediate int: the same stream position as one
    {!int64} or {!float} draw, without boxing a result. Samplers scale it
    themselves ({!float} is [bits53 t] times [2{^-53}]). *)

val float : t -> float
(** Uniform float in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val int_in_range : t -> int -> int -> int
(** [int_in_range t lo hi] is uniform in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float_in_range : t -> float -> float -> float
(** [float_in_range t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val pick : t -> 'a array -> 'a
(** Uniformly random element. Requires a non-empty array. *)
