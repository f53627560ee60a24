(** The statistics the benchmark reports, kept free of any system code so
    the test suite can check them on hand-made samples. *)

val median : float array -> float
(** Median of a non-empty sample (mean of the two middle values for an even
    count). The array is not modified.
    @raise Invalid_argument on an empty sample. *)

val quantile : float array -> float -> float
(** [quantile xs p] is the nearest-rank [p]-quantile of a non-empty
    sample: its [ceil (p n)]-th smallest value (the smallest for [p = 0]).
    The array is not modified.
    @raise Invalid_argument on an empty sample. *)

val supported : n:int -> float -> bool
(** [supported ~n p]: a sample of [n] values supports percentile [p] when at
    least ten samples lie beyond its nearest rank ([n - ceil (p n) >= 10]).
    A tail percentile read from fewer samples is one or two outliers, not a
    distribution. *)

type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Sample buffers live outside the OCaml heap, so the benchmark's own
    bookkeeping never shows in the heap size it reports. *)

val sort_prefix : samples -> int -> unit
(** Sort the first [n] entries of a buffer in place, ascending. *)

val percentile : samples -> int -> float -> float option
(** [percentile sorted n p] is the nearest-rank percentile of the first [n]
    entries of an ascending buffer, or [None] when {!supported} rejects
    it. *)

val failed :
  expected:int -> delivered_correctly:int -> duplicates:int -> int
(** Tuples expected at the sink minus those delivered correctly, plus
    duplicate deliveries: a dropped tuple and a duplicated one each count
    once. *)

val failed_of_deliveries :
  n:int -> deliveries:(int -> int) -> correct:(int -> bool) -> int
(** {!failed} over per-ordinal delivery counts: each ordinal below [n] was
    expected once, arrived [deliveries i] times, and [correct i] tells
    whether the delivered copy carried the right contents. *)

val due : anchor:float -> rate:float -> int -> float
(** [due ~anchor ~rate i]: in an open loop at [rate] tuples per second,
    anchored at [anchor], tuple [i] is due at [anchor +. i /. rate],
    whatever happened to the tuples before it. Latency measured from the
    due time charges a generator stall to every tuple due behind it. *)
