(* Clocks, process counters and the result every workload returns. *)

(* Seconds on the monotonic clock, at nanosecond resolution. The same
   clock on every domain, so a due time stamped by the source and an
   arrival stamped by the sink subtract correctly. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process CPU seconds, all domains included (getrusage, microseconds). *)
let cpu = Sys.time

(* Gc.quick_stat counts the whole process: pool domains fold their
   counters in when they join. *)
let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

let samples n = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max 1 n)

(* Nearest-rank percentile of the first [n] samples, in milliseconds, or
   nan when too few samples lie beyond it; the buffer is sorted in place. *)
let percentile_ms buf n p =
  Stats.sort_prefix buf n;
  match Stats.percentile buf n p with Some v -> 1e3 *. v | None -> Float.nan

type result = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** Every metric the workload measured, by the name BENCHMARK.json
          declares it under; run.py reports a declared per-layer metric
          the workload does not measure as 0. *)
}

let median_of f rounds = Stats.median (Array.of_list (List.map f rounds))
let quantile_of p f rounds = Stats.quantile (Array.of_list (List.map f rounds)) p
