(* The repository's benchmark: one command per workload, end-to-end
   metrics with tracing off (--trace 0) or per-layer metrics from a
   traced run (--trace 1), outputs checked either way. The last line of
   standard output is a JSON object with [correct], [attempted], [failed]
   and every metric the run measured, by name; a failed check exits 1
   after it. perfbench/run.py reports from it the metrics BENCHMARK.json
   declares, with their units.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   See perfbench/README.md for the workloads and metrics. *)

(* The traced run of fig11_saturated also runs the paper's tool on its
   testbed (Plan_testbed), for the ss_core and ss_sim per-layer metrics:
   its topologies count as attempted items, and a failed check as failed. *)
let fig11_saturated ~seed ~seconds ~trace =
  let r = Runtime_wl.fig11 ~paced:false ~seed ~seconds ~trace in
  if not trace then r
  else
    let p = Plan_testbed.run ~seed in
    { Common.attempted = r.Common.attempted + p.Common.attempted;
      failed = r.failed + p.failed; metrics = r.metrics @ p.metrics }

let workloads =
  [
    ("fig11_saturated", fig11_saturated);
    ("fig11_paced", Runtime_wl.fig11 ~paced:true);
    ("log_ingest", Runtime_wl.log_ingest);
  ]

let usage = "bench.exe --workload NAME --seed N --seconds S --trace 0|1"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of " ^ String.concat ", " (List.map fst workloads));
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S seconds to measure");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let run =
    match List.assoc_opt !workload workloads with
    | Some run -> run
    | None ->
        prerr_endline ("unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
  in
  if !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline usage;
    exit 2
  end;
  let trace = !trace = 1 in
  Spans.enabled := trace;
  let r = run ~seed:!seed ~seconds:!seconds ~trace in
  let failed_frac = float_of_int r.Common.failed /. float_of_int (max 1 r.attempted) in
  if trace then begin
    (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf ".perfbench/spans-%s-%d.jsonl" !workload !seed in
    Spans.write path;
    Printf.printf "spans written to %s\n" path
  end;
  let correct = r.failed = 0 in
  (* A percentile with too few samples beyond it reads nan: null here. *)
  let value v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n" correct
    r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun (name, v) -> Printf.sprintf "\"%s\": %s" name (value v))
          (("failed_frac", failed_frac) :: r.metrics)));
  exit (if correct then 0 else 1)
