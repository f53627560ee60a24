(* The paper's tool itself on the random testbed of §5.1: Algorithm 1
   (steady state), Algorithm 2 (fission) and Algorithm 3 (greedy fusion)
   on each topology, then the discrete-event simulator on the optimised
   result. It runs in the traced run of fig11_saturated and gives the
   ss_core and ss_sim per-layer metrics.

   It is not a workload of its own: its CPU time moved by up to 30%
   between sets of runs a few minutes apart on the 2-core host, with the
   same seeds and no steal to speak of (it allocates about 90 MB per
   topology, and so feels every other tenant of the memory system). No
   bound a gated metric may have (25% at most) holds that.

   The testbed is the paper's: the 50 topologies of the repository's
   evaluation seed. A testbed drawn per run seed would make the work
   itself differ between runs (one probe measured 18 to 134 ms of
   planning per topology across five seeds), so the run seed drives the
   simulator instead. *)

open Ss_core
open Common

let testbed_seed = 20180901
let testbed_size = 50

(* Simulated seconds per topology: long enough for the testbed's slowest
   operators to fire, short enough that a pass stays a few seconds. *)
let sim_config ~seed index =
  { Ss_sim.Engine.default_config with
    Ss_sim.Engine.warmup = 1.0; measure = 4.0; seed = Hashtbl.seeded_hash seed index }

type plan = {
  alg1 : float;  (** CPU seconds of the call. *)
  alg2 : float;
  alg3 : float;
  sim_cpu : float;
  events : int;
  predicted : float;
  simulated : float;
  fusion_kept_throughput : bool;
}

(* The planner runs on one domain, so its CPU time is the time its user
   waits, less the stretches in which the host took the vCPU away. *)
let timed name f =
  let t0 = cpu () in
  let r = Spans.record name f in
  (r, cpu () -. t0)

let plan_one ~seed index topology =
  let _, alg1 = timed "Steady_state.analyze" (fun () -> Steady_state.analyze topology) in
  let fission, alg2 = timed "Fission.optimize" (fun () -> Fission.optimize topology) in
  let fusion, alg3 =
    timed "Fusion.auto" (fun () -> Fusion.auto fission.Fission.topology)
  in
  let sim, sim_cpu =
    timed "Engine.run" (fun () ->
        Ss_sim.Engine.run ~config:(sim_config ~seed index) fusion.Fusion.final)
  in
  let initial = fusion.Fusion.initial_analysis.Steady_state.throughput
  and final = fusion.Fusion.final_analysis.Steady_state.throughput in
  {
    alg1; alg2; alg3; sim_cpu;
    events = sim.Ss_sim.Engine.events;
    predicted = final;
    simulated = sim.Ss_sim.Engine.throughput;
    (* [Fusion.auto]'s contract: throughput preserved within 1e-9. *)
    fusion_kept_throughput = Float.abs (final -. initial) <= 1e-9 *. Float.abs initial;
  }

(* One pass over the testbed. Each topology is one attempted item; one
   whose fusion changed its throughput is failed. *)
let run ~seed =
  let testbed =
    Spans.record "Random_topology.testbed" (fun () ->
        Ss_workload.Random_topology.testbed ~seed:testbed_seed testbed_size)
  in
  let plans = Array.of_list (List.mapi (plan_one ~seed) testbed) in
  let n = float_of_int (Array.length plans) in
  let mean f = Array.fold_left (fun acc p -> acc +. f p) 0.0 plans /. n in
  let events = mean (fun p -> float_of_int p.events) in
  let failed =
    Array.fold_left (fun acc p -> if p.fusion_kept_throughput then acc else acc + 1) 0 plans
  in
  {
    attempted = Array.length plans;
    failed;
    metrics =
      [
        ("core.alg1_ms", 1e3 *. mean (fun p -> p.alg1));
        ("core.alg2_ms", 1e3 *. mean (fun p -> p.alg2));
        ("core.alg3_ms", 1e3 *. mean (fun p -> p.alg3));
        ("core.plan_ms_per_topology", 1e3 *. mean (fun p -> p.alg1 +. p.alg2 +. p.alg3));
        ("sim.events", events);
        ("sim.ns_per_event", 1e9 *. mean (fun p -> p.sim_cpu) /. events);
        ("model.prediction_error_pct",
         100.0 *. mean (fun p -> Float.abs (p.simulated -. p.predicted) /. p.predicted));
      ];
  }
