(* Tests for the discrete-event simulator: BAS blocking semantics, routing,
   selectivity, replicas, and agreement with the analytical cost model. *)

open Ss_topology
open Ss_core
open Ss_sim

let quick_config =
  { Engine.default_config with Engine.warmup = 2.0; Engine.measure = 10.0 }

let check_close ?(tol = 0.02) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.2f within %.1f%%, got %.2f" what expected
       (tol *. 100.0) actual)
    true
    (Float.abs (actual -. expected) <= tol *. Float.max 1.0 (Float.abs expected))

(* ------------------------------------------------------------------ *)
(* Basic throughput *)

let test_unconstrained_pipeline () =
  let t = Fixtures.pipeline [ 1.0; 0.5; 0.8 ] in
  let r = Engine.run ~config:quick_config t in
  check_close "throughput" 1000.0 r.Engine.throughput;
  check_close "sink keeps up" 1000.0 r.Engine.stats.(2).Engine.departure_rate

let test_bottleneck_pipeline () =
  let t = Fixtures.pipeline [ 1.0; 4.0; 0.8 ] in
  let r = Engine.run ~config:quick_config t in
  check_close "throttled to bottleneck" 250.0 r.Engine.throughput;
  check_close "bottleneck saturated" 1.0 r.Engine.stats.(1).Engine.busy_fraction
    ~tol:0.02;
  check_close "source idles under backpressure" 0.25
    r.Engine.stats.(0).Engine.busy_fraction ~tol:0.05

let test_diamond_weighted () =
  let t = Fixtures.diamond ~pa:0.3 ~t_src:1.0 ~t_a:5.0 ~t_b:0.5 ~t_sink:0.1 in
  let r = Engine.run ~config:quick_config t in
  check_close "throughput" (200.0 /. 0.3) r.Engine.throughput ~tol:0.03

let test_fig11_measured_vs_predicted () =
  let t = Fixtures.table1 () in
  let predicted = Steady_state.analyze t in
  let r = Engine.run ~config:quick_config t in
  check_close "topology throughput" predicted.Steady_state.throughput
    r.Engine.throughput ~tol:0.02;
  (* Per-operator departure rates within a few percent (paper Fig. 8). *)
  Array.iteri
    (fun v m ->
      check_close
        (Printf.sprintf "operator %d departure" v)
        m.Steady_state.departure_rate
        r.Engine.stats.(v).Engine.departure_rate ~tol:0.05)
    predicted.Steady_state.metrics

let test_table2_fused_measured () =
  let t = Fixtures.table2 () in
  match Fusion.apply t [ 2; 3; 4 ] with
  | Error e -> Alcotest.fail e
  | Ok o ->
      let r = Engine.run ~config:quick_config o.Fusion.topology in
      (* Paper: predicted 760, measured 753. *)
      check_close "fused topology throughput"
        o.Fusion.after.Steady_state.throughput r.Engine.throughput ~tol:0.03

(* ------------------------------------------------------------------ *)
(* Selectivity *)

let test_output_selectivity_flatmap () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~service_time:0.1e-3 ~output_selectivity:3.0 "flatmap";
      Operator.make ~service_time:0.2e-3 "sink";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "flatmap triples the stream" 3000.0
    r.Engine.stats.(1).Engine.departure_rate;
  check_close "sink sees 3000/s" 3000.0 r.Engine.stats.(2).Engine.arrival_rate

let test_input_selectivity_window () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~service_time:0.5e-3 ~input_selectivity:10.0 "window";
      Operator.make ~service_time:2e-3 "slow_sink";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "window divides by 10" 100.0
    r.Engine.stats.(1).Engine.departure_rate;
  check_close "no backpressure from the slow sink" 1000.0 r.Engine.throughput

let test_fractional_selectivity () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~service_time:0.1e-3 ~output_selectivity:0.5 "filter";
      Operator.make ~service_time:0.1e-3 "sink";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "filter halves the stream" 500.0
    r.Engine.stats.(1).Engine.departure_rate

(* ------------------------------------------------------------------ *)
(* Replicas *)

let test_stateless_replicas_remove_bottleneck () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~service_time:4e-3 ~replicas:4 "worker";
      Operator.make ~service_time:0.2e-3 "sink";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "4 replicas sustain the source" 1000.0 r.Engine.throughput ~tol:0.03

let test_underprovisioned_replicas () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~service_time:4e-3 ~replicas:2 "worker";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "2 replicas give 500/s" 500.0 r.Engine.throughput ~tol:0.03

let test_partitioned_skew_capacity () =
  (* Two replicas, half the keys' mass on one group: capacity 2000/s. *)
  let keys = Ss_prelude.Discrete.of_weights [| 0.5; 0.25; 0.125; 0.125 |] in
  let ops =
    [|
      Operator.make ~service_time:(1.0 /. 3000.0) "src";
      Operator.make
        ~kind:(Operator.Partitioned_stateful keys)
        ~service_time:1e-3 ~replicas:2 "keyed";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  let predicted = Steady_state.analyze t in
  check_close "skew-limited throughput" predicted.Steady_state.throughput
    r.Engine.throughput ~tol:0.05

let test_fission_plan_reaches_ideal_rate () =
  (* End-to-end: optimize a bottlenecked topology, then simulate the plan. *)
  let t = Fixtures.pipeline [ 0.5; 2.0; 0.4 ] in
  let f = Fission.optimize t in
  let r = Engine.run ~config:quick_config f.Fission.topology in
  check_close "optimized plan sustains the source" 2000.0 r.Engine.throughput
    ~tol:0.03

(* ------------------------------------------------------------------ *)
(* Engine behavior *)

let test_determinism () =
  let t = Fixtures.table1 () in
  let r1 = Engine.run ~config:quick_config t in
  let r2 = Engine.run ~config:quick_config t in
  Alcotest.(check (float 0.0)) "identical runs" r1.Engine.throughput
    r2.Engine.throughput;
  Alcotest.(check int) "identical event counts" r1.Engine.events r2.Engine.events

let test_seed_sensitivity () =
  let t = Fixtures.table1 () in
  let r1 = Engine.run ~config:quick_config t in
  let r2 =
    Engine.run ~config:{ quick_config with Engine.seed = 7 } t
  in
  (* Different random routing, same steady state. *)
  check_close "same steady state" r1.Engine.throughput r2.Engine.throughput
    ~tol:0.02

let test_replicated_source_rejected () =
  let ops =
    [|
      Operator.make ~service_time:1e-3 ~replicas:2 "src";
      Operator.make ~service_time:1e-3 "sink";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  Alcotest.check_raises "replicated source"
    (Invalid_argument "Engine.run: the source operator cannot be replicated")
    (fun () -> ignore (Engine.run ~config:quick_config t))

let test_stochastic_service_times () =
  (* Exponential service keeps the same mean rates (tolerance is wider:
     finite buffers under variance genuinely lose some throughput). *)
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~dist:(Ss_prelude.Dist.Exponential 2e-3) ~service_time:2e-3
        "stage";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0) ] in
  let r = Engine.run ~config:quick_config t in
  check_close "M/M-ish bottleneck near 500/s" 500.0 r.Engine.throughput
    ~tol:0.10

let test_buffer_capacity_sensitivity () =
  (* Larger buffers decouple stochastic stages: throughput approaches the
     analytical bound from below. *)
  let ops =
    [|
      Operator.make ~service_time:1e-3 "src";
      Operator.make ~dist:(Ss_prelude.Dist.Exponential 1.25e-3)
        ~service_time:1.25e-3 "a";
      Operator.make ~dist:(Ss_prelude.Dist.Exponential 1.25e-3)
        ~service_time:1.25e-3 "b";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0) ] in
  let run cap =
    (Engine.run
       ~config:{ quick_config with Engine.buffer_capacity = cap }
       t)
      .Engine.throughput
  in
  let small = run 1 and large = run 128 in
  Alcotest.(check bool)
    (Printf.sprintf "cap=1 (%.0f) below cap=128 (%.0f)" small large)
    true (small < large);
  Alcotest.(check bool) "both below the analytical bound" true
    (small <= 800.0 +. 20.0 && large <= 800.0 +. 20.0)

let test_queue_stats_bottleneck () =
  (* The saturated stage's buffer stays essentially full; an underloaded
     stage's stays essentially empty. Little's law ties W to L by
     construction, so spot-check both. *)
  let t = Fixtures.pipeline [ 1.0; 4.0; 0.8 ] in
  let config = { quick_config with Engine.buffer_capacity = 8 } in
  let r = Engine.run ~config t in
  let hot = r.Engine.stats.(1) in
  let cold = r.Engine.stats.(2) in
  Alcotest.(check bool)
    (Printf.sprintf "bottleneck queue near capacity (%.2f)" hot.Engine.mean_queue_length)
    true
    (hot.Engine.mean_queue_length > 6.0);
  Alcotest.(check bool) "underloaded queue near empty" true
    (cold.Engine.mean_queue_length < 0.5);
  Alcotest.(check (float 1e-9)) "Little's law consistency"
    (hot.Engine.mean_queue_length /. hot.Engine.arrival_rate)
    hot.Engine.mean_waiting_time;
  (* ~8 queued items at 250/s service: about 32ms of buffering delay. *)
  Alcotest.(check bool)
    (Printf.sprintf "waiting time plausible (%.1f ms)"
       (hot.Engine.mean_waiting_time *. 1e3))
    true
    (hot.Engine.mean_waiting_time > 20e-3 && hot.Engine.mean_waiting_time < 40e-3)

let test_queue_stats_empty_when_idle () =
  let t = Fixtures.pipeline [ 1.0; 0.1 ] in
  let r = Engine.run ~config:quick_config t in
  Alcotest.(check bool) "fast stage queues nothing" true
    (r.Engine.stats.(1).Engine.mean_queue_length < 0.05)

let test_event_accounting () =
  let t = Fixtures.pipeline [ 1.0; 0.5 ] in
  let r = Engine.run ~config:quick_config t in
  Alcotest.(check bool) "events processed" true (r.Engine.events > 10_000);
  Alcotest.(check (float 1e-9)) "simulated time" 12.0 r.Engine.simulated_time

(* ------------------------------------------------------------------ *)
(* Model-vs-simulation agreement on random topologies (the heart of the
   paper's Fig. 7). *)

let arbitrary_spec =
  QCheck.make
    ~print:(fun (n, seed) -> Printf.sprintf "n=%d seed=%d" n seed)
    QCheck.Gen.(pair (int_range 3 8) (int_range 0 1000))

let build_random (n, seed) =
  let rng = Ss_prelude.Rng.create seed in
  let ops =
    Array.init n (fun i ->
        let ms = 0.2 +. Ss_prelude.Rng.float rng *. 3.0 in
        Operator.make ~service_time:(ms /. 1e3) (Printf.sprintf "v%d" i))
  in
  let edges = ref [] in
  for j = 1 to n - 1 do
    let s = Ss_prelude.Rng.int rng j in
    edges := (s, j, 1.0) :: !edges
  done;
  let out_count = Array.make n 0 in
  List.iter (fun (i, _, _) -> out_count.(i) <- out_count.(i) + 1) !edges;
  let edges =
    List.map (fun (i, j, _) -> (i, j, 1.0 /. float_of_int out_count.(i))) !edges
  in
  Topology.create_exn ops edges

let prop_model_matches_simulation =
  QCheck.Test.make ~name:"predicted and simulated throughput agree within 5%"
    ~count:25 arbitrary_spec (fun spec ->
      let t = build_random spec in
      let predicted = (Steady_state.analyze t).Steady_state.throughput in
      let measured =
        (Engine.run
           ~config:{ quick_config with Engine.warmup = 1.0; Engine.measure = 5.0 }
           t)
          .Engine.throughput
      in
      Float.abs (measured -. predicted) <= 0.05 *. predicted)

(* Per-vertex counts [Engine.replay] predicts for Fig. 11 with Table 1's
   fusion, pinned from the boxed-state generator: the routing streams must
   stay bit-identical across changes to [Rng] and [Discrete]. *)
let test_fig11_replay_pinned () =
  List.iter
    (fun (seed, consumed, produced) ->
      let c, p =
        Engine.replay ~fused:[ [ 2; 3; 4 ] ] ~seed ~tuples:10_000
          (Fixtures.table1 ())
      in
      Alcotest.(check (array int)) (Printf.sprintf "consumed, seed %d" seed) consumed c;
      Alcotest.(check (array int)) (Printf.sprintf "produced, seed %d" seed) produced p)
    [
      ( 42,
        [| 0; 6995; 3005; 1966; 1547; 10000 |],
        [| 10000; 6995; 3005; 1966; 1547; 10000 |] );
      ( 701,
        [| 0; 7006; 2994; 2059; 1483; 10000 |],
        [| 10000; 7006; 2994; 2059; 1483; 10000 |] );
    ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ss_sim"
    [
      ( "throughput",
        [
          quick "unconstrained pipeline" test_unconstrained_pipeline;
          quick "bottleneck pipeline" test_bottleneck_pipeline;
          quick "weighted diamond" test_diamond_weighted;
          quick "fig11 measured vs predicted" test_fig11_measured_vs_predicted;
          quick "table2 fused topology" test_table2_fused_measured;
          quick "fig11 replay counts pinned" test_fig11_replay_pinned;
        ] );
      ( "selectivity",
        [
          quick "flatmap output selectivity" test_output_selectivity_flatmap;
          quick "window input selectivity" test_input_selectivity_window;
          quick "fractional selectivity" test_fractional_selectivity;
        ] );
      ( "replicas",
        [
          quick "stateless fission" test_stateless_replicas_remove_bottleneck;
          quick "under-provisioned replicas" test_underprovisioned_replicas;
          quick "partitioned skew" test_partitioned_skew_capacity;
          quick "fission plan end-to-end" test_fission_plan_reaches_ideal_rate;
        ] );
      ( "engine",
        [
          quick "determinism" test_determinism;
          quick "seed sensitivity" test_seed_sensitivity;
          quick "replicated source rejected" test_replicated_source_rejected;
          quick "stochastic service times" test_stochastic_service_times;
          quick "buffer capacity sensitivity" test_buffer_capacity_sensitivity;
          quick "queue stats at a bottleneck" test_queue_stats_bottleneck;
          quick "queue stats when idle" test_queue_stats_empty_when_idle;
          quick "event accounting" test_event_accounting;
        ] );
      ("properties", [ prop prop_model_matches_simulation ]);
    ]
