(* Tests for the compiled fused-chain tier: deploy-time staging
   ([Fused_compile]), count parity with the interpreted meta-operator and
   [Engine.replay], fallback to the interpreted walk, the generated
   closed-loop fixture, and the compiled cost model. *)

open Ss_topology
open Ss_operators
open Ss_runtime

let tuple values = Tuple.make values

let registry_of table v =
  match List.assoc_opt v table with
  | Some b -> b
  | None -> Alcotest.failf "no behavior registered for vertex %d" v

let identity_registry vs =
  registry_of (List.map (fun v -> (v, Stateless_ops.identity)) vs)

(* The fig11 shape with negligible service times: identity behaviors never
   spin, so the runs are fast while still exercising the diamond interior,
   the 5->4 back edge and the two distinct exits into the sink. *)
let fig11_fast () = Fixtures.fig11 [ 1e-4; 1e-4; 1e-4; 1e-4; 1e-4; 1e-4 ]

let fig11_group = [ 2; 3; 4 ]

let run_fig11 ~fusion ~seed ~tuples:count =
  Executor.run ~fused:[ fig11_group ] ~fusion ~seed
    ~source:
      (Executor.source_of_fn ~count (fun i -> tuple [| float_of_int i |]))
    ~registry:(identity_registry [ 1; 2; 3; 4; 5 ])
    (fig11_fast ())

(* ------------------------------------------------------------------ *)
(* Differential equivalence: compiled = interpreted = DES replay *)

let test_fig11_compiled_interpreted_replay () =
  let seed = 7 and tuples = 3000 in
  let compiled = run_fig11 ~fusion:`Compiled ~seed ~tuples in
  let interpreted = run_fig11 ~fusion:`Interpreted ~seed ~tuples in
  let replay_consumed, replay_produced =
    Ss_sim.Engine.replay ~fused:[ fig11_group ] ~seed ~tuples (fig11_fast ())
  in
  Alcotest.(check bool) "compiled finished" true
    (compiled.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) "consumed, compiled = interpreted"
    interpreted.Executor.consumed compiled.Executor.consumed;
  Alcotest.(check (array int)) "produced, compiled = interpreted"
    interpreted.Executor.produced compiled.Executor.produced;
  Alcotest.(check (array int)) "consumed, compiled = replay" replay_consumed
    compiled.Executor.consumed;
  Alcotest.(check (array int)) "produced, compiled = replay" replay_produced
    compiled.Executor.produced

(* A caller-supplied chain (the codegen contract) is matched by member set
   and must not change the counts either. The chain below reimplements the
   identity walk over fig11's group exactly as Fused_compile stages it. *)
let test_supplied_chain_matches_staged () =
  let seed = 11 and tuples = 2000 in
  let chain (env : Fused_compile.env) =
    let consumed = env.Fused_compile.consumed in
    let produced = env.Fused_compile.produced in
    let rng = env.Fused_compile.rng in
    let emit = env.Fused_compile.emit in
    let dist_2 = Ss_prelude.Discrete.of_weights [| 0.5; 0.5 |] in
    let dist_4 = Ss_prelude.Discrete.of_weights [| 0.35; 0.65 |] in
    let rec step_2 t =
      consumed.(2) <- consumed.(2) + 1;
      produced.(2) <- produced.(2) + 1;
      match Ss_prelude.Discrete.sample rng dist_2 with
      | 0 -> step_3 t
      | _ -> step_4 t
    and step_4 t =
      consumed.(4) <- consumed.(4) + 1;
      produced.(4) <- produced.(4) + 1;
      match Ss_prelude.Discrete.sample rng dist_4 with
      | 0 -> step_3 t
      | _ -> emit 4 5 t
    and step_3 t =
      consumed.(3) <- consumed.(3) + 1;
      produced.(3) <- produced.(3) + 1;
      ignore (Ss_prelude.Rng.float rng : float);
      emit 3 5 t
    in
    step_2
  in
  let supplied =
    Executor.run
      ~fused:[ fig11_group ]
      ~chains:[ (fig11_group, chain) ]
      ~seed
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             tuple [| float_of_int i |]))
      ~registry:(identity_registry [ 1; 2; 3; 4; 5 ])
      (fig11_fast ())
  in
  let staged = run_fig11 ~fusion:`Compiled ~seed ~tuples in
  Alcotest.(check (array int)) "consumed, supplied chain = staged"
    staged.Executor.consumed supplied.Executor.consumed;
  Alcotest.(check (array int)) "produced, supplied chain = staged"
    staged.Executor.produced supplied.Executor.produced

(* ------------------------------------------------------------------ *)
(* Property: over random fusable chains, the compiled closed loop and the
   interpreted walk report identical per-vertex counts — including members
   without inline hooks (flat_split goes through Behavior.instantiate) and
   members that drop tuples mid-chain. *)

let behavior_of_pick = function
  | 0 -> Stateless_ops.identity
  | 1 -> Stateless_ops.scale ~factor:2.0
  | 2 -> Stateless_ops.threshold_filter ~index:0 ~threshold:0.5
  | 3 -> Stateless_ops.sampler ~keep_one_in:3
  | _ -> Stateless_ops.flat_split ~parts:2

let test_random_chain_equivalence =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:30
       ~name:"compiled closed loop = interpreted walk on random chains"
       (QCheck.make
          QCheck.Gen.(
            pair (int_range 0 1000)
              (list_size (int_range 2 5) (int_bound 4))))
       (fun (seed, picks) ->
         let k = List.length picks in
         let ops =
           Array.init (k + 1) (fun v ->
               if v = 0 then Operator.make ~service_time:1e-7 "src"
               else Operator.make ~service_time:1e-7 (Printf.sprintf "m%d" v))
         in
         let edges = List.init k (fun v -> (v, v + 1, 1.0)) in
         let t = Topology.create_exn ops edges in
         let registry =
           registry_of
             (List.mapi (fun i pick -> (i + 1, behavior_of_pick pick)) picks)
         in
         let members = List.init k (fun i -> i + 1) in
         let run fusion =
           Executor.run ~fused:[ members ] ~fusion ~seed
             ~source:
               (Executor.source_of_fn ~count:200 (fun i ->
                    tuple [| float_of_int i /. 200.0 |]))
             ~registry t
         in
         let compiled = run `Compiled in
         let interpreted = run `Interpreted in
         compiled.Executor.consumed = interpreted.Executor.consumed
         && compiled.Executor.produced = interpreted.Executor.produced))

(* ------------------------------------------------------------------ *)
(* Stateful members: the inline hooks (Inline_fold / Inline_window) keep
   the closed loop available for chains containing keyed counters and
   sliding windows, with counts identical to the interpreted walk. *)

let stateful_chain () =
  let keys = Ss_prelude.Discrete.uniform 6 in
  let ops =
    [|
      Operator.make ~service_time:1e-7 "src";
      Operator.make ~service_time:1e-7 "pre";
      Operator.make
        ~kind:(Operator.Partitioned_stateful keys)
        ~service_time:1e-7 "count";
      Operator.make ~kind:Operator.Stateful ~input_selectivity:8.0
        ~service_time:1e-7 "wsum";
      Operator.make ~service_time:1e-7 "snk";
    |]
  in
  Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ]

let stateful_registry () =
  registry_of
    [
      (1, Stateless_ops.identity);
      (2, Join_ops.count_by_key ());
      ( 3,
        Window_ops.sum
          ~spec:{ Window_ops.length = 32; slide = 8; index = 0; per_key = false }
          () );
      (4, Stateless_ops.identity);
    ]

let test_stateful_chain_compiled_equals_interpreted () =
  let seed = 19 and tuples = 2500 in
  let run fusion =
    Executor.run
      ~fused:[ [ 1; 2; 3 ] ]
      ~fusion ~seed
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             Tuple.make ~ts:0.0 ~key:(i mod 6) ~tag:0 [| float_of_int i |]))
      ~registry:(stateful_registry ())
      (stateful_chain ())
  in
  let compiled = run `Compiled in
  let interpreted = run `Interpreted in
  Alcotest.(check bool) "compiled finished" true
    (compiled.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) "consumed, compiled = interpreted"
    interpreted.Executor.consumed compiled.Executor.consumed;
  Alcotest.(check (array int)) "produced, compiled = interpreted"
    interpreted.Executor.produced compiled.Executor.produced;
  (* the window fired: 2500 tuples through length 32 / slide 8 *)
  Alcotest.(check bool) "window fired" true (compiled.Executor.produced.(3) > 0)

(* ------------------------------------------------------------------ *)
(* Fission of a whole fused group: a linear group whose front operator is
   replicated deploys as emitter + staged workers + collector, with counts
   identical to the single-actor deployment and to the DES replay. *)

let replicated_identity_topology replicas =
  let ops =
    [|
      Operator.make ~service_time:1e-7 "src";
      Operator.make ~replicas ~service_time:1e-7 "a";
      Operator.make ~service_time:1e-7 "b";
      Operator.make ~service_time:1e-7 "c";
      Operator.make ~service_time:1e-7 "snk";
    |]
  in
  Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ]

let test_replicated_group_matches_replay () =
  let seed = 23 and tuples = 4000 in
  let group = [ 1; 2; 3 ] in
  let run fusion =
    Executor.run ~fused:[ group ] ~fusion ~seed
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             tuple [| float_of_int i |]))
      ~registry:(identity_registry [ 1; 2; 3; 4 ])
      (replicated_identity_topology 3)
  in
  let compiled = run `Compiled in
  let interpreted = run `Interpreted in
  let replay_consumed, replay_produced =
    Ss_sim.Engine.replay ~fused:[ group ] ~seed ~tuples
      (replicated_identity_topology 3)
  in
  Alcotest.(check bool) "compiled finished" true
    (compiled.Executor.outcome = Supervision.Finished);
  Alcotest.(check (array int)) "consumed, compiled = interpreted replicas"
    interpreted.Executor.consumed compiled.Executor.consumed;
  Alcotest.(check (array int)) "consumed, replicated = replay" replay_consumed
    compiled.Executor.consumed;
  Alcotest.(check (array int)) "produced, replicated = replay" replay_produced
    compiled.Executor.produced

let test_replicated_group_with_filter_matches_single () =
  (* A value-deterministic filter member: counts are replica-split
     invariant, so the fission deployment must reproduce the single-actor
     deployment exactly. *)
  let build replicas =
    let ops =
      [|
        Operator.make ~service_time:1e-7 "src";
        Operator.make ~replicas ~service_time:1e-7 "scale";
        Operator.make ~output_selectivity:0.5 ~service_time:1e-7 "filter";
        Operator.make ~service_time:1e-7 "snk";
      |]
    in
    Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let registry =
    registry_of
      [
        (1, Stateless_ops.scale ~factor:1.0);
        (2, Stateless_ops.threshold_filter ~index:0 ~threshold:0.5);
        (3, Stateless_ops.identity);
      ]
  in
  let seed = 29 and tuples = 3000 in
  let run replicas =
    Executor.run
      ~fused:[ [ 1; 2 ] ]
      ~fusion:`Compiled ~seed
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             tuple [| float_of_int i /. float_of_int tuples |]))
      ~registry (build replicas)
  in
  let single = run 1 in
  let fissioned = run 4 in
  Alcotest.(check (array int)) "consumed, fission = single"
    single.Executor.consumed fissioned.Executor.consumed;
  Alcotest.(check (array int)) "produced, fission = single"
    single.Executor.produced fissioned.Executor.produced;
  Alcotest.(check bool) "the filter dropped something" true
    (fissioned.Executor.produced.(2) < fissioned.Executor.consumed.(2))

let test_stateful_replicated_group_matches_single () =
  (* Keyed routing keeps every key's state on one worker even when the
     partitioned member is not the front: per-key results and per-vertex
     counts equal the single-actor deployment. *)
  let nkeys = 6 in
  let keys = Ss_prelude.Discrete.uniform nkeys in
  let build replicas =
    let ops =
      [|
        Operator.make ~service_time:1e-7 "src";
        Operator.make ~replicas ~service_time:1e-7 "pre";
        Operator.make
          ~kind:(Operator.Partitioned_stateful keys)
          ~service_time:1e-7 "count";
        Operator.make ~service_time:1e-7 "snk";
      |]
    in
    Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let seed = 31 and tuples = 3000 in
  let run replicas =
    let final = Hashtbl.create 16 in
    let final_m = Mutex.create () in
    let registry =
      registry_of
        [
          (1, Stateless_ops.identity);
          (2, Join_ops.count_by_key ());
          ( 3,
            Behavior.make ~name:"snk" (fun () ->
                fun (t : Tuple.t) ->
                  Mutex.lock final_m;
                  let k = t.Tuple.key in
                  let c = int_of_float (Tuple.value t 0) in
                  let prev =
                    Option.value ~default:0 (Hashtbl.find_opt final k)
                  in
                  Hashtbl.replace final k (max prev c);
                  Mutex.unlock final_m;
                  []) );
        ]
    in
    let m =
      Executor.run
        ~fused:[ [ 1; 2 ] ]
        ~fusion:`Compiled ~seed
        ~source:
          (Executor.source_of_fn ~count:tuples (fun i ->
               Tuple.make ~ts:0.0 ~key:(i mod nkeys) ~tag:0
                 [| float_of_int i |]))
        ~registry (build replicas)
    in
    (m, final)
  in
  let single, _ = run 1 in
  let fissioned, final = run 3 in
  Alcotest.(check (array int)) "consumed, keyed fission = single"
    single.Executor.consumed fissioned.Executor.consumed;
  Alcotest.(check (array int)) "produced, keyed fission = single"
    single.Executor.produced fissioned.Executor.produced;
  for k = 0 to nkeys - 1 do
    Alcotest.(check int)
      (Printf.sprintf "final count for key %d" k)
      (tuples / nkeys)
      (Option.value ~default:0 (Hashtbl.find_opt final k))
  done

(* ------------------------------------------------------------------ *)
(* Planner eligibility *)

let evented_passthrough =
  Behavior.make_evented ~name:"ev_pass" (fun () ->
      {
        Behavior.efn = (fun t -> [ t ]);
        on_watermark = (fun _ -> []);
        on_late = (fun _ -> []);
        eexport = (fun () -> []);
        eimport = (fun _ -> ());
      })

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1))
  in
  nl = 0 || go 0

let test_plan_rejects_evented () =
  let t =
    Topology.create_exn
      [|
        Operator.make ~service_time:1e-7 "src";
        Operator.make ~service_time:1e-7 "a";
        Operator.make ~service_time:1e-7 "b";
      |]
      [ (0, 1, 1.0); (1, 2, 1.0) ]
  in
  let registry =
    registry_of [ (1, Stateless_ops.identity); (2, evented_passthrough) ]
  in
  match Fused_compile.plan t ~members:[ 1; 2 ] ~registry with
  | Ok _ -> Alcotest.fail "expected the planner to decline an evented member"
  | Error msg ->
      Alcotest.(check bool)
        (Printf.sprintf "message names the evented member: %s" msg)
        true
        (contains ~needle:"evented" msg)

let test_plan_rejects_illegal_group () =
  (* Two entry points: front_end_of's legality error must surface. *)
  let t = Fixtures.diamond ~pa:0.5 ~t_src:0.1 ~t_a:0.1 ~t_b:0.1 ~t_sink:0.1 in
  let registry = identity_registry [ 1; 2; 3 ] in
  match Fused_compile.plan t ~members:[ 1; 2 ] ~registry with
  | Ok _ -> Alcotest.fail "expected the planner to decline two entry points"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Telemetry on the compiled tier: the staged loop is instrumented in
   place (local edge counters flushed on a cadence, latency/service
   samples on the interpreted 1-in-k schedule), so a telemetry run no
   longer forces the interpreted walk — and both modes must report the
   same counts, the same edge transfers, and the same histogram sample
   counts. *)

module H = Ss_telemetry.Histogram
module T = Ss_telemetry.Telemetry

let run_fig11_telemetry ~fusion ~sample ~seed ~tuples:count =
  Executor.run ~fused:[ fig11_group ] ~fusion ~seed
    ~instrument:
      {
        Executor.default_instrument with
        telemetry = true;
        telemetry_sample = sample;
      }
    ~source:
      (Executor.source_of_fn ~count (fun i -> tuple [| float_of_int i |]))
    ~registry:(identity_registry [ 1; 2; 3; 4; 5 ])
    (fig11_fast ())

let check_telemetry_parity ~n (compiled : Executor.metrics)
    (interpreted : Executor.metrics) =
  let ct = Option.get compiled.Executor.telemetry in
  let it = Option.get interpreted.Executor.telemetry in
  List.iter2
    (fun (u, v, c) (u', v', c') ->
      Alcotest.(check bool) "edge list shapes agree" true (u = u' && v = v');
      Alcotest.(check int)
        (Printf.sprintf "edge %d->%d transfers" u v)
        c' c)
    ct.T.edges it.T.edges;
  for v = 0 to n - 1 do
    Alcotest.(check int)
      (Printf.sprintf "vertex %d service samples" v)
      (H.count it.T.service.(v))
      (H.count ct.T.service.(v));
    Alcotest.(check int)
      (Printf.sprintf "vertex %d latency samples" v)
      (H.count it.T.latency.(v))
      (H.count ct.T.latency.(v))
  done

let test_telemetry_compiled_parity () =
  let seed = 13 and tuples = 1500 in
  let compiled =
    run_fig11_telemetry ~fusion:`Compiled ~sample:1 ~seed ~tuples
  in
  let interpreted =
    run_fig11_telemetry ~fusion:`Interpreted ~sample:1 ~seed ~tuples
  in
  Alcotest.(check (array int)) "consumed, compiled telemetry = interpreted"
    interpreted.Executor.consumed compiled.Executor.consumed;
  Alcotest.(check (array int)) "produced, compiled telemetry = interpreted"
    interpreted.Executor.produced compiled.Executor.produced;
  check_telemetry_parity ~n:6 compiled interpreted;
  (* sample=1 on identity members: every consumed tuple is timed *)
  let ct = Option.get compiled.Executor.telemetry in
  List.iter
    (fun v ->
      Alcotest.(check int)
        (Printf.sprintf "vertex %d timed every tuple" v)
        compiled.Executor.consumed.(v)
        (H.count ct.T.service.(v)))
    fig11_group

let test_telemetry_compiled_parity_sampled () =
  let seed = 37 and tuples = 1777 in
  let compiled =
    run_fig11_telemetry ~fusion:`Compiled ~sample:5 ~seed ~tuples
  in
  let interpreted =
    run_fig11_telemetry ~fusion:`Interpreted ~sample:5 ~seed ~tuples
  in
  check_telemetry_parity ~n:6 compiled interpreted

let test_telemetry_fission_parity () =
  (* Same contract inside a replicated fused group: each worker instruments
     its own staged loop; the merged report must match the interpreted
     deployment exactly. *)
  let seed = 41 and tuples = 2000 in
  let group = [ 1; 2; 3 ] in
  let run fusion =
    Executor.run ~fused:[ group ] ~fusion ~seed
      ~instrument:
        {
          Executor.default_instrument with
          telemetry = true;
          telemetry_sample = 3;
        }
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             tuple [| float_of_int i |]))
      ~registry:(identity_registry [ 1; 2; 3; 4 ])
      (replicated_identity_topology 3)
  in
  let compiled = run `Compiled in
  let interpreted = run `Interpreted in
  Alcotest.(check (array int)) "consumed, fission telemetry parity"
    interpreted.Executor.consumed compiled.Executor.consumed;
  check_telemetry_parity ~n:5 compiled interpreted;
  (* the chain's own edge counters cover internal and outgoing edges *)
  let ct = Option.get compiled.Executor.telemetry in
  List.iter
    (fun (u, v, c) ->
      Alcotest.(check int) (Printf.sprintf "edge %d->%d exact" u v) tuples c)
    ct.T.edges

(* ------------------------------------------------------------------ *)
(* Flush protocol: local counters drain to the shared sinks every
   [flush_every] tuples, at end-of-stream, and on failure. *)

let test_flush_on_eos_with_huge_budget () =
  (* A budget far above the stream length: only the end-of-stream flush
     can account for the counts and edge transfers. *)
  let seed = 43 and tuples = 800 in
  let m =
    Executor.run ~fused:[ fig11_group ] ~fusion:`Compiled ~seed
      ~flush_every:max_int
      ~instrument:
        { Executor.default_instrument with telemetry = true }
      ~source:
        (Executor.source_of_fn ~count:tuples (fun i ->
             tuple [| float_of_int i |]))
      ~registry:(identity_registry [ 1; 2; 3; 4; 5 ])
      (fig11_fast ())
  in
  let baseline = run_fig11 ~fusion:`Interpreted ~seed ~tuples in
  Alcotest.(check (array int)) "counts flushed at Eos"
    baseline.Executor.consumed m.Executor.consumed;
  let t = Option.get m.Executor.telemetry in
  let total_in_group =
    List.fold_left
      (fun acc (u, v, c) ->
        if List.mem u fig11_group || List.mem v fig11_group then acc + c
        else acc)
      0 t.T.edges
  in
  Alcotest.(check bool) "edge transfers flushed at Eos" true
    (total_in_group > 0)

let test_flush_on_failure () =
  (* The sink dies mid-stream; the fused actor is cancelled while holding
     unflushed local counters. Fun.protect must still drain them, so the
     failed run reports the work that actually happened. *)
  let ops =
    [|
      Operator.make ~service_time:1e-7 "src";
      Operator.make ~service_time:1e-7 "a";
      Operator.make ~service_time:1e-7 "b";
      Operator.make ~service_time:1e-7 "snk";
    |]
  in
  let t = Topology.create_exn ops [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ] in
  let registry =
    registry_of
      [
        (1, Stateless_ops.identity);
        (2, Stateless_ops.identity);
        ( 3,
          Behavior.make ~name:"bomb" (fun () ->
              let n = ref 0 in
              fun t ->
                incr n;
                if !n > 100 then failwith "sink bomb";
                [ t ]) );
      ]
  in
  let m =
    Executor.run
      ~fused:[ [ 1; 2 ] ]
      ~fusion:`Compiled ~flush_every:max_int ~seed:47
      ~source:
        (Executor.source_of_fn ~count:100000 (fun i ->
             tuple [| float_of_int i |]))
      ~registry t
  in
  Alcotest.(check bool) "run failed" true
    (match m.Executor.outcome with
    | Supervision.Actor_failed _ -> true
    | _ -> false);
  Alcotest.(check bool) "fused counts flushed despite the failure" true
    (m.Executor.consumed.(1) > 0 && m.Executor.consumed.(2) > 0)

let test_flush_every_validation () =
  Alcotest.check_raises "flush_every 0 rejected"
    (Invalid_argument "Executor.run: flush_every must be >= 1") (fun () ->
      ignore
        (Executor.run ~flush_every:0
           ~source:(Executor.source_of_fn ~count:1 (fun _ -> tuple [| 0.0 |]))
           ~registry:(identity_registry [ 1 ])
           (Topology.create_exn
              [|
                Operator.make ~service_time:1e-7 "src";
                Operator.make ~service_time:1e-7 "a";
              |]
              [ (0, 1, 1.0) ])))

(* ------------------------------------------------------------------ *)
(* Fallback paths: runs that cannot use the compiled tier must still
   report the same counts. *)

let test_mixed_groups_per_group_fallback () =
  (* Two fused groups in one run: [1;2] stages compiled, [3;4] contains an
     evented member so the planner declines it and only that group walks
     interpreted. Counts must equal the all-interpreted run. *)
  let build () =
    Topology.create_exn
      (Array.init 5 (fun v ->
           Operator.make ~service_time:1e-7
             (if v = 0 then "src" else Printf.sprintf "m%d" v)))
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0); (3, 4, 1.0) ]
  in
  let registry =
    registry_of
      [
        (1, Stateless_ops.identity);
        (2, Stateless_ops.scale ~factor:3.0);
        (3, Stateless_ops.identity);
        (4, evented_passthrough);
      ]
  in
  let run fusion =
    Executor.run
      ~fused:[ [ 1; 2 ]; [ 3; 4 ] ]
      ~fusion ~seed:17
      ~source:
        (Executor.source_of_fn ~count:800 (fun i ->
             tuple [| float_of_int i |]))
      ~registry (build ())
  in
  let mixed = run `Compiled in
  let interpreted = run `Interpreted in
  Alcotest.(check (array int)) "consumed, mixed = interpreted"
    interpreted.Executor.consumed mixed.Executor.consumed;
  Alcotest.(check (array int)) "produced, mixed = interpreted"
    interpreted.Executor.produced mixed.Executor.produced

(* ------------------------------------------------------------------ *)
(* Generated closed-loop fixture: the checked-in examples/generated_fig11
   program (emitted with --fusion closed-loop) must reproduce the exact
   per-vertex counts the DES replay predicts for its seed and stream. *)

let fixture_exe = "../examples/generated_fig11/fig11_pipeline.exe"

let test_generated_fixture_counts () =
  let ic = Unix.open_process_in fixture_exe in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  Alcotest.(check bool) "fixture exited cleanly" true
    (status = Unix.WEXITED 0);
  let consumed = Array.make 6 (-1) and produced = Array.make 6 (-1) in
  List.iter
    (fun line ->
      try
        Scanf.sscanf line "vertex %d: consumed %d, produced %d"
          (fun v c p ->
            consumed.(v) <- c;
            produced.(v) <- p)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> ())
    !lines;
  (* The fixture was generated from fig11_table1.xml with seed 42 over
     4000 tuples; Fixtures.table1 is the same topology. *)
  let replay_consumed, replay_produced =
    Ss_sim.Engine.replay ~fused:[ fig11_group ] ~seed:42 ~tuples:4000
      (Fixtures.table1 ())
  in
  Alcotest.(check (array int)) "fixture consumed = replay" replay_consumed
    consumed;
  Alcotest.(check (array int)) "fixture produced = replay" replay_produced
    produced

(* ------------------------------------------------------------------ *)
(* Compiled cost model (Algorithm 3 under the closed-loop tier) *)

let test_compiled_cost_below_interpreted () =
  let t = Fixtures.table1 () in
  let interpreted =
    Ss_core.Fusion.service_time t fig11_group |> Result.get_ok
  in
  let compiled =
    Ss_core.Fusion.service_time ~execution:`Compiled t fig11_group
    |> Result.get_ok
  in
  Alcotest.(check bool)
    (Printf.sprintf "compiled %.9f < interpreted %.9f" compiled interpreted)
    true (compiled < interpreted);
  (* The discount is floored: an absurd overhead can at most halve each
     member, so the compiled estimate is exactly half the interpreted one. *)
  let floored =
    Ss_core.Fusion.service_time ~execution:`Compiled ~dispatch_overhead:1.0 t
      fig11_group
    |> Result.get_ok
  in
  Alcotest.(check (float 1e-12)) "floor at half" (0.5 *. interpreted) floored

let test_stateful_discount_costing () =
  (* Stateful members shed only a fraction of the dispatch overhead: a
     chain with a stateful interior prices between the interpreted walk
     and the equivalent all-stateless compiled chain. *)
  let build kind =
    Topology.create_exn
      [|
        Operator.make ~service_time:1e-7 "src";
        Operator.make ~service_time:1e-4 "a";
        Operator.make ~kind ~service_time:1e-4 "b";
        Operator.make ~service_time:1e-4 "c";
      |]
      [ (0, 1, 1.0); (1, 2, 1.0); (2, 3, 1.0) ]
  in
  let members = [ 1; 2; 3 ] in
  let time ?stateful_discount ~execution t =
    Ss_core.Fusion.service_time ?stateful_discount ~execution t members
    |> Result.get_ok
  in
  let stateless = build Operator.Stateless in
  let stateful = build Operator.Stateful in
  let interp = time ~execution:`Interpreted stateful in
  let comp_stateful = time ~execution:`Compiled stateful in
  let comp_stateless = time ~execution:`Compiled stateless in
  Alcotest.(check (float 1e-15)) "interpreted ignores the kind"
    (time ~execution:`Interpreted stateless)
    interp;
  Alcotest.(check bool) "stateful compiled below interpreted" true
    (comp_stateful < interp);
  Alcotest.(check bool) "stateful discount smaller than stateless" true
    (comp_stateless < comp_stateful);
  (* the exact gap: (1 - discount) * overhead on the one stateful member *)
  Alcotest.(check (float 1e-15))
    "gap is (1 - discount) * overhead"
    ((1.0 -. Ss_core.Fusion.default_stateful_discount)
    *. Ss_core.Fusion.default_dispatch_overhead)
    (comp_stateful -. comp_stateless);
  (* discount 1.0 restores stateless pricing *)
  Alcotest.(check (float 1e-15)) "discount 1.0 = stateless pricing"
    comp_stateless
    (time ~stateful_discount:1.0 ~execution:`Compiled stateful)

let test_fig11_decision_no_worse_compiled () =
  (* Table 1: fusion is feasible interpreted; it must stay feasible — and
     price strictly lower — under the compiled tier. *)
  let t = Fixtures.table1 () in
  let outcome execution =
    Ss_core.Fusion.apply ~execution t fig11_group |> Result.get_ok
  in
  let interp = outcome `Interpreted and comp = outcome `Compiled in
  Alcotest.(check bool) "interpreted feasible" false
    interp.Ss_core.Fusion.creates_bottleneck;
  Alcotest.(check bool) "compiled stays feasible" false
    comp.Ss_core.Fusion.creates_bottleneck;
  Alcotest.(check bool) "compiled prices lower" true
    (comp.Ss_core.Fusion.fused_service_time
    < interp.Ss_core.Fusion.fused_service_time);
  Alcotest.(check bool) "throughput no worse" true
    (comp.Ss_core.Fusion.throughput_ratio
     >= interp.Ss_core.Fusion.throughput_ratio -. 1e-9)

(* ------------------------------------------------------------------ *)
(* Constant and small space: a compiled chain of [k] inline [scale]
   members allocates exactly its [k] output tuples — each a record plus
   its flat values array — and nothing else per input: no intermediate
   lists, no boxed routing draws, no per-tuple closures. *)

let test_compiled_chain_allocation () =
  List.iter
    (fun k ->
      let ops =
        Array.init (k + 2) (fun i ->
            Operator.make ~service_time:1e-7 (Printf.sprintf "v%d" i))
      in
      let t =
        Topology.create_exn ops (List.init (k + 1) (fun i -> (i, i + 1, 1.0)))
      in
      let members = List.init k (fun i -> i + 1) in
      let registry =
        registry_of
          (List.map (fun v -> (v, Stateless_ops.scale ~factor:1.5)) members)
      in
      let staged =
        match Fused_compile.plan t ~members ~registry with
        | Ok staged -> staged
        | Error e -> Alcotest.fail e
      in
      let last = ref (tuple [||]) in
      let n = Topology.size t in
      let inst =
        staged
          {
            Fused_compile.rng = Ss_prelude.Rng.create 1;
            consumed = Array.make n 0;
            produced = Array.make n 0;
            emit = (fun _ _ out -> last := out);
          }
      in
      let input = tuple [| 1.0; 2.0 |] in
      let tuples = 1000 in
      let run () =
        for _ = 1 to tuples do
          inst.Fused_compile.step input
        done
      in
      run ();
      let w0 = Gc.minor_words () in
      run ();
      let words = Gc.minor_words () -. w0 in
      let out = !last in
      let per_output =
        1 + Obj.size (Obj.repr out) + 1 + Obj.size (Obj.repr out.Tuple.values)
      in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "words per tuple, %d members" k)
        (float_of_int (k * per_output))
        (words /. float_of_int tuples))
    [ 1; 2; 4 ]

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  Alcotest.run "ss_fusion"
    [
      ( "differential",
        [
          quick "fig11: compiled = interpreted = replay"
            test_fig11_compiled_interpreted_replay;
          quick "supplied chain = staged chain"
            test_supplied_chain_matches_staged;
          test_random_chain_equivalence;
          quick "compiled chain allocates only its outputs"
            test_compiled_chain_allocation;
        ] );
      ( "stateful",
        [
          quick "stateful chain: compiled = interpreted"
            test_stateful_chain_compiled_equals_interpreted;
        ] );
      ( "fission",
        [
          quick "replicated group = single actor = replay"
            test_replicated_group_matches_replay;
          quick "replicated group with a filter = single actor"
            test_replicated_group_with_filter_matches_single;
          quick "keyed stateful group survives fission"
            test_stateful_replicated_group_matches_single;
        ] );
      ( "telemetry",
        [
          quick "compiled = interpreted, sample every tuple"
            test_telemetry_compiled_parity;
          quick "compiled = interpreted, 1-in-5 sampling"
            test_telemetry_compiled_parity_sampled;
          quick "parity inside fission replicas" test_telemetry_fission_parity;
        ] );
      ( "flush",
        [
          quick "end-of-stream flush with a huge budget"
            test_flush_on_eos_with_huge_budget;
          quick "failure flush drains local counters" test_flush_on_failure;
          quick "flush_every validation" test_flush_every_validation;
        ] );
      ( "planner",
        [
          quick "declines evented members" test_plan_rejects_evented;
          quick "declines illegal groups" test_plan_rejects_illegal_group;
        ] );
      ( "fallback",
        [
          quick "per-group fallback in mixed runs"
            test_mixed_groups_per_group_fallback;
        ] );
      ( "fixture",
        [ quick "generated closed loop matches replay" test_generated_fixture_counts ] );
      ( "cost model",
        [
          quick "compiled prices below interpreted"
            test_compiled_cost_below_interpreted;
          quick "stateful members earn a reduced discount"
            test_stateful_discount_costing;
          quick "fig11 decision unchanged-or-better"
            test_fig11_decision_no_worse_compiled;
        ] );
    ]
