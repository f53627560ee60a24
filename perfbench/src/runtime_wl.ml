(* The three runtime workloads: Fig. 11 in a closed loop and paced, and
   Fig. 11 fed from a durable log. Each repeats its job in rounds and
   reports medians over rounds; every round is verified after it ends,
   outside the timed region. *)

open Common
module Executor = Ss_runtime.Executor
module Log = Ss_log.Log
module Tuple_codec = Ss_log.Tuple_codec
module A1 = Bigarray.Array1

let workers = 2
let paced_rate = 20_000.0

(* A closed-loop round stops at its deadline or after this many tuples
   per second of round, whichever comes first (five times the rate seen
   on 2 cores); the buffers that record it are sized to match. *)
let closed_loop_rate_cap = 1e6

type round = {
  delivered : int;  (** Tuples the sink received. *)
  emitted : int;
  cpu : float;  (** Process CPU seconds across [Executor.run]. *)
  wall : float;
  setup : float;
  p50 : float;  (** Latency, ms. *)
  p99 : float;
  late_p50 : float;  (** Generator lateness, ms (0 in a closed loop). *)
  late_p99 : float;
  failed : int;
  metrics : Executor.metrics;
  minor_words : float;
  major_collections : int;
}

let cpu_us_per_tuple r = 1e6 *. r.cpu /. float_of_int (max 1 r.delivered)

type buffers = {
  record : Fig11.recorder;
  due : Stats.samples;  (** Due time per ordinal, then latency samples. *)
  late : Stats.samples;
}

let buffers ~cap ~seed ~ordinal_scale =
  { record = Fig11.recorder ~cap ~seed ~ordinal_scale; due = samples cap; late = samples cap }

let instrument trace =
  { Executor.sample_occupancy = trace; telemetry = trace; telemetry_sample = 32 }

(* A hung run fails the benchmark instead of stalling it. *)
let timeout = 120.0

let execute ~trace ~pool ~seed ?ingest ~source ~registry () =
  let g0 = Gc.quick_stat () and c0 = cpu () and t0 = now () in
  let m =
    Spans.record "Executor.run" (fun () ->
        Executor.run ?ingest ~fused:Fig11.fused ~scheduler:(`Pool pool) ~seed
          ~timeout ~instrument:(instrument trace) ~source ~registry
          Fig11.topology)
  in
  let c1 = cpu () and t1 = now () and g1 = Gc.quick_stat () in
  (m, c1 -. c0, t1 -. t0, g1.Gc.minor_words -. g0.Gc.minor_words,
   g1.Gc.major_collections - g0.Gc.major_collections)

(* Latency of every delivered tuple due at [after] or later, from its due
   time to its entry into op6, percentiles in ms. Latencies are
   steady-state: tuples due in a round's first moments wait behind a
   deployment still warming up, which [setup_s] already measures. The due
   buffer is overwritten with the samples. *)
let latencies b ~n ~after =
  let k = ref 0 in
  for i = 0 to n - 1 do
    if A1.get b.record.Fig11.seen i > 0 && A1.get b.due i >= after then begin
      A1.set b.due !k (A1.get b.record.Fig11.arrival i -. A1.get b.due i);
      incr k
    end
  done;
  (percentile_ms b.due !k 0.5, percentile_ms b.due !k 0.99)

let make_round ~delivered ~emitted ~setup ~latency:(p50, p99) ~late:(late_p50, late_p99)
    ~failed (metrics, cpu, wall, minor_words, major_collections) =
  { delivered; emitted; cpu; wall; setup; p50; p99; late_p50; late_p99; failed;
    metrics; minor_words; major_collections }

(* One Fig. 11 run from a generated source. Closed loop: tuple [i] is due
   when the executor pulls it, and the round ends [duration] seconds after
   the first pull. Paced: the program's own paced source,
   [Executor.source_throttled], emits tuple [i] [i / rate] seconds after
   its first pull; the tuple is due then, and carries that offset in
   [Tuple.ts]. The wrapper around it records how late each emission left. *)
let fig11_round b ~paced ~trace ~pool ~seed ~duration =
  let cap = b.record.Fig11.cap in
  Fig11.reset b.record cap;
  let emitted = ref 0 and first = ref Float.nan in
  let limit = if paced then min cap (int_of_float (paced_rate *. duration)) else cap in
  let source =
    if paced then begin
      let generate () =
        let i = !emitted in
        if i >= limit then None
        else begin
          if i = 0 then first := now ();
          A1.unsafe_set b.due i (Stats.due ~anchor:!first ~rate:paced_rate i);
          emitted := i + 1;
          Some (Fig11.input ~seed ~ts:(float_of_int i /. paced_rate) i)
        end
      in
      let throttled = Executor.source_throttled ~rate:paced_rate generate in
      fun () ->
        let t = throttled () in
        if Option.is_some t then begin
          let i = !emitted - 1 in
          A1.unsafe_set b.late i (now () -. A1.unsafe_get b.due i)
        end;
        t
    end
    else fun () ->
      let i = !emitted in
      let t = now () in
      if i = 0 then first := t;
      if i >= limit || t -. !first >= duration then None
      else begin
        A1.unsafe_set b.due i t;
        emitted := i + 1;
        Some (Fig11.input ~seed ~ts:(float_of_int i) i)
      end
  in
  let called = now () in
  let ((m, _, _, _, _) as run) =
    execute ~trace ~pool ~seed ~source ~registry:(Fig11.registry b.record) ()
  in
  let n = !emitted in
  let verdict = Fig11.verify b.record ~n in
  let miscounts =
    Fig11.count_mismatches ~seed ~n ~consumed:m.Executor.consumed verdict
  in
  let late = if paced then (percentile_ms b.late n 0.5, percentile_ms b.late n 0.99) else (0.0, 0.0) in
  make_round ~delivered:b.record.Fig11.delivered ~emitted:n ~setup:(!first -. called)
    ~latency:(latencies b ~n ~after:(!first +. (duration /. 10.0))) ~late ~failed:(verdict.Fig11.failed + miscounts) run

(* --- log ingest ------------------------------------------------------ *)

let partitions = 2
let batch = 64

let log_config = { Log.default_config with Log.partitions; fsync = Log.Every 256 }

let rec remove path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

type write_phase = {
  records : int;
  write_cpu : float;
  write_words : float;  (** Minor words allocated by the phase. *)
  encode_s : float;
  append_s : float;
  batch_latency : float * float;  (** p50, p99 of [append_batch], ms. *)
}

(* Encode the workload's tuples and append them, [batch] at a time per
   partition, to a fresh log. Each [append_batch] call is one latency
   sample: with [Every 256] one call in four per partition pays a fsync. *)
let write_phase ~seed ~dir ~records =
  remove dir;
  let lat = samples ((records / batch) + partitions + 1) in
  let c0 = cpu () and w0 = Gc.minor_words () in
  let log = Spans.record "Log.create" (fun () -> Log.create ~config:log_config dir) in
  let pending = Array.make partitions [] and counts = Array.make partitions 0 in
  let batches = ref 0 and encode_s = ref 0.0 and append_s = ref 0.0 in
  let flush p =
    if counts.(p) > 0 then begin
      let tuples = List.rev pending.(p) in
      let t0 = now () in
      let payloads =
        Spans.record ~count:counts.(p) "Tuple_codec.encode" (fun () ->
            List.map Tuple_codec.encode tuples)
      in
      let t1 = now () in
      ignore (Spans.record "Log.append_batch" (fun () -> Log.append_batch log ~partition:p payloads));
      let t2 = now () in
      A1.set lat !batches (t2 -. t1);
      incr batches;
      encode_s := !encode_s +. (t1 -. t0);
      append_s := !append_s +. (t2 -. t1);
      pending.(p) <- [];
      counts.(p) <- 0
    end
  in
  for i = 0 to records - 1 do
    let t = Fig11.input ~seed ~ts:(float_of_int i) i in
    let p = Log.partition_of_key log t.Ss_operators.Tuple.key in
    pending.(p) <- t :: pending.(p);
    counts.(p) <- counts.(p) + 1;
    if counts.(p) = batch then flush p
  done;
  for p = 0 to partitions - 1 do
    flush p
  done;
  Spans.record "Log.close" (fun () -> Log.close log);
  let write_cpu = cpu () -. c0 and write_words = Gc.minor_words () -. w0 in
  { records; write_cpu; write_words; encode_s = !encode_s; append_s = !append_s;
    batch_latency = (percentile_ms lat !batches 0.5, percentile_ms lat !batches 0.99) }

type ingest_round = {
  round : round;
  reopen : float;  (** Seconds in [Log.create] on the existing log. *)
  bytes : int;
}

(* Reopen the log and replay all of it through Fig. 11 for a fresh
   consumer group. Set-up runs from [Log.create] to the first behavior
   call. A record's latency runs from its entry into the first operator
   (op2 or op3; the reader that pulls it is inside the executor) to its
   entry into op6. Every partition's committed offset must reach its end. *)
let ingest_round b ~trace ~pool ~seed ~dir ~group ~records =
  Fig11.reset b.record records;
  let fired = Atomic.make false and first = ref Float.nan in
  let on_call t =
    let entry = now () in
    if (not (Atomic.get fired)) && Atomic.compare_and_set fired false true then
      first := entry;
    let i = Fig11.ordinal b.record t in
    if i >= 0 && i < records then A1.unsafe_set b.due i entry
  in
  let called = now () in
  let log = Spans.record "Log.create" (fun () -> Log.create dir) in
  let reopen = now () -. called in
  let run =
    execute ~trace ~pool ~seed
      ~ingest:(Executor.ingest ~group log)
      ~source:(fun () -> None)
      ~registry:(Fig11.registry ~on_call b.record)
      ()
  in
  let uncommitted = ref 0 in
  for p = 0 to partitions - 1 do
    uncommitted :=
      !uncommitted
      + abs (Log.end_offset log ~partition:p - Log.committed log ~group ~partition:p)
  done;
  let bytes = Log.size_bytes log in
  Log.close log;
  let verdict = Fig11.verify b.record ~n:records in
  let round =
    make_round ~delivered:b.record.Fig11.delivered ~emitted:records
      ~setup:(!first -. called) ~latency:(latencies b ~n:records ~after:(!first +. 0.1)) ~late:(0.0, 0.0)
      ~failed:(verdict.Fig11.failed + !uncommitted) run
  in
  { round; reopen; bytes }

(* A standalone pass over the log through its public read path: every
   record read and decoded, and the position committed every 16 reads. *)
let read_pass ~dir ~records =
  let log = Log.create dir in
  let t0 = now () in
  let commits = ref [] in
  for p = 0 to partitions - 1 do
    let cursor = ref 0 and reads = ref 0 in
    let continue = ref true in
    while !continue do
      match Spans.record "Log.read" (fun () -> Log.read log ~partition:p ~from:!cursor ()) with
      | [] -> continue := false
      | batch ->
          Spans.record ~count:(List.length batch) "Tuple_codec.decode" (fun () ->
              List.iter (fun (off, payload) ->
                  ignore (Tuple_codec.decode payload);
                  cursor := off + 1) batch);
          incr reads;
          if !reads mod 16 = 0 then begin
            let c0 = now () in
            Spans.record "Log.commit" (fun () ->
                Log.commit log ~group:"perfbench-read-pass" ~partition:p !cursor);
            commits := (now () -. c0) :: !commits
          end
    done
  done;
  let elapsed = now () -. t0 in
  let commit_s = List.fold_left ( +. ) 0.0 !commits in
  Log.close log;
  (* Commits are excluded from the per-record read cost. *)
  ((elapsed -. commit_s) /. float_of_int records,
   Stats.median (Array.of_list (if !commits = [] then [ 0.0 ] else !commits)))

(* --- single-domain baselines ----------------------------------------- *)

(* Table 1's fused group {op3, op4, op5} driven directly on this domain,
   through both instances the executor can deploy: the compiled loop
   ([Fused_compile.plan]) and the Algorithm 4 walk ([interpret]). Emitted
   tuples are dropped; both see the same inputs in the same order. *)
let fused_drive ~seed ~tuples =
  let members = List.hd Fig11.fused in
  let registry = Fig11.catalog in
  let plan_times =
    Array.init 20 (fun _ ->
        let t0 = now () in
        ignore
          (Spans.record "Fused_compile.plan" (fun () ->
               Ss_runtime.Fused_compile.plan Fig11.topology ~members ~registry));
        now () -. t0)
  in
  let inputs = Array.init 4096 (fun i -> Fig11.input ~seed ~ts:(float_of_int i) i) in
  let drive name staged =
    let staged = match staged with Ok s -> s | Error e -> failwith (name ^ ": " ^ e) in
    let n = Ss_topology.Topology.size Fig11.topology in
    let env =
      {
        Ss_runtime.Fused_compile.rng = Ss_prelude.Rng.create seed;
        consumed = Array.make n 0;
        produced = Array.make n 0;
        emit = (fun _ _ _ -> ());
      }
    in
    let inst = staged env in
    let c0 = cpu () in
    Spans.record ~count:tuples name (fun () ->
        for i = 0 to tuples - 1 do
          inst.Ss_runtime.Fused_compile.step inputs.(i land 4095)
        done);
    1e9 *. (cpu () -. c0) /. float_of_int tuples
  in
  let pair () =
    let compiled =
      Spans.record "Fused_compile.plan" (fun () ->
          Ss_runtime.Fused_compile.plan Fig11.topology ~members ~registry)
    and interpreted =
      Spans.record "Fused_compile.interpret" (fun () ->
          Ss_runtime.Fused_compile.interpret Fig11.topology ~members ~registry)
    in
    (drive "Fused_compile.plan.step" compiled, drive "Fused_compile.interpret.step" interpreted)
  in
  let pairs = Array.init 3 (fun _ -> pair ()) in
  [
    ("fused.plan_us", 1e6 *. Stats.median plan_times);
    ("fused.compiled_ns_per_tuple", Stats.median (Array.map fst pairs));
    ("fused.interpreted_ns_per_tuple", Stats.median (Array.map snd pairs));
  ]

(* --- per-layer numbers from a traced round ---------------------------- *)

(* Per-vertex metrics; [from] skips the vertices where a metric is zero
   by definition (the source consumes nothing and has no service time or
   entry mailbox). *)
let op_metric ?(from = 0) prefix f =
  List.filteri (fun v _ -> v >= from)
    (Array.to_list (Array.mapi (fun v name -> (prefix ^ name, f v)) Fig11.names))

let layer_metrics (r : round) =
  let m = r.metrics in
  let report =
    match m.Executor.telemetry with
    | Some rep -> rep
    | None -> failwith "traced round returned no telemetry"
  in
  let service v = report.Ss_telemetry.Telemetry.service.(v) in
  let busy =
    Array.fold_left ( +. ) 0.0
      (Array.mapi
         (fun v c ->
           if v = 0 then 0.0
           else float_of_int c *. Ss_telemetry.Histogram.mean (service v))
         m.Executor.consumed)
  in
  op_metric "exec.blocked_s." (fun v -> m.Executor.blocked.(v))
  @ op_metric ~from:1 "exec.occupancy." (fun v -> m.Executor.occupancy.(v))
  @ op_metric ~from:1 "exec.consumed." (fun v -> float_of_int m.Executor.consumed.(v))
  @ op_metric ~from:1 "op.service_us_p50." (fun v ->
        1e6 *. Ss_telemetry.Histogram.percentile (service v) 0.5)
  @ [
      ("exec.cpu_util", r.cpu /. (r.wall *. float_of_int workers));
      ("exec.wall_tuples_per_s", float_of_int r.delivered /. r.wall);
      ("op.busy_share", busy /. r.cpu);
    ]

(* Algorithm 1 on the measured twin of the traced round, over the rate
   the round actually sustained. *)
let pred_over_meas (r : round) =
  let m = r.metrics in
  match m.Executor.telemetry with
  | None -> 0.0
  | Some report ->
      let twin =
        Ss_telemetry.Telemetry.measured_topology Fig11.topology
          ~consumed:m.Executor.consumed ~produced:m.Executor.produced report
      in
      (Ss_core.Steady_state.analyze twin).Ss_core.Steady_state.throughput
      /. (float_of_int r.emitted /. r.wall)

(* --- workloads -------------------------------------------------------- *)

(* Over rounds, each metric takes the quantile that a burst of
   interference from elsewhere on the host (vCPU steal) cannot reach
   unless it hits nearly every round of a run. Such a burst only adds to
   a round's latency, so latency is the lower decile of the rounds' p50s.
   It lets queued tuples batch up, so fewer activations share the tuples
   and a round allocates less per tuple: allocation is the upper decile.
   CPU per tuple moves both ways (cache contention raises it, batching
   lowers it), so it takes the median. *)
let summary rounds_ =
  let words = quantile_of 0.9 (fun r -> r.minor_words /. float_of_int (max 1 r.delivered)) rounds_ in
  [
    ("latency_p50_ms", quantile_of 0.1 (fun r -> r.p50) rounds_);
    ("latency.p99_ms", median_of (fun r -> r.p99) rounds_);
    ("cpu_us_per_item", median_of cpu_us_per_tuple rounds_);
    ("alloc_words_per_item", words);
    ("gc.minor_words_per_tuple", words);
    ("gc.major_collections", median_of (fun r -> float_of_int r.major_collections) rounds_);
  ]

let failures rounds_ = List.fold_left (fun acc r -> acc + r.failed) 0 rounds_
let attempted rounds_ = List.fold_left (fun acc r -> acc + r.emitted) 0 rounds_

let rounds = 20

(* Set-up alone: the same deployment with a source that ends at its first
   pull, timed from the [Executor.run] call to that pull. A probe must
   consume nothing; every tuple a vertex consumed counts as failed. *)
let setup_probe ~seed =
  let first = ref Float.nan in
  let called = now () in
  let m, _, _, _, _ =
    execute ~trace:false ~pool:workers ~seed
      ~source:(fun () -> first := now (); None)
      ~registry:Fig11.catalog ()
  in
  (!first -. called, Array.fold_left ( + ) 0 m.Executor.consumed)

(* Set-up takes about a millisecond and spreads widely from one deployment
   to the next, so each timed round is followed by this many probes.
   Steal only adds to a probe's time: [setup_s] is their lower decile. *)
let probes_per_round = 5

let fig11 ~paced ~seed ~seconds ~trace =
  let duration = seconds /. float_of_int rounds in
  let cap =
    int_of_float ((if paced then paced_rate else closed_loop_rate_cap) *. duration) + 1
  in
  let b =
    buffers ~cap ~seed ~ordinal_scale:(if paced then paced_rate else 1.0)
  in
  let round ?(pool = workers) ~trace duration =
    fig11_round b ~paced ~trace ~pool ~seed ~duration
  in
  (* Warm-up: lazy set-up and first-touch costs stay out of the medians. *)
  let warm = round ~trace:false (Float.min 0.2 duration) in
  let probes = ref [] in
  let timed =
    List.init (if trace then rounds / 2 else rounds) (fun _ ->
        let r = round ~trace:false duration in
        for _ = 1 to probes_per_round do
          probes := setup_probe ~seed :: !probes
        done;
        r)
  in
  let probe_failures = List.fold_left (fun acc (_, f) -> acc + f) 0 !probes in
  let e2e =
    summary timed
    @ [
        ("setup_s", quantile_of 0.1 fst !probes);
        ("source.late_p50_ms", median_of (fun r -> r.late_p50) timed);
        ("source.late_p99_ms", median_of (fun r -> r.late_p99) timed);
        ("gc.peak_heap_mb", peak_heap_mb ());
      ]
  in
  let all = warm :: timed in
  if not trace then
    { attempted = attempted all; failed = failures all + probe_failures; metrics = e2e }
  else begin
    let traced = List.init (rounds / 2) (fun _ -> round ~trace:true duration) in
    let baseline = round ~pool:1 ~trace:false (Float.min 1.0 duration) in
    let last = List.nth traced ((rounds / 2) - 1) in
    let untraced_cpu = median_of cpu_us_per_tuple timed in
    let all = all @ traced @ [ baseline ] in
    {
      attempted = attempted all;
      failed = failures all + probe_failures;
      metrics =
        e2e @ layer_metrics last
        @ fused_drive ~seed ~tuples:200_000
        @ [
            ("baseline.pool1_cpu_us_per_tuple", cpu_us_per_tuple baseline);
            ("telemetry.overhead_pct",
             100.0 *. (median_of cpu_us_per_tuple traced -. untraced_cpu) /. untraced_cpu);
            ("model.pred_over_meas", if paced then 0.0 else pred_over_meas last);
          ];
    }
  end

(* Records per second of --seconds: sized so the write phase and the
   replays fill the run. *)
let records_per_second = 10_000
let replays = 10

let log_ingest ~seed ~seconds ~trace =
  let records = records_per_second * int_of_float (Float.ceil seconds) in
  let dir = Filename.concat ".perfbench" (Printf.sprintf "log-%d" (Unix.getpid ())) in
  (try Unix.mkdir ".perfbench" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  Fun.protect ~finally:(fun () -> remove dir) @@ fun () ->
  let w = write_phase ~seed ~dir ~records in
  let b = buffers ~cap:records ~seed ~ordinal_scale:1.0 in
  let group = ref 0 in
  let round ?(pool = workers) ~trace () =
    incr group;
    ingest_round b ~trace ~pool ~seed ~dir ~group:(Printf.sprintf "round%d" !group) ~records
  in
  let timed = List.init replays (fun _ -> round ~trace:false ()) in
  let rounds_ = List.map (fun r -> r.round) timed in
  let read_cpu = median_of cpu_us_per_tuple rounds_ in
  let append_cpu = 1e6 *. w.write_cpu /. float_of_int records in
  (* An item is a record's whole path: encode and append, then read,
     decode, Fig. 11 and commit. *)
  let write_words = w.write_words /. float_of_int records in
  let e2e =
    ("setup_s", quantile_of 0.1 (fun r -> r.setup) rounds_)
    :: summary rounds_
    |> List.map (fun (k, v) ->
           match k with
           | "cpu_us_per_item" -> (k, v +. append_cpu)
           | "alloc_words_per_item" -> (k, v +. write_words)
           | _ -> (k, v))
  in
  let e2e =
    e2e
    @ [
        ("log.append_p50_ms", fst w.batch_latency);
        ("log.append_p99_ms", snd w.batch_latency);
        ("gc.peak_heap_mb", peak_heap_mb ());
        ("log.append_cpu_us_per_record", append_cpu);
        ("log.read_cpu_us_per_record", read_cpu);
      ]
  in
  if not trace then
    { attempted = attempted rounds_; failed = failures rounds_; metrics = e2e }
  else begin
    let traced = round ~trace:true () in
    let baseline = round ~pool:1 ~trace:false () in
    let read_decode, commit = read_pass ~dir ~records in
    let all = rounds_ @ [ traced.round; baseline.round ] in
    {
      attempted = attempted all;
      failed = failures all;
      metrics =
        e2e @ layer_metrics traced.round
        @ fused_drive ~seed ~tuples:200_000
        @ [
            ("baseline.pool1_cpu_us_per_tuple", cpu_us_per_tuple baseline.round);
            ("telemetry.overhead_pct",
             100.0 *. (cpu_us_per_tuple traced.round -. read_cpu) /. read_cpu);
            ("log.encode_ns_per_record", 1e9 *. w.encode_s /. float_of_int records);
            ("log.append_wall_us_per_record", 1e6 *. w.append_s /. float_of_int records);
            ("log.read_decode_ns_per_record", 1e9 *. read_decode);
            ("log.commit_ms", 1e3 *. commit);
            ("log.reopen_ms", 1e3 *. median_of (fun r -> r.reopen) timed);
            ("log.bytes_per_record", float_of_int traced.bytes /. float_of_int records);
          ];
    }
  end
