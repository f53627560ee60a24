(* Scheduler-core tests: the Chase–Lev lock-free pool and the retained
   locked baseline, exercised directly (without the executor) through
   spawn/suspend/resume/yield storms across worker counts and group
   shapes. The invariants under test: every spawned task runs exactly
   once (no lost or double-run tasks), even when resumes come twice or
   stale; the pool drains; the first error propagates out of [run];
   group validation; the prompt-finish tick contract; fair yields; and
   a park/resume cycle that allocates only what [perform] makes. *)

module Sched = Ss_sched.Sched

(* A wedged scheduler would hang the test binary (workers parked forever,
   [run] never returns); the watchdog turns that into a prompt exit. *)
let with_watchdog ?(limit = 60.0) f =
  let result = Atomic.make None in
  let d =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  let t0 = Unix.gettimeofday () in
  let rec wait () =
    match Atomic.get result with
    | Some r -> (
        Domain.join d;
        match r with Ok v -> v | Error e -> raise e)
    | None ->
        if Unix.gettimeofday () -. t0 > limit then begin
          prerr_endline "watchdog: scheduler hung; killing test binary";
          Unix._exit 125
        end;
        Unix.sleepf 0.01;
        wait ()
  in
  wait ()

(* External resume source: a domain that fires registered wakeups from
   outside the pool, exercising the injection path and the parked-worker
   wakeup protocol. *)
let with_firer f =
  let q = Queue.create () in
  let m = Mutex.create () in
  let stop = Atomic.make false in
  let push resume =
    Mutex.lock m;
    Queue.push resume q;
    Mutex.unlock m
  in
  let d =
    Domain.spawn (fun () ->
        let rec loop () =
          let r =
            Mutex.lock m;
            let r = Queue.take_opt q in
            Mutex.unlock m;
            r
          in
          match r with
          | Some resume ->
              resume ();
              loop ()
          | None ->
              if not (Atomic.get stop) then begin
                Unix.sleepf 0.0005;
                loop ()
              end
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f push)

let impls = [ ("lockfree", `Lockfree); ("locked", `Locked) ]

(* ------------------------------------------------------------------ *)
(* Shape and validation *)

let test_shape_validation () =
  List.iter
    (fun (_, impl) ->
      Alcotest.check_raises "empty groups" (Invalid_argument
        "Sched.create: groups must be non-empty") (fun () ->
          ignore (Sched.create ~groups:[||] ~impl ()));
      Alcotest.check_raises "zero-sized group" (Invalid_argument
        "Sched.create: every group needs at least one worker") (fun () ->
          ignore (Sched.create ~groups:[| 2; 0 |] ~impl ()));
      Alcotest.check_raises "workers <> sum of groups" (Invalid_argument
        "Sched.create: workers must equal the sum of groups") (fun () ->
          ignore (Sched.create ~workers:4 ~groups:[| 2; 1 |] ~impl ()));
      Alcotest.check_raises "workers < 1" (Invalid_argument
        "Sched.create: workers must be >= 1") (fun () ->
          ignore (Sched.create ~workers:0 ~impl ()));
      let t = Sched.create ~groups:[| 2; 1 |] ~impl () in
      Alcotest.(check int) "workers = sum of groups" 3 (Sched.workers t);
      Alcotest.(check (array int)) "groups reported" [| 2; 1 |] (Sched.groups t);
      Alcotest.check_raises "spawn group out of range" (Invalid_argument
        "Sched.spawn: group out of range") (fun () ->
          Sched.spawn ~group:2 t (fun () -> ()));
      let ungrouped = Sched.create ~workers:2 ~impl () in
      Alcotest.(check (array int))
        "default shape is one group" [| 2 |] (Sched.groups ungrouped))
    impls

(* ------------------------------------------------------------------ *)
(* Exactly-once execution *)

let run_counting ~impl ~workers ?groups ~tasks body_of =
  let cells = Array.init tasks (fun _ -> Atomic.make 0) in
  let pool = Sched.create ~workers ?groups ~impl () in
  for i = 0 to tasks - 1 do
    let group =
      match groups with Some gs -> Some (i mod Array.length gs) | None -> None
    in
    Sched.spawn ?group pool (fun () ->
        body_of i;
        Atomic.incr cells.(i))
  done;
  with_watchdog (fun () -> Sched.run pool);
  Array.iteri
    (fun i c ->
      Alcotest.(check int) (Printf.sprintf "task %d ran exactly once" i) 1
        (Atomic.get c))
    cells

let test_basic_drain () =
  List.iter
    (fun (_, impl) ->
      List.iter
        (fun workers ->
          run_counting ~impl ~workers ~tasks:64 (fun _ -> ()))
        [ 1; 2; 4 ])
    impls

let test_deque_growth () =
  (* 500 initial tasks on a single worker overflow the 64-slot initial
     ring several times; every yield re-enqueues through the grown
     buffer. *)
  List.iter
    (fun (_, impl) ->
      run_counting ~impl ~workers:1 ~tasks:500 (fun _ ->
          for _ = 1 to 3 do
            Sched.yield ()
          done))
    impls

let test_grouped_drain () =
  List.iter
    (fun (_, impl) ->
      run_counting ~impl ~workers:3 ~groups:[| 2; 1 |] ~tasks:100 (fun _ ->
          Sched.yield ()))
    impls

let test_nested_spawn () =
  (* Tasks spawned from inside running tasks (inheriting the spawning
     worker's group) must also run exactly once. *)
  List.iter
    (fun (_, impl) ->
      let children = 40 in
      let cells = Array.init children (fun _ -> Atomic.make 0) in
      let pool = Sched.create ~workers:2 ~groups:[| 1; 1 |] ~impl () in
      Sched.spawn pool (fun () ->
          for i = 0 to children - 1 do
            Sched.spawn pool (fun () ->
                Sched.yield ();
                Atomic.incr cells.(i))
          done);
      with_watchdog (fun () -> Sched.run pool);
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "child %d ran exactly once" i)
            1 (Atomic.get c))
        cells)
    impls

(* ------------------------------------------------------------------ *)
(* Suspension across domains: mass-park then external wakeups, the
   worst case for the wake-one protocol (a lost wakeup deadlocks). *)

let test_external_resume_storm () =
  List.iter
    (fun (_, impl) ->
      with_firer (fun fire ->
          run_counting ~impl ~workers:4 ~groups:[| 2; 2 |] ~tasks:100
            (fun _ ->
              for _ = 1 to 2 do
                Sched.suspend ~register:(fun resume ->
                    fire resume;
                    true)
              done)))
    impls

let test_register_false_continues () =
  List.iter
    (fun (_, impl) ->
      run_counting ~impl ~workers:2 ~tasks:10 (fun _ ->
          (* The awaited condition already holds: the task continues
             without parking. *)
          Sched.suspend ~register:(fun _resume -> false)))
    impls

(* ------------------------------------------------------------------ *)
(* Error propagation: [run] re-raises the first escaping exception after
   the pool drains, and the other tasks still complete. *)

let test_error_propagation () =
  List.iter
    (fun (_, impl) ->
      let ran = Array.init 20 (fun _ -> Atomic.make 0) in
      let pool = Sched.create ~workers:2 ~impl () in
      for i = 0 to 19 do
        Sched.spawn pool (fun () ->
            Sched.yield ();
            Atomic.incr ran.(i);
            if i = 7 then failwith "storm")
      done;
      (match with_watchdog (fun () -> Sched.run pool) with
      | () -> Alcotest.fail "expected run to re-raise the task error"
      | exception Failure msg ->
          Alcotest.(check string) "first error propagated" "storm" msg);
      Array.iteri
        (fun i c ->
          Alcotest.(check int)
            (Printf.sprintf "task %d still ran" i)
            1 (Atomic.get c))
        ran)
    impls

(* ------------------------------------------------------------------ *)
(* Prompt finish under ?tick: the pool completing must interrupt the
   tick sleep instead of waiting out the full interval. *)

let test_tick_prompt_finish () =
  List.iter
    (fun (name, impl) ->
      let pool = Sched.create ~workers:2 ~impl () in
      let ticks = ref 0 in
      (* Long enough that the runner reaches the tick loop while the pool
         is still busy (so [fn] observably runs), far shorter than the
         interval (so a prompt return proves the sleep was interrupted). *)
      Sched.spawn pool (fun () -> Unix.sleepf 0.1);
      let t0 = Unix.gettimeofday () in
      with_watchdog (fun () ->
          Sched.run ~tick:(5.0, fun () -> incr ticks) pool);
      let elapsed = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "%s: finish interrupts the 5s tick (took %.3fs)" name
           elapsed)
        true (elapsed < 2.5);
      Alcotest.(check bool) "tick ran at least once" true (!ticks >= 1))
    impls

(* ------------------------------------------------------------------ *)
(* Fair yield: a yielding task goes behind the worker's other runnable
   tasks, so on one worker a task that spawns a peer and then yields in
   a loop alternates with it. *)

let test_yield_interleaves () =
  List.iter
    (fun (name, impl) ->
      let trace = Buffer.create 16 in
      let pool = Sched.create ~workers:1 ~impl () in
      let body c () =
        for _ = 1 to 4 do
          Buffer.add_char trace c;
          Sched.yield ()
        done
      in
      Sched.spawn pool (fun () ->
          Sched.spawn pool (body 'B');
          body 'A' ());
      with_watchdog (fun () -> Sched.run pool);
      Alcotest.(check string)
        (name ^ ": yields alternate") "ABABABAB" (Buffer.contents trace))
    impls

(* ------------------------------------------------------------------ *)
(* Allocation: on one worker, after a warm-up, a park/resume cycle
   allocates only the effect value and the continuation block that
   [perform] makes (5 words), and a worker's sleep and wakeup allocate
   nothing on top. Every closure the cycles use is made before the
   count starts; [Gc.minor_words] counts this domain only. *)

let cycle_bound = 5.0

(* Words allocated per [cycle ()] on the pool's single worker. *)
let words_per_cycle impl cycle =
  let cycles = 200 in
  let words = ref nan in
  let pool = Sched.create ~workers:1 ~impl () in
  Sched.spawn pool (fun () ->
      for _ = 1 to 20 do
        cycle ()
      done;
      let w0 = Gc.minor_words () in
      for _ = 1 to cycles do
        cycle ()
      done;
      words := (Gc.minor_words () -. w0) /. float_of_int cycles);
  with_watchdog (fun () -> Sched.run pool);
  !words

let check_cycle name words =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f words per cycle (at most %.0f)" name words
       cycle_bound)
    true (words <= cycle_bound)

let test_suspend_allocation () =
  List.iter
    (fun (name, impl) ->
      let fires_at_once resume =
        resume ();
        true
      in
      let refuses _ = false in
      check_cycle (name ^ " register fires at once")
        (words_per_cycle impl (fun () ->
             Sched.suspend ~register:fires_at_once));
      check_cycle (name ^ " register returns false")
        (words_per_cycle impl (fun () -> Sched.suspend ~register:refuses)))
    impls

(* The resume is handed to another domain, which fires it after a pause
   long enough for the worker to run out of work and sleep; the resume's
   enqueue and wakeup allocate on that domain, the worker's rescan and
   pickup on the worker. *)
let test_sleep_wake_allocation () =
  List.iter
    (fun (name, impl) ->
      let none () = () in
      let handoff = Atomic.make none and stop = Atomic.make false in
      let firer =
        Domain.spawn (fun () ->
            while not (Atomic.get stop) do
              let resume = Atomic.exchange handoff none in
              if resume != none then begin
                Unix.sleepf 0.0002;
                resume ()
              end
              else Domain.cpu_relax ()
            done)
      in
      let hand_off resume =
        Atomic.set handoff resume;
        true
      in
      let words =
        Fun.protect
          ~finally:(fun () ->
            Atomic.set stop true;
            Domain.join firer)
          (fun () ->
            words_per_cycle impl (fun () -> Sched.suspend ~register:hand_off))
      in
      check_cycle (name ^ " park, sleep and wake") words)
    impls

(* ------------------------------------------------------------------ *)
(* Randomized storms: arbitrary mixes of yields, immediate suspends,
   externally-resumed suspends and nested spawns over random worker
   counts and group shapes — exactly-once execution and drain must hold
   for both implementations. *)

type script = { yields : int; suspends : int; immediates : int; children : int }

let script_gen =
  QCheck.Gen.(
    map
      (fun (yields, suspends, immediates, children) ->
        { yields; suspends; immediates; children })
      (quad (int_bound 3) (int_bound 2) (int_bound 1) (int_bound 2)))

let shape_gen =
  (* (workers, groups option): group sizes always sum to workers. *)
  QCheck.Gen.(
    int_range 1 4 >>= fun workers ->
    oneof
      [
        return (workers, None);
        ( int_range 1 workers >>= fun ngroups ->
          let sizes = Array.make ngroups 1 in
          let rec distribute k gen =
            if k = 0 then return sizes
            else
              int_bound (ngroups - 1) >>= fun g ->
              sizes.(g) <- sizes.(g) + 1;
              distribute (k - 1) gen
          in
          map (fun sizes -> (workers, Some sizes)) (distribute (workers - ngroups) ()) );
      ])

let storm_case impl =
  QCheck.Test.make ~count:25
    ~name:
      (Printf.sprintf "storm: exactly-once execution and drain (%s)"
         (match impl with `Lockfree -> "lockfree" | `Locked -> "locked"))
    (QCheck.make
       QCheck.Gen.(pair shape_gen (list_size (int_range 1 40) script_gen)))
    (fun ((workers, groups), scripts) ->
      let n = List.length scripts in
      let total_children =
        List.fold_left (fun acc s -> acc + s.children) 0 scripts
      in
      let cells = Array.init n (fun _ -> Atomic.make 0) in
      let child_cells = Array.init (max 1 total_children) (fun _ -> Atomic.make 0) in
      let next_child = Atomic.make 0 in
      with_firer (fun fire ->
          let pool = Sched.create ~workers ?groups ~impl () in
          let ngroups = Array.length (Sched.groups pool) in
          List.iteri
            (fun i s ->
              Sched.spawn ~group:(i mod ngroups) pool (fun () ->
                  for _ = 1 to s.yields do
                    Sched.yield ()
                  done;
                  for _ = 1 to s.immediates do
                    Sched.suspend ~register:(fun _ -> false)
                  done;
                  for _ = 1 to s.suspends do
                    Sched.suspend ~register:(fun resume ->
                        fire resume;
                        true)
                  done;
                  for c = 1 to s.children do
                    let slot = Atomic.fetch_and_add next_child 1 in
                    Sched.spawn
                      ~group:((i + c) mod ngroups)
                      pool
                      (fun () ->
                        Sched.yield ();
                        Atomic.incr child_cells.(slot))
                  done;
                  Atomic.incr cells.(i)))
            scripts;
          with_watchdog (fun () -> Sched.run pool));
      Array.for_all (fun c -> Atomic.get c = 1) cells
      && Array.for_all (fun c -> Atomic.get c = 1)
           (Array.sub child_cells 0 total_children))

(* Stale and duplicate resumes: a registration may call [resume] twice,
   call it and then return [false], or hand it to a firer that fires it
   once promptly and once more later — by then the task may have parked
   again, run on, or finished. A resume is only a wakeup hint: every task
   still finishes exactly once, no continuation is resumed twice (which
   would raise out of [run]), and no park is left without a wakeup (the
   watchdog would fire). *)

type stale_op = Twice_now | Now_then_false | Fired_twice | Yield_op

let stale_op_gen =
  QCheck.Gen.oneofl [ Twice_now; Now_then_false; Fired_twice; Yield_op ]

(* Fires each handed-off resume at once, then once more after a later
   hand-off (or on its own when the queue runs dry). *)
let with_double_firer f =
  let fresh = Queue.create () and stale = Queue.create () in
  let m = Mutex.create () in
  let stop = Atomic.make false in
  let push resume =
    Mutex.lock m;
    Queue.push resume fresh;
    Mutex.unlock m
  in
  let take () =
    Mutex.lock m;
    let r =
      match Queue.take_opt fresh with
      | Some r ->
          Queue.push r stale;
          Some r
      | None -> Queue.take_opt stale
    in
    Mutex.unlock m;
    r
  in
  let d =
    Domain.spawn (fun () ->
        let rec loop () =
          match take () with
          | Some resume ->
              resume ();
              loop ()
          | None ->
              if not (Atomic.get stop) then begin
                Unix.sleepf 0.0002;
                loop ()
              end
        in
        loop ())
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join d)
    (fun () -> f push)

let stale_resume_case impl =
  QCheck.Test.make ~count:25
    ~name:
      (Printf.sprintf "stale and duplicate resumes run each task once (%s)"
         (match impl with `Lockfree -> "lockfree" | `Locked -> "locked"))
    (QCheck.make
       QCheck.Gen.(
         pair shape_gen
           (list_size (int_range 1 30)
              (list_size (int_range 1 6) stale_op_gen))))
    (fun ((workers, groups), scripts) ->
      let n = List.length scripts in
      let cells = Array.init n (fun _ -> Atomic.make 0) in
      with_double_firer (fun fire ->
          let pool = Sched.create ~workers ?groups ~impl () in
          let ngroups = Array.length (Sched.groups pool) in
          List.iteri
            (fun i ops ->
              Sched.spawn ~group:(i mod ngroups) pool (fun () ->
                  List.iter
                    (function
                      | Twice_now ->
                          Sched.suspend ~register:(fun resume ->
                              resume ();
                              resume ();
                              true)
                      | Now_then_false ->
                          Sched.suspend ~register:(fun resume ->
                              resume ();
                              false)
                      | Fired_twice ->
                          Sched.suspend ~register:(fun resume ->
                              fire resume;
                              true)
                      | Yield_op -> Sched.yield ())
                    ops;
                  Atomic.incr cells.(i)))
            scripts;
          with_watchdog (fun () -> Sched.run pool));
      Array.for_all (fun c -> Atomic.get c = 1) cells)

let () =
  let quick name fn = Alcotest.test_case name `Quick fn in
  Alcotest.run "ss_sched"
    [
      ( "shape",
        [
          quick "validation and accessors" test_shape_validation;
        ] );
      ( "exactly-once",
        [
          quick "basic drain" test_basic_drain;
          quick "deque growth" test_deque_growth;
          quick "grouped drain" test_grouped_drain;
          quick "nested spawn" test_nested_spawn;
          quick "external resume storm" test_external_resume_storm;
          quick "register false continues" test_register_false_continues;
        ] );
      ( "semantics",
        [
          quick "error propagation" test_error_propagation;
          quick "tick prompt finish" test_tick_prompt_finish;
          quick "yield interleaves on one worker" test_yield_interleaves;
        ] );
      ( "allocation",
        [
          quick "suspend cycle" test_suspend_allocation;
          quick "worker sleep and wake" test_sleep_wake_allocation;
        ] );
      ( "storm",
        [
          QCheck_alcotest.to_alcotest (storm_case `Lockfree);
          QCheck_alcotest.to_alcotest (storm_case `Locked);
          QCheck_alcotest.to_alcotest (stale_resume_case `Lockfree);
          QCheck_alcotest.to_alcotest (stale_resume_case `Locked);
        ] );
    ]
