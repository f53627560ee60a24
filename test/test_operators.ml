(* Tests for the executable operator catalog: window semantics, aggregation
   correctness, spatial queries, joins and the stateless transformations. *)

open Ss_operators

let tuple ?(ts = 0.0) ?(key = 0) ?(tag = 0) values =
  Tuple.make ~ts ~key ~tag values

let feed fn inputs = List.concat_map fn inputs

let float_list = Alcotest.(list (float 1e-9))

let outputs_of behavior inputs =
  let fn = Behavior.instantiate behavior in
  feed fn inputs

let first_values outs = List.map (fun t -> Tuple.value t 0) outs

(* ------------------------------------------------------------------ *)
(* Window *)

let test_window_fires_when_full () =
  let w = Window.create ~length:3 ~slide:2 in
  Alcotest.(check (option (list int))) "not full" None (Window.push w 1);
  Alcotest.(check (option (list int))) "not full" None (Window.push w 2);
  Alcotest.(check (option (list int))) "fires at 3" (Some [ 1; 2; 3 ])
    (Window.push w 3);
  Alcotest.(check (option (list int))) "no fire between slides" None
    (Window.push w 4);
  Alcotest.(check (option (list int))) "fires after slide" (Some [ 3; 4; 5 ])
    (Window.push w 5)

let test_window_slide_one () =
  let w = Window.create ~length:2 ~slide:1 in
  ignore (Window.push w 10);
  Alcotest.(check (option (list int))) "fire" (Some [ 10; 20 ]) (Window.push w 20);
  Alcotest.(check (option (list int))) "fire each push" (Some [ 20; 30 ])
    (Window.push w 30)

let test_window_eviction () =
  let w = Window.create ~length:2 ~slide:5 in
  List.iter (fun x -> ignore (Window.push w x)) [ 1; 2; 3; 4 ];
  Alcotest.(check (list int)) "only the last 2 retained" [ 3; 4 ]
    (Window.contents w);
  Alcotest.(check int) "pushed total" 4 (Window.pushed w)

let test_window_reset () =
  let w = Window.create ~length:2 ~slide:1 in
  ignore (Window.push w 1);
  ignore (Window.push w 2);
  Window.reset w;
  Alcotest.(check int) "empty" 0 (Window.size w);
  Alcotest.(check (option (list int))) "refills from scratch" None
    (Window.push w 3)

let test_window_invalid () =
  Alcotest.check_raises "zero length"
    (Invalid_argument "Window.create: length must be >= 1") (fun () ->
      ignore (Window.create ~length:0 ~slide:1));
  Alcotest.check_raises "zero slide"
    (Invalid_argument "Window.create: slide must be >= 1") (fun () ->
      ignore (Window.create ~length:1 ~slide:0))

(* ------------------------------------------------------------------ *)
(* Stateless operators *)

let test_identity () =
  let t = tuple [| 1.0; 2.0 |] in
  match outputs_of Stateless_ops.identity [ t ] with
  | [ out ] -> Alcotest.(check bool) "unchanged" true (Tuple.equal t out)
  | _ -> Alcotest.fail "expected one output"

let test_scale_offset () =
  let t = tuple [| 1.0; -2.0 |] in
  (match outputs_of (Stateless_ops.scale ~factor:3.0) [ t ] with
  | [ out ] ->
      Alcotest.check float_list "scaled" [ 3.0; -6.0 ]
        (Array.to_list out.Tuple.values)
  | _ -> Alcotest.fail "one output");
  match outputs_of (Stateless_ops.offset ~delta:1.5) [ t ] with
  | [ out ] ->
      Alcotest.check float_list "shifted" [ 2.5; -0.5 ]
        (Array.to_list out.Tuple.values)
  | _ -> Alcotest.fail "one output"

let test_threshold_filter () =
  let f = Stateless_ops.threshold_filter ~index:0 ~threshold:0.5 in
  let outs =
    outputs_of f [ tuple [| 0.4 |]; tuple [| 0.5 |]; tuple [| 0.9 |] ]
  in
  Alcotest.check float_list "kept" [ 0.5; 0.9 ] (first_values outs)

let test_sampler () =
  let outs =
    outputs_of
      (Stateless_ops.sampler ~keep_one_in:3)
      (List.init 9 (fun i -> tuple [| float_of_int i |]))
  in
  Alcotest.check float_list "every third" [ 2.0; 5.0; 8.0 ] (first_values outs)

let test_flat_split () =
  let t = tuple [| 1.0; 2.0; 3.0; 4.0 |] in
  match outputs_of (Stateless_ops.flat_split ~parts:2) [ t ] with
  | [ a; b ] ->
      Alcotest.check float_list "even indices" [ 1.0; 3.0 ]
        (Array.to_list a.Tuple.values);
      Alcotest.check float_list "odd indices" [ 2.0; 4.0 ]
        (Array.to_list b.Tuple.values)
  | outs -> Alcotest.failf "expected 2 outputs, got %d" (List.length outs)

let test_project () =
  match outputs_of (Stateless_ops.project ~keep:2) [ tuple [| 1.; 2.; 3. |] ] with
  | [ out ] -> Alcotest.(check int) "arity" 2 (Tuple.arity out)
  | _ -> Alcotest.fail "one output"

let test_rekey_deterministic_and_bounded () =
  let f = Stateless_ops.rekey ~buckets:8 in
  let t = tuple ~key:99 [| 1.0; 2.0 |] in
  match (outputs_of f [ t ], outputs_of f [ t ]) with
  | [ a ], [ b ] ->
      Alcotest.(check int) "deterministic" a.Tuple.key b.Tuple.key;
      Alcotest.(check bool) "within buckets" true (a.Tuple.key >= 0 && a.Tuple.key < 8)
  | _ -> Alcotest.fail "one output each"

let test_enrich () =
  let f = Stateless_ops.enrich ~table:(fun k -> float_of_int (k * 10)) in
  match outputs_of f [ tuple ~key:7 [| 1.0 |] ] with
  | [ out ] ->
      Alcotest.check float_list "appended" [ 1.0; 70.0 ]
        (Array.to_list out.Tuple.values)
  | _ -> Alcotest.fail "one output"

let test_compute_changes_value () =
  match outputs_of (Stateless_ops.compute ~iterations:10) [ tuple [| 1.0 |] ] with
  | [ out ] ->
      Alcotest.(check bool) "value folded" true (Tuple.value out 0 <> 1.0)
  | _ -> Alcotest.fail "one output"

(* ------------------------------------------------------------------ *)
(* Windowed aggregations *)

let spec length slide =
  { Window_ops.default_spec with Window_ops.length; slide }

let series n = List.init n (fun i -> tuple [| float_of_int (i + 1) |])

let test_windowed_sum () =
  let outs = outputs_of (Window_ops.sum ~spec:(spec 3 2) ()) (series 7) in
  (* Fires at pushes 3, 5, 7 over values (1..7): 1+2+3, 3+4+5, 5+6+7. *)
  Alcotest.check float_list "sums" [ 6.0; 12.0; 18.0 ] (first_values outs)

let test_windowed_max_min () =
  let outs = outputs_of (Window_ops.max_agg ~spec:(spec 3 3) ()) (series 6) in
  Alcotest.check float_list "max" [ 3.0; 6.0 ] (first_values outs);
  let outs = outputs_of (Window_ops.min_agg ~spec:(spec 3 3) ()) (series 6) in
  Alcotest.check float_list "min" [ 1.0; 4.0 ] (first_values outs)

let test_windowed_mean () =
  let outs = outputs_of (Window_ops.mean ~spec:(spec 4 4) ()) (series 4) in
  Alcotest.check float_list "mean of 1..4" [ 2.5 ] (first_values outs)

let test_weighted_moving_average () =
  (* Window [1;2;3], weights 1,2,3: (1 + 4 + 9) / 6. *)
  let outs =
    outputs_of (Window_ops.weighted_moving_average ~spec:(spec 3 10) ()) (series 3)
  in
  Alcotest.check float_list "wma" [ 14.0 /. 6.0 ] (first_values outs)

let test_quantile_exact () =
  let inputs = List.map (fun v -> tuple [| v |]) [ 5.; 1.; 4.; 2.; 3. ] in
  let outs = outputs_of (Window_ops.quantile ~spec:(spec 5 5) ~q:0.5 ()) inputs in
  Alcotest.check float_list "median" [ 3.0 ] (first_values outs);
  let outs = outputs_of (Window_ops.quantile ~spec:(spec 5 5) ~q:1.0 ()) inputs in
  Alcotest.check float_list "max quantile" [ 5.0 ] (first_values outs)

let test_per_key_windows_are_independent () =
  let b = Window_ops.sum ~spec:{ (spec 2 2) with Window_ops.per_key = true } () in
  let fn = Behavior.instantiate b in
  let push key v = feed fn [ tuple ~key [| v |] ] in
  Alcotest.check float_list "k0 filling" [] (first_values (push 0 1.0));
  Alcotest.check float_list "k1 filling" [] (first_values (push 1 10.0));
  Alcotest.check float_list "k0 fires alone" [ 3.0 ] (first_values (push 0 2.0));
  Alcotest.check float_list "k1 fires alone" [ 30.0 ] (first_values (push 1 20.0))

let test_fresh_instances_do_not_share_state () =
  let b = Window_ops.sum ~spec:(spec 2 2) () in
  let f1 = Behavior.instantiate b and f2 = Behavior.instantiate b in
  ignore (f1 (tuple [| 1.0 |]));
  (* f2 must still need two pushes. *)
  Alcotest.check float_list "f2 unaffected" []
    (first_values (f2 (tuple [| 5.0 |])));
  Alcotest.check float_list "f2 fires on its own schedule" [ 12.0 ]
    (first_values (f2 (tuple [| 7.0 |])))

let test_declared_selectivities () =
  let b = Window_ops.sum ~spec:(spec 100 10) () in
  Alcotest.(check (float 1e-9)) "input selectivity = slide" 10.0
    b.Behavior.input_selectivity;
  Alcotest.(check (float 1e-9)) "sampler selectivity" 0.25
    (Stateless_ops.sampler ~keep_one_in:4).Behavior.output_selectivity;
  Alcotest.(check (float 1e-9)) "split selectivity" 2.0
    (Stateless_ops.flat_split ~parts:2).Behavior.output_selectivity

(* ------------------------------------------------------------------ *)
(* Spatial operators *)

let test_skyline_small () =
  (* Points: (1,5) (2,2) (5,1) (3,3) — (3,3) is dominated by (2,2). *)
  let pts = [ (1., 5.); (2., 2.); (5., 1.); (3., 3.) ] in
  let inputs = List.map (fun (x, y) -> tuple [| x; y |]) pts in
  let outs = outputs_of (Spatial_ops.skyline ~length:4 ~slide:4 ()) inputs in
  let result = List.map (fun t -> (Tuple.value t 0, Tuple.value t 1)) outs in
  Alcotest.(check (list (pair (float 0.) (float 0.)))) "skyline"
    [ (1., 5.); (2., 2.); (5., 1.) ]
    result

let test_skyline_duplicates_survive () =
  (* Equal points do not dominate each other (strictness required). *)
  let inputs = List.map (fun (x, y) -> tuple [| x; y |]) [ (1., 1.); (1., 1.) ] in
  let outs = outputs_of (Spatial_ops.skyline ~length:2 ~slide:2 ()) inputs in
  Alcotest.(check int) "both kept" 2 (List.length outs)

let test_top_k () =
  let inputs = List.map (fun v -> tuple [| v |]) [ 3.; 9.; 1.; 7.; 5. ] in
  let outs = outputs_of (Spatial_ops.top_k ~length:5 ~slide:5 ~k:3 ()) inputs in
  Alcotest.check float_list "top 3 descending" [ 9.0; 7.0; 5.0 ]
    (first_values outs)

let test_top_k_fewer_than_k () =
  let inputs = List.map (fun v -> tuple [| v |]) [ 2.; 1. ] in
  let outs = outputs_of (Spatial_ops.top_k ~length:2 ~slide:2 ~k:5 ()) inputs in
  Alcotest.(check int) "window smaller than k" 2 (List.length outs)

let test_per_key_spatial_ops () =
  (* Keyed skyline/top-k keep independent windows per key and declare the
     partitioned-stateful kind (replicable by fission). *)
  let sky = Spatial_ops.skyline ~length:2 ~slide:2 ~per_key:true () in
  Alcotest.(check bool) "skyline keyed kind" true
    (sky.Behavior.state_kind = Behavior.Partitioned_op);
  let fn = Behavior.instantiate sky in
  Alcotest.(check int) "key 0 filling" 0
    (List.length (fn (tuple ~key:0 [| 1.; 1. |])));
  Alcotest.(check int) "key 1 filling" 0
    (List.length (fn (tuple ~key:1 [| 2.; 2. |])));
  (* Key 0's window fires alone, containing only key 0's points. *)
  let fired = fn (tuple ~key:0 [| 3.; 0.5 |]) in
  Alcotest.(check int) "key 0 skyline of its own window" 2 (List.length fired);
  let topk = Spatial_ops.top_k ~length:3 ~slide:3 ~per_key:true ~k:1 () in
  Alcotest.(check bool) "topk keyed kind" true
    (topk.Behavior.state_kind = Behavior.Partitioned_op);
  let fn = Behavior.instantiate topk in
  ignore (fn (tuple ~key:7 [| 5. |]));
  ignore (fn (tuple ~key:7 [| 9. |]));
  ignore (fn (tuple ~key:8 [| 100. |]));
  match fn (tuple ~key:7 [| 1. |]) with
  | [ out ] ->
      Alcotest.(check (float 0.)) "key 7's max, not key 8's" 9.0
        (Tuple.value out 0)
  | outs -> Alcotest.failf "expected 1 firing, got %d" (List.length outs)

(* ------------------------------------------------------------------ *)
(* Joins and keyed state *)

let test_band_join_matches () =
  let b = Join_ops.band_join ~length:10 ~band:0.5 () in
  let fn = Behavior.instantiate b in
  (* Left side gets 1.0 and 3.0; right probe at 1.3 matches only 1.0. *)
  Alcotest.(check int) "no match yet" 0 (List.length (fn (tuple ~tag:0 [| 1.0 |])));
  Alcotest.(check int) "no match yet" 0 (List.length (fn (tuple ~tag:0 [| 3.0 |])));
  (match fn (tuple ~tag:1 [| 1.3 |]) with
  | [ out ] ->
      Alcotest.check float_list "joined pair" [ 1.3; 1.0 ]
        (Array.to_list out.Tuple.values)
  | outs -> Alcotest.failf "expected 1 match, got %d" (List.length outs));
  (* Left probe sees the right tuple stored above. *)
  Alcotest.(check int) "symmetric probe" 1
    (List.length (fn (tuple ~tag:0 [| 1.7 |])))

let test_band_join_window_eviction () =
  let b = Join_ops.band_join ~length:1 ~band:10.0 () in
  let fn = Behavior.instantiate b in
  ignore (fn (tuple ~tag:0 [| 1.0 |]));
  ignore (fn (tuple ~tag:0 [| 2.0 |]));
  (* Only the most recent left tuple is retained. *)
  Alcotest.(check int) "one candidate" 1 (List.length (fn (tuple ~tag:1 [| 0.0 |])))

let test_band_join_reference_nested_loop () =
  (* Compare against a brute-force join over full histories with windows
     large enough to never evict. *)
  let rng = Ss_prelude.Rng.create 5 in
  let stream =
    List.init 200 (fun i ->
        tuple ~tag:(Ss_prelude.Rng.int rng 2) [| Ss_prelude.Rng.float rng |]
        |> fun t -> { t with Tuple.ts = float_of_int i })
  in
  let b = Join_ops.band_join ~length:1000 ~band:0.1 () in
  let fn = Behavior.instantiate b in
  let measured = List.length (feed fn stream) in
  let expected = ref 0 in
  let seen = ref [] in
  List.iter
    (fun (t : Tuple.t) ->
      List.iter
        (fun (s : Tuple.t) ->
          if s.Tuple.tag <> t.Tuple.tag
             && Float.abs (Tuple.value s 0 -. Tuple.value t 0) <= 0.1
          then incr expected)
        !seen;
      seen := t :: !seen)
    stream;
  Alcotest.(check int) "same number of result pairs" !expected measured

let test_count_by_key () =
  let fn = Behavior.instantiate (Join_ops.count_by_key ()) in
  let out key = List.hd (fn (tuple ~key [| 0.0 |])) in
  Alcotest.(check (float 0.)) "first of 1" 1.0 (Tuple.value (out 1) 0);
  Alcotest.(check (float 0.)) "first of 2" 1.0 (Tuple.value (out 2) 0);
  Alcotest.(check (float 0.)) "second of 1" 2.0 (Tuple.value (out 1) 0)

let test_dedup () =
  let fn = Behavior.instantiate (Join_ops.dedup ~memory:2 ()) in
  let pass key = List.length (fn (tuple ~key [| 0.0 |])) = 1 in
  Alcotest.(check bool) "new key" true (pass 1);
  Alcotest.(check bool) "repeat dropped" false (pass 1);
  Alcotest.(check bool) "new key" true (pass 2);
  Alcotest.(check bool) "new key evicts oldest" true (pass 3);
  Alcotest.(check bool) "evicted key passes again" true (pass 1)

(* ------------------------------------------------------------------ *)
(* Event-time windows *)

let fired_ends fs = List.map (fun f -> f.Time_window.window_end) fs
let fired_contents fs = List.map (fun f -> f.Time_window.contents) fs

let test_tumbling_fires_on_watermark () =
  let w = Time_window.create (Time_window.Tumbling 10.0) in
  Alcotest.(check int) "nothing yet" 0 (List.length (Time_window.push w ~ts:1.0 "a"));
  Alcotest.(check int) "same window" 0 (List.length (Time_window.push w ~ts:9.0 "b"));
  (* ts=10 starts the next window and pushes the watermark past 10. *)
  let fired = Time_window.push w ~ts:10.0 "c" in
  Alcotest.(check (list (float 1e-9))) "window [0,10) fires" [ 10.0 ]
    (fired_ends fired);
  Alcotest.(check (list (list string))) "contents in arrival order"
    [ [ "a"; "b" ] ] (fired_contents fired)

let test_tumbling_boundaries () =
  let w = Time_window.create (Time_window.Tumbling 5.0) in
  ignore (Time_window.push w ~ts:4.999 "x");
  (* An element exactly on a boundary belongs to the next window. *)
  let fired = Time_window.push w ~ts:5.0 "y" in
  Alcotest.(check (list (list string))) "x alone in [0,5)" [ [ "x" ] ]
    (fired_contents fired);
  let fired = Time_window.push w ~ts:10.0 "z" in
  Alcotest.(check (list (list string))) "y alone in [5,10)" [ [ "y" ] ]
    (fired_contents fired)

let test_sliding_membership () =
  (* Length 10, slide 5: element at ts=7 belongs to [0,10) and [5,15). *)
  let w = Time_window.create (Time_window.Sliding (10.0, 5.0)) in
  ignore (Time_window.push w ~ts:7.0 "e");
  let fired = Time_window.push w ~ts:10.0 "f" in
  Alcotest.(check (list (float 1e-9))) "[.,10) fires" [ 10.0 ] (fired_ends fired);
  Alcotest.(check (list (list string))) "e in the first window" [ [ "e" ] ]
    (fired_contents fired);
  let fired = Time_window.push w ~ts:15.0 "g" in
  Alcotest.(check (list (float 1e-9))) "[5,15) fires" [ 15.0 ] (fired_ends fired);
  (* e (ts 7) and f (ts 10) both fall in [5,15). *)
  Alcotest.(check (list (list string))) "overlap contents" [ [ "e"; "f" ] ]
    (fired_contents fired)

let test_out_of_order_within_lateness () =
  let w = Time_window.create ~allowed_lateness:3.0 (Time_window.Tumbling 10.0) in
  ignore (Time_window.push w ~ts:11.0 "late-but-ok-buffer");
  (* Watermark is 8: the [0,10) window is still open; a ts=9 element makes it. *)
  Alcotest.(check int) "no firing yet" 0
    (List.length (Time_window.push w ~ts:9.0 "straggler"));
  Alcotest.(check int) "no loss" 0 (Time_window.late_count w);
  let fired = Time_window.push w ~ts:13.1 "advance" in
  Alcotest.(check (list (list string))) "straggler included" [ [ "straggler" ] ]
    (fired_contents fired)

let test_late_elements_dropped_and_counted () =
  let w = Time_window.create (Time_window.Tumbling 10.0) in
  ignore (Time_window.push w ~ts:25.0 "advance");
  (* Watermark 25: a ts=3 element has no open window left. *)
  Alcotest.(check int) "dropped silently" 0
    (List.length (Time_window.push w ~ts:3.0 "too-late"));
  Alcotest.(check int) "counted" 1 (Time_window.late_count w);
  Alcotest.(check (float 1e-9)) "watermark unchanged by late data" 25.0
    (Time_window.watermark w)

let test_multiple_windows_fire_in_order () =
  (* A large allowed lateness keeps several windows buffered; a big
     watermark jump then fires them together, oldest first. *)
  let w = Time_window.create ~allowed_lateness:20.0 (Time_window.Tumbling 5.0) in
  ignore (Time_window.push w ~ts:1.0 "a");
  ignore (Time_window.push w ~ts:6.0 "b");
  ignore (Time_window.push w ~ts:12.0 "c");
  Alcotest.(check int) "still buffered" 3 (Time_window.pending_windows w);
  let fired = Time_window.push w ~ts:45.0 "jump" in
  Alcotest.(check (list (float 1e-9))) "in order" [ 5.0; 10.0; 15.0 ]
    (fired_ends fired);
  Alcotest.(check (list (list string))) "right contents"
    [ [ "a" ]; [ "b" ]; [ "c" ] ] (fired_contents fired)

let test_capped_windows_fire_oldest () =
  (* A huge allowed lateness keeps windows open; the cap forces the oldest
     out early, with its partial contents. *)
  let w =
    Time_window.create ~allowed_lateness:100.0 ~max_open_windows:3
      (Time_window.Tumbling 1.0)
  in
  ignore (Time_window.push w ~ts:0.5 "a");
  ignore (Time_window.push w ~ts:1.5 "b");
  ignore (Time_window.push w ~ts:2.5 "c");
  Alcotest.(check int) "at the cap" 3 (Time_window.pending_windows w);
  let fired = Time_window.push w ~ts:3.5 "d" in
  Alcotest.(check (list (float 1e-9))) "oldest evicted early" [ 1.0 ]
    (fired_ends fired);
  Alcotest.(check (list (list string))) "partial contents" [ [ "a" ] ]
    (fired_contents fired);
  Alcotest.(check int) "cap held" 3 (Time_window.pending_windows w);
  Alcotest.(check int) "eviction counted" 1 (Time_window.evicted_count w);
  (* a straggler into the evicted window is late, not a reopened window *)
  Alcotest.(check int) "straggler fires nothing" 0
    (List.length (Time_window.push w ~ts:0.7 "late"));
  Alcotest.(check int) "straggler counted late" 1 (Time_window.late_count w);
  Alcotest.(check int) "window not reopened" 3 (Time_window.pending_windows w)

let test_capped_windows_drop_oldest () =
  let w =
    Time_window.create ~allowed_lateness:100.0 ~max_open_windows:2
      ~eviction:`Drop_oldest (Time_window.Tumbling 1.0)
  in
  ignore (Time_window.push w ~ts:0.5 "a");
  ignore (Time_window.push w ~ts:1.5 "b");
  Alcotest.(check int) "dropped silently" 0
    (List.length (Time_window.push w ~ts:2.5 "c"));
  Alcotest.(check int) "cap held" 2 (Time_window.pending_windows w);
  Alcotest.(check int) "eviction counted" 1 (Time_window.evicted_count w)

let test_time_window_invalid_args () =
  Alcotest.check_raises "zero length"
    (Invalid_argument "Time_window.create: length must be positive") (fun () ->
      ignore (Time_window.create (Time_window.Tumbling 0.0)));
  Alcotest.check_raises "slide > length"
    (Invalid_argument "Time_window.create: slide must not exceed length")
    (fun () -> ignore (Time_window.create (Time_window.Sliding (5.0, 10.0))));
  Alcotest.check_raises "negative lateness"
    (Invalid_argument "Time_window.create: negative lateness") (fun () ->
      ignore
        (Time_window.create ~allowed_lateness:(-1.0) (Time_window.Tumbling 5.0)));
  Alcotest.check_raises "zero cap"
    (Invalid_argument "Time_window.create: max_open_windows must be >= 1")
    (fun () ->
      ignore
        (Time_window.create ~max_open_windows:0 (Time_window.Tumbling 5.0)))

let test_time_ops_sum () =
  let b = Time_ops.sum ~kind:(Time_window.Tumbling 10.0) () in
  let fn = Behavior.instantiate b in
  let push ts v = fn (tuple ~ts [| v |]) in
  Alcotest.(check int) "buffering" 0 (List.length (push 1.0 2.0));
  Alcotest.(check int) "buffering" 0 (List.length (push 5.0 3.0));
  match push 12.0 1.0 with
  | [ out ] ->
      Alcotest.(check (float 1e-9)) "sum of the window" 5.0 (Tuple.value out 0);
      Alcotest.(check (float 1e-9)) "stamped with the window end" 10.0
        out.Tuple.ts
  | outs -> Alcotest.failf "expected one firing, got %d" (List.length outs)

let test_time_ops_per_key_isolation () =
  let b =
    Time_ops.count ~per_key:true ~kind:(Time_window.Tumbling 10.0) ()
  in
  let fn = Behavior.instantiate b in
  ignore (fn (tuple ~ts:1.0 ~key:1 [| 0. |]));
  ignore (fn (tuple ~ts:2.0 ~key:1 [| 0. |]));
  ignore (fn (tuple ~ts:3.0 ~key:2 [| 0. |]));
  (* Advancing key 1's stream does not fire key 2's window. *)
  (match fn (tuple ~ts:11.0 ~key:1 [| 0. |]) with
  | [ out ] ->
      Alcotest.(check (float 1e-9)) "two elements for key 1" 2.0
        (Tuple.value out 0);
      Alcotest.(check int) "key carried" 1 out.Tuple.key
  | _ -> Alcotest.fail "expected key-1 firing");
  match fn (tuple ~ts:11.0 ~key:2 [| 0. |]) with
  | [ out ] ->
      Alcotest.(check (float 1e-9)) "one element for key 2" 1.0
        (Tuple.value out 0)
  | _ -> Alcotest.fail "expected key-2 firing"

(* ------------------------------------------------------------------ *)
(* Catalog *)

let test_catalog_size_and_uniqueness () =
  let names = Catalog.names () in
  Alcotest.(check int) "20 operators" 20 (List.length names);
  Alcotest.(check int) "unique names" 20
    (List.length (List.sort_uniq compare names))

let test_catalog_find () =
  Alcotest.(check bool) "identity present" true (Catalog.find "identity" <> None);
  Alcotest.(check bool) "unknown absent" true (Catalog.find "nope" = None);
  Alcotest.check_raises "find_exn raises" Not_found (fun () ->
      ignore (Catalog.find_exn "nope"))

let test_catalog_partitions () =
  let total =
    List.length (Catalog.stateless ())
    + List.length (Catalog.partitioned ())
    + List.length (Catalog.stateful ())
  in
  Alcotest.(check int) "kinds partition the catalog" 20 total;
  Alcotest.(check int) "one binary operator" 1 (List.length (Catalog.joins ()));
  Alcotest.(check bool) "several stateless ops" true
    (List.length (Catalog.stateless ()) >= 8)

let test_catalog_instances_runnable () =
  (* Every catalog operator accepts a generic tuple without raising. *)
  List.iter
    (fun b ->
      let fn = Behavior.instantiate b in
      for i = 0 to 20 do
        ignore (fn (tuple ~key:(i mod 4) ~tag:(i mod 2) [| float_of_int i; 1.0 |]))
      done)
    (Catalog.all ())

let test_behavior_to_operator () =
  let b = Window_ops.sum ~spec:(spec 100 10) () in
  let op = Behavior.to_operator ~service_time:1e-3 b in
  Alcotest.(check bool) "stateful kind" true
    (op.Ss_topology.Operator.kind = Ss_topology.Operator.Stateful);
  Alcotest.(check (float 1e-9)) "selectivity copied" 10.0
    op.Ss_topology.Operator.input_selectivity;
  let keyed =
    Window_ops.mean ~spec:{ (spec 10 2) with Window_ops.per_key = true } ()
  in
  Alcotest.check_raises "partitioned needs keys"
    (Invalid_argument
       "Behavior.to_operator: a partitioned-stateful behavior needs a key \
        distribution")
    (fun () -> ignore (Behavior.to_operator ~service_time:1e-3 keyed));
  let op =
    Behavior.to_operator ~service_time:1e-3
      ~keys:(Ss_prelude.Discrete.uniform 8) keyed
  in
  Alcotest.(check bool) "partitioned kind" true
    (match op.Ss_topology.Operator.kind with
    | Ss_topology.Operator.Partitioned_stateful _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Properties *)

let points_gen =
  QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (pair (float_range 0. 10.) (float_range 0. 10.)))

let prop_skyline_sound_and_complete =
  QCheck.Test.make ~name:"skyline = exactly the non-dominated points" ~count:300
    points_gen (fun pts ->
      let n = List.length pts in
      let inputs = List.map (fun (x, y) -> tuple [| x; y |]) pts in
      let outs = outputs_of (Spatial_ops.skyline ~length:n ~slide:n ()) inputs in
      let result = List.map (fun t -> (Tuple.value t 0, Tuple.value t 1)) outs in
      let expected =
        List.filter
          (fun p ->
            not (Spatial_ops.is_dominated p (List.filter (fun q -> q <> p) pts)))
          pts
      in
      List.sort compare result = List.sort compare expected)

let prop_top_k_matches_sort =
  QCheck.Test.make ~name:"top-k equals the k largest of a sort" ~count:300
    QCheck.(pair (int_range 1 10) (list_of_size (QCheck.Gen.int_range 1 40) (float_range (-5.) 5.)))
    (fun (k, vs) ->
      let n = List.length vs in
      let inputs = List.map (fun v -> tuple [| v |]) vs in
      let outs =
        outputs_of (Spatial_ops.top_k ~length:n ~slide:n ~k ()) inputs
      in
      let expected =
        List.sort (fun a b -> compare b a) vs |> List.filteri (fun i _ -> i < k)
      in
      first_values outs = expected)

let prop_window_firing_rate =
  QCheck.Test.make ~name:"window fires floor((n-w)/s)+1 times" ~count:300
    QCheck.(triple (int_range 1 20) (int_range 1 10) (int_range 0 200))
    (fun (w, s, n) ->
      let window = Window.create ~length:w ~slide:s in
      let fires = ref 0 in
      for i = 1 to n do
        if Window.push window i <> None then incr fires
      done;
      let expected = if n < w then 0 else ((n - w) / s) + 1 in
      !fires = expected)

let prop_sampler_rate =
  QCheck.Test.make ~name:"sampler keeps exactly n/k of n inputs" ~count:100
    QCheck.(pair (int_range 1 10) (int_range 0 500))
    (fun (k, n) ->
      let outs =
        outputs_of
          (Stateless_ops.sampler ~keep_one_in:k)
          (List.init n (fun i -> tuple [| float_of_int i |]))
      in
      List.length outs = n / k)

(* [scale] and [offset] fill their output with a loop; both the behavior
   and its inline twin must equal the [Array.map] they replaced bit for
   bit, on empty arrays, NaN, signed zeros and infinities too. *)
let special_float =
  QCheck.Gen.(
    oneof
      [
        float;
        oneofl [ 0.0; -0.0; Float.nan; Float.infinity; Float.neg_infinity; 1.5; -1e-310 ];
      ])

let prop_elementwise_maps_match_array_map =
  QCheck.Test.make ~name:"scale/offset = Array.map, bitwise" ~count:500
    QCheck.(
      make
        ~print:(fun (c, a) ->
          Printf.sprintf "%h [|%s|]" c
            (String.concat "; " (Array.to_list (Array.map (Printf.sprintf "%h") a))))
        Gen.(pair special_float (array_size (int_range 0 8) special_float)))
    (fun (c, values) ->
      let bits a = Array.to_list (Array.map Int64.bits_of_float a) in
      let t = Tuple.make ~ts:1.0 ~key:3 values in
      let agrees b reference =
        let expect = bits (Array.map reference values) in
        let via_behavior =
          match Behavior.instantiate b t with
          | [ out ] -> bits out.Tuple.values
          | _ -> []
        in
        let via_inline =
          match Behavior.inline_spec b with
          | Some (Behavior.Inline_map mk) -> bits (mk () t).Tuple.values
          | _ -> []
        in
        via_behavior = expect && via_inline = expect
      in
      agrees (Stateless_ops.scale ~factor:c) (fun v -> v *. c)
      && agrees (Stateless_ops.offset ~delta:c) (fun v -> v +. c))

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ss_operators"
    [
      ( "window",
        [
          quick "fires when full" test_window_fires_when_full;
          quick "slide one" test_window_slide_one;
          quick "eviction" test_window_eviction;
          quick "reset" test_window_reset;
          quick "invalid parameters" test_window_invalid;
        ] );
      ( "stateless",
        [
          quick "identity" test_identity;
          quick "scale and offset" test_scale_offset;
          quick "threshold filter" test_threshold_filter;
          quick "sampler" test_sampler;
          quick "flat split" test_flat_split;
          quick "project" test_project;
          quick "rekey" test_rekey_deterministic_and_bounded;
          quick "enrich" test_enrich;
          quick "compute" test_compute_changes_value;
        ] );
      ( "aggregation",
        [
          quick "windowed sum" test_windowed_sum;
          quick "windowed max/min" test_windowed_max_min;
          quick "windowed mean" test_windowed_mean;
          quick "weighted moving average" test_weighted_moving_average;
          quick "quantiles" test_quantile_exact;
          quick "per-key windows independent" test_per_key_windows_are_independent;
          quick "fresh instances isolated" test_fresh_instances_do_not_share_state;
          quick "declared selectivities" test_declared_selectivities;
        ] );
      ( "spatial",
        [
          quick "skyline small example" test_skyline_small;
          quick "skyline duplicates" test_skyline_duplicates_survive;
          quick "top-k" test_top_k;
          quick "top-k short window" test_top_k_fewer_than_k;
          quick "per-key spatial operators" test_per_key_spatial_ops;
        ] );
      ( "joins",
        [
          quick "band join matching" test_band_join_matches;
          quick "band join eviction" test_band_join_window_eviction;
          quick "band join vs nested loop" test_band_join_reference_nested_loop;
          quick "count by key" test_count_by_key;
          quick "dedup" test_dedup;
        ] );
      ( "time_windows",
        [
          quick "tumbling fires on watermark" test_tumbling_fires_on_watermark;
          quick "tumbling boundaries" test_tumbling_boundaries;
          quick "sliding membership" test_sliding_membership;
          quick "out-of-order within lateness" test_out_of_order_within_lateness;
          quick "late elements dropped" test_late_elements_dropped_and_counted;
          quick "batched firings in order" test_multiple_windows_fire_in_order;
          quick "cap fires oldest" test_capped_windows_fire_oldest;
          quick "cap drops oldest" test_capped_windows_drop_oldest;
          quick "invalid arguments" test_time_window_invalid_args;
          quick "event-time sum" test_time_ops_sum;
          quick "per-key isolation" test_time_ops_per_key_isolation;
        ] );
      ( "catalog",
        [
          quick "size and uniqueness" test_catalog_size_and_uniqueness;
          quick "lookup" test_catalog_find;
          quick "kind partition" test_catalog_partitions;
          quick "all instances runnable" test_catalog_instances_runnable;
          quick "behavior to operator" test_behavior_to_operator;
        ] );
      ( "properties",
        [
          prop prop_skyline_sound_and_complete;
          prop prop_top_k_matches_sort;
          prop prop_window_firing_rate;
          prop prop_sampler_rate;
          prop prop_elementwise_maps_match_array_map;
        ] );
    ]
