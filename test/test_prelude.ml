(* Tests for the ss_prelude substrate: PRNG, distributions, statistics and
   the binary heap. *)

open Ss_prelude

let check_float ?(eps = 1e-9) what expected actual =
  Alcotest.(check bool)
    (Printf.sprintf "%s: expected %.6g, got %.6g" what expected actual)
    true
    (Float.abs (expected -. actual) <= eps *. Float.max 1.0 (Float.abs expected))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool) "different seeds diverge" true
    (List.init 10 (fun _ -> Rng.int64 a) <> List.init 10 (fun _ -> Rng.int64 b))

let test_rng_float_range () =
  let rng = Rng.create 7 in
  for _ = 1 to 10_000 do
    let x = Rng.float rng in
    Alcotest.(check bool) "in [0,1)" true (x >= 0.0 && x < 1.0)
  done

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  let seen = Array.make 7 false in
  for _ = 1 to 10_000 do
    let x = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 7);
    seen.(x) <- true
  done;
  Alcotest.(check bool) "all outcomes reached" true (Array.for_all Fun.id seen)

let test_rng_int_in_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 1000 do
    let x = Rng.int_in_range rng 3 9 in
    Alcotest.(check bool) "inclusive bounds" true (x >= 3 && x <= 9)
  done;
  Alcotest.(check int) "degenerate range" 4 (Rng.int_in_range rng 4 4)

let test_rng_uniformity () =
  (* Chi-square-ish sanity: each of 10 buckets within 20% of expectation. *)
  let rng = Rng.create 11 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let x = Rng.float rng in
    let b = min 9 (int_of_float (x *. 10.0)) in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      Alcotest.(check bool) "bucket within 20% of uniform" true
        (abs (c - (n / 10)) < n / 50))
    buckets

let test_rng_split_independent () =
  let parent = Rng.create 9 in
  let child = Rng.split parent in
  let xs = List.init 20 (fun _ -> Rng.int64 parent) in
  let ys = List.init 20 (fun _ -> Rng.int64 child) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

let test_rng_shuffle_permutation () =
  let rng = Rng.create 13 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 Fun.id) sorted

let test_rng_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "int with zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0));
  Alcotest.check_raises "empty pick"
    (Invalid_argument "Rng.pick: empty array") (fun () ->
      ignore (Rng.pick rng [||]))

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean rng dist n =
  let acc = ref 0.0 in
  for _ = 1 to n do
    acc := !acc +. Dist.sample rng dist
  done;
  !acc /. float_of_int n

let test_dist_deterministic () =
  let rng = Rng.create 1 in
  for _ = 1 to 10 do
    check_float "constant" 0.42 (Dist.sample rng (Dist.Deterministic 0.42))
  done

let test_dist_means () =
  let rng = Rng.create 21 in
  let cases =
    [
      (Dist.Deterministic 2.0, 2.0);
      (Dist.Uniform (1.0, 3.0), 2.0);
      (Dist.Exponential 0.5, 0.5);
      (Dist.Normal (5.0, 0.5), 5.0);
      (Dist.Erlang (4, 2.0), 2.0);
    ]
  in
  List.iter
    (fun (d, expected) ->
      check_float
        (Format.asprintf "sample mean of %a" Dist.pp d)
        expected
        (sample_mean rng d 200_000)
        ~eps:0.02)
    cases

let test_dist_analytic_moments () =
  check_float "uniform variance" (1.0 /. 3.0) (Dist.variance (Dist.Uniform (0.0, 2.0)));
  check_float "exponential variance" 0.25 (Dist.variance (Dist.Exponential 0.5));
  check_float "erlang variance" (0.25 /. 4.0) (Dist.variance (Dist.Erlang (4, 0.5)));
  Alcotest.(check bool) "erlang variance below exponential" true
    (Dist.variance (Dist.Erlang (4, 0.5)) < Dist.variance (Dist.Exponential 0.5))

let test_dist_non_negative () =
  let rng = Rng.create 33 in
  let d = Dist.Normal (0.001, 0.5) in
  for _ = 1 to 10_000 do
    Alcotest.(check bool) "clamped at zero" true (Dist.sample rng d >= 0.0)
  done

let test_dist_scale () =
  check_float "scaled mean" 4.0 (Dist.mean (Dist.scale 2.0 (Dist.Exponential 2.0)));
  check_float "scaled normal stddev" 1.0
    (sqrt (Dist.variance (Dist.scale 2.0 (Dist.Normal (1.0, 0.5)))))

let test_dist_string_roundtrip () =
  let cases =
    [
      Dist.Deterministic 0.5;
      Dist.Uniform (0.1, 0.3);
      Dist.Exponential 2.5;
      Dist.Normal (1.0, 0.25);
      Dist.Erlang (3, 0.9);
    ]
  in
  List.iter
    (fun d ->
      match Dist.of_string (Dist.to_string d) with
      | Ok d' -> Alcotest.(check bool) (Dist.to_string d) true (d = d')
      | Error e -> Alcotest.fail e)
    cases

let test_dist_parse_errors () =
  List.iter
    (fun s ->
      match Dist.of_string s with
      | Ok _ -> Alcotest.failf "expected parse failure for %S" s
      | Error _ -> ())
    [ "nope:1"; "uniform:3:1"; "erlang:0:1"; "erlang:x:1"; "det:abc"; "exp" ]

let test_dist_bare_float () =
  match Dist.of_string "0.75" with
  | Ok (Dist.Deterministic x) -> check_float "bare float" 0.75 x
  | Ok _ -> Alcotest.fail "expected deterministic"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Discrete *)

(* The first eight outputs of each draw for three seeds, pinned from the
   boxed-state generator this one replaced: [Engine.replay] and every
   seeded paper reproduction depend on the stream staying bit-identical.
   The discrete column interleaves a two-way routing table and a Zipf law
   on one generator, the Zipf draw first. *)
let golden =
  [
    ( 0,
      [ -2152535657050944081L; 7960286522194355700L; 487617019471545679L;
        -537132696929009172L; 1961750202426094747L; 6038094601263162090L;
        3207296026000306913L; -4214222208109204676L ],
      [ 0x1.c4415072f63b9p-1; 0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6;
        0x1.f1177150e499p-1; 0x1.b39896a51a87p-4; 0x1.4f2e7c31d1fa8p-2;
        0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1 ],
      [ 823; 796; 679; 732; 747; 186; 913; 228 ],
      [ (0, 6); (1, 0); (0, 0); (1, 0); (1, 0); (1, 0); (0, 1); (0, 3) ] );
    ( 42,
      [ -7450291807549245335L; 2958219263312191191L; 3069497704473277141L;
        885919558081284366L; -353919125003956057L; 4337243929683858115L;
        5152897204343404489L; 2820384354626331986L ],
      [ 0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
        0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
        0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3 ],
      [ 473; 191; 141; 366; 847; 115; 585; 986 ],
      [ (0, 2); (0, 0); (0, 9); (0, 0); (0, 3); (1, 3); (0, 6); (1, 0) ] );
    ( 20180901,
      [ -1059120496091920057L; 1022475620502399310L; 993309454694623505L;
        -8322130041745315437L; 8531708913886286305L; -3940220261742356984L;
        6463955510303747720L; -4560336572275051519L ],
      [ 0x1.e29a7f0a60361p-1; 0x1.c612051af15dp-5; 0x1.b91e35f5e385p-5;
        0x1.1903b5a39e53dp-1; 0x1.d99ae0378ce74p-2; 0x1.92a30d18a419ap-1;
        0x1.66d255280e55ap-2; 0x1.816cdc1932a56p-1 ],
      [ 847; 310; 505; 371; 401; 920; 816; 385 ],
      [ (0, 7); (0, 0); (1, 1); (1, 0); (0, 1); (0, 1); (0, 1); (0, 5) ] );
  ]

let test_rng_golden_stream () =
  List.iter
    (fun (seed, int64s, floats, ints, discretes) ->
      let r = Rng.create seed in
      Alcotest.(check (list int64)) (Printf.sprintf "int64, seed %d" seed)
        int64s (List.init 8 (fun _ -> Rng.int64 r));
      let r = Rng.create seed in
      Alcotest.(check (list int64)) (Printf.sprintf "float bits, seed %d" seed)
        (List.map Int64.bits_of_float floats)
        (List.init 8 (fun _ -> Int64.bits_of_float (Rng.float r)));
      let r = Rng.create seed in
      Alcotest.(check (list int)) (Printf.sprintf "int 1000, seed %d" seed)
        ints (List.init 8 (fun _ -> Rng.int r 1000));
      let r = Rng.create seed in
      let d = Discrete.of_weights [| 0.7; 0.3 |]
      and z = Discrete.zipf ~alpha:1.2 10 in
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "Discrete.sample, seed %d" seed)
        discretes
        (List.init 8 (fun _ ->
             let b = Discrete.sample r z in
             (Discrete.sample r d, b)));
      (* [bits53] is the same stream position as [int64] and [float]. *)
      let a = Rng.create seed and b = Rng.create seed in
      for _ = 1 to 8 do
        Alcotest.(check int) "bits53 = int64 lsr 11"
          (Int64.to_int (Int64.shift_right_logical (Rng.int64 a) 11))
          (Rng.bits53 b)
      done)
    golden

(* Minor-heap words [f] allocates on this domain, after one warm-up call. *)
let minor_words f =
  f ();
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let test_discrete_sample_allocation () =
  let rng = Rng.create 7 in
  let d = Discrete.zipf ~alpha:1.1 16 in
  let draws = 10_000 in
  let sink = ref 0 in
  let words =
    minor_words (fun () ->
        for _ = 1 to draws do
          sink := !sink + Discrete.sample rng d
        done)
  in
  Alcotest.(check (float 0.0)) "words per Discrete.sample" 0.0
    (words /. float_of_int draws);
  let words = minor_words (fun () -> for _ = 1 to draws do sink := !sink + Rng.bits53 rng done) in
  Alcotest.(check (float 0.0)) "words per Rng.bits53" 0.0 (words /. float_of_int draws)

let test_discrete_normalization () =
  let d = Discrete.of_weights [| 2.0; 6.0 |] in
  check_float "p0" 0.25 (Discrete.prob d 0);
  check_float "p1" 0.75 (Discrete.prob d 1);
  check_float "sums to one" 1.0 (Array.fold_left ( +. ) 0.0 (Discrete.probs d))

let test_discrete_zipf () =
  let d = Discrete.zipf ~alpha:1.0 4 in
  let h = 1.0 +. 0.5 +. (1.0 /. 3.0) +. 0.25 in
  check_float "rank 1" (1.0 /. h) (Discrete.prob d 0);
  check_float "rank 4" (0.25 /. h) (Discrete.prob d 3);
  Alcotest.(check bool) "monotone decreasing" true
    (Discrete.prob d 0 > Discrete.prob d 1
    && Discrete.prob d 1 > Discrete.prob d 2);
  let uniform = Discrete.zipf ~alpha:0.0 5 in
  check_float "alpha=0 is uniform" 0.2 (Discrete.prob uniform 3)

let test_discrete_sampling_frequencies () =
  let rng = Rng.create 77 in
  let d = Discrete.of_weights [| 1.0; 2.0; 7.0 |] in
  let counts = Array.make 3 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let k = Discrete.sample rng d in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iteri
    (fun i c ->
      check_float
        (Printf.sprintf "frequency of %d" i)
        (Discrete.prob d i)
        (float_of_int c /. float_of_int n)
        ~eps:0.05)
    counts

let test_discrete_singleton () =
  let rng = Rng.create 5 in
  let d = Discrete.uniform 1 in
  Alcotest.(check int) "only outcome" 0 (Discrete.sample rng d);
  check_float "max prob" 1.0 (Discrete.max_prob d);
  check_float "entropy" 0.0 (Discrete.entropy d)

let test_discrete_entropy () =
  check_float "fair coin" 1.0 (Discrete.entropy (Discrete.uniform 2));
  check_float "uniform 8" 3.0 (Discrete.entropy (Discrete.uniform 8))

let test_discrete_invalid () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Discrete.of_weights: empty support") (fun () ->
      ignore (Discrete.of_weights [||]));
  Alcotest.check_raises "all zero"
    (Invalid_argument "Discrete.of_weights: all weights are zero") (fun () ->
      ignore (Discrete.of_weights [| 0.0; 0.0 |]));
  Alcotest.check_raises "negative"
    (Invalid_argument "Discrete.of_weights: negative or NaN weight") (fun () ->
      ignore (Discrete.of_weights [| 1.0; -1.0 |]))

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_basic () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  check_float "mean" 2.5 (Stats.mean xs);
  check_float "variance" 1.25 (Stats.variance xs);
  check_float "stddev" (sqrt 1.25) (Stats.stddev xs);
  check_float "min" 1.0 (Stats.minimum xs);
  check_float "max" 4.0 (Stats.maximum xs)

let test_stats_empty_and_singleton () =
  check_float "empty mean" 0.0 (Stats.mean [||]);
  check_float "singleton variance" 0.0 (Stats.variance [| 5.0 |])

let test_stats_percentile () =
  let xs = [| 5.0; 1.0; 3.0; 2.0; 4.0 |] in
  check_float "median" 3.0 (Stats.median xs);
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p25" 2.0 (Stats.percentile 25.0 xs);
  check_float "interpolated p10" 1.4 (Stats.percentile 10.0 xs);
  (* The input is not mutated. *)
  Alcotest.(check (array (float 0.0))) "input untouched"
    [| 5.0; 1.0; 3.0; 2.0; 4.0 |] xs

let test_stats_relative_error () =
  check_float "plain" 0.1 (Stats.relative_error ~expected:10.0 ~actual:11.0);
  check_float "zero-zero" 0.0 (Stats.relative_error ~expected:0.0 ~actual:0.0);
  Alcotest.(check bool) "zero expected, nonzero actual" true
    (Stats.relative_error ~expected:0.0 ~actual:1.0 = infinity)

let test_stats_acc_matches_batch () =
  let rng = Rng.create 19 in
  let xs = Array.init 1000 (fun _ -> Rng.float rng) in
  let acc = Stats.Acc.create () in
  Array.iter (Stats.Acc.add acc) xs;
  Alcotest.(check int) "count" 1000 (Stats.Acc.count acc);
  check_float "mean agrees" (Stats.mean xs) (Stats.Acc.mean acc) ~eps:1e-12;
  check_float "variance agrees" (Stats.variance xs) (Stats.Acc.variance acc)
    ~eps:1e-9

(* ------------------------------------------------------------------ *)
(* Heap *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let test_heap_peek_and_length () =
  let h = Heap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Heap.is_empty h);
  Alcotest.(check (option int)) "peek empty" None (Heap.peek h);
  Heap.push h 3;
  Heap.push h 1;
  Alcotest.(check (option int)) "peek min" (Some 1) (Heap.peek h);
  Alcotest.(check int) "length" 2 (Heap.length h);
  Alcotest.(check (option int)) "peek does not pop" (Some 1) (Heap.peek h)

let test_heap_pop_exn () =
  let h = Heap.create ~cmp:compare in
  Alcotest.check_raises "empty pop_exn"
    (Invalid_argument "Heap.pop_exn: empty heap") (fun () ->
      ignore (Heap.pop_exn h))

let test_heap_custom_order () =
  let h = Heap.create ~cmp:(fun (a, _) (b, _) -> compare (b : float) a) in
  List.iter (Heap.push h) [ (1.0, "a"); (3.0, "b"); (2.0, "c") ];
  Alcotest.(check (option (pair (float 0.0) string))) "max-heap via cmp"
    (Some (3.0, "b")) (Heap.pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:500
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* Ring: FIFO order across growth and wrap-around, the back end, and
   clearing. *)
let test_ring () =
  let r = Ring.create () in
  Alcotest.(check bool) "starts empty" true (Ring.is_empty r);
  (* Offset the head so that growth has to unwrap the slots. *)
  for i = 1 to 10 do
    Ring.push r i
  done;
  for _ = 1 to 10 do
    ignore (Ring.pop r)
  done;
  for i = 1 to 40 do
    Ring.push r i
  done;
  Alcotest.(check int) "length" 40 (Ring.length r);
  Alcotest.(check int) "back" 40 (Ring.pop_back r);
  Alcotest.(check (list int)) "front to back after growth"
    (List.init 39 (fun i -> i + 1))
    (List.init 39 (fun _ -> Ring.pop r));
  Ring.push r 7;
  Ring.push r 8;
  Ring.clear r;
  Alcotest.(check bool) "cleared" true (Ring.is_empty r);
  Alcotest.check_raises "pop on empty" (Invalid_argument "Ring.pop: empty")
    (fun () -> ignore (Ring.pop r))

let prop_percentile_within_bounds =
  QCheck.Test.make ~name:"percentile stays within sample bounds" ~count:500
    QCheck.(pair (float_range 0.0 100.0) (array_of_size (QCheck.Gen.int_range 1 50) (float_range (-100.) 100.)))
    (fun (p, xs) ->
      let v = Stats.percentile p xs in
      v >= Stats.minimum xs -. 1e-9 && v <= Stats.maximum xs +. 1e-9)

let () =
  let quick name f = Alcotest.test_case name `Quick f in
  let prop t = QCheck_alcotest.to_alcotest t in
  Alcotest.run "ss_prelude"
    [
      ( "rng",
        [
          quick "deterministic per seed" test_rng_deterministic;
          quick "seed sensitivity" test_rng_seed_sensitivity;
          quick "float in [0,1)" test_rng_float_range;
          quick "int bounds" test_rng_int_bounds;
          quick "int_in_range inclusive" test_rng_int_in_range;
          quick "approximate uniformity" test_rng_uniformity;
          quick "split independence" test_rng_split_independent;
          quick "shuffle is a permutation" test_rng_shuffle_permutation;
          quick "invalid arguments" test_rng_invalid_args;
          quick "golden stream" test_rng_golden_stream;
        ] );
      ( "dist",
        [
          quick "deterministic sampling" test_dist_deterministic;
          quick "sample means converge" test_dist_means;
          quick "analytic moments" test_dist_analytic_moments;
          quick "samples are non-negative" test_dist_non_negative;
          quick "scaling" test_dist_scale;
          quick "string round-trip" test_dist_string_roundtrip;
          quick "parse errors" test_dist_parse_errors;
          quick "bare float parses as deterministic" test_dist_bare_float;
        ] );
      ( "discrete",
        [
          quick "weight normalization" test_discrete_normalization;
          quick "zipf law" test_discrete_zipf;
          quick "sampling frequencies" test_discrete_sampling_frequencies;
          quick "singleton support" test_discrete_singleton;
          quick "entropy" test_discrete_entropy;
          quick "invalid weights" test_discrete_invalid;
          quick "sampling allocates nothing" test_discrete_sample_allocation;
        ] );
      ( "stats",
        [
          quick "basic moments" test_stats_basic;
          quick "empty and singleton" test_stats_empty_and_singleton;
          quick "percentiles" test_stats_percentile;
          quick "relative error" test_stats_relative_error;
          quick "streaming accumulator" test_stats_acc_matches_batch;
        ] );
      ( "heap",
        [
          quick "ordering" test_heap_ordering;
          quick "peek and length" test_heap_peek_and_length;
          quick "pop_exn on empty" test_heap_pop_exn;
          quick "custom comparison" test_heap_custom_order;
        ] );
      ("ring", [ quick "fifo, growth and clear" test_ring ]);
      ( "properties",
        [ prop prop_heap_sorts; prop prop_percentile_within_bounds ] );
    ]
