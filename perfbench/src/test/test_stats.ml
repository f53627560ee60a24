(* The benchmark's own statistics, on hand-made samples. *)

let buffer values =
  let a = Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (Array.length values) in
  Array.iteri (Bigarray.Array1.set a) values;
  a

let ascending n = buffer (Array.init n (fun i -> float_of_int (i + 1)))
let check_opt = Alcotest.(check (option (float 0.0)))

let ten_beyond () =
  Alcotest.(check bool) "p99 of 1000" true (Stats.supported ~n:1000 0.99);
  Alcotest.(check bool) "p99 of 999" false (Stats.supported ~n:999 0.99);
  Alcotest.(check bool) "p50 of 20" true (Stats.supported ~n:20 0.5);
  Alcotest.(check bool) "p50 of 19" false (Stats.supported ~n:19 0.5);
  Alcotest.(check bool) "empty" false (Stats.supported ~n:0 0.5);
  check_opt "p99 of 1..1000" (Some 990.0) (Stats.percentile (ascending 1000) 1000 0.99);
  check_opt "p50 of 1..1000" (Some 500.0) (Stats.percentile (ascending 1000) 1000 0.5);
  check_opt "p99 of 1..999" None (Stats.percentile (ascending 999) 999 0.99)

let sort_prefix () =
  let a = buffer [| 5.0; 3.0; 4.0; 1.0; 2.0; 0.0 |] in
  Stats.sort_prefix a 5;
  Alcotest.(check (array (float 0.0)))
    "first five sorted, the rest untouched" [| 1.0; 2.0; 3.0; 4.0; 5.0; 0.0 |]
    (Array.init 6 (Bigarray.Array1.get a))

let median_and_quantiles () =
  Alcotest.(check (float 0.0)) "odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 0.0)) "even" 2.5 (Stats.median [| 4.0; 1.0; 3.0; 2.0 |]);
  let twenty = Array.init 20 (fun i -> float_of_int (20 - i)) in
  Alcotest.(check (float 0.0)) "lower quartile of 1..20" 5.0 (Stats.quantile twenty 0.25);
  Alcotest.(check (float 0.0)) "upper quartile of 1..20" 15.0 (Stats.quantile twenty 0.75);
  Alcotest.(check (float 0.0)) "0-quantile is the least" 1.0 (Stats.quantile twenty 0.0);
  Alcotest.(check (float 0.0)) "1-quantile is the greatest" 20.0 (Stats.quantile twenty 1.0);
  Alcotest.(check (float 0.0)) "input left unsorted" 20.0 twenty.(0)

(* A generator at 1000 tuples/s stalls for 20 ms right after sending tuple
   9, on time, then catches up without sleeping, as the executor's paced
   source does. Processing is instant, so latency from the send time is
   zero for every tuple; latency from the due time charges the stall to
   tuple 10 and to each later tuple until the generator has caught up at
   29. *)
let stall_charged_to_later_tuples () =
  let anchor = 100.0 and rate = 1000.0 in
  let clock = ref anchor in
  for i = 0 to 49 do
    if i = 10 then clock := !clock +. 0.020;
    let due = Stats.due ~anchor ~rate i in
    (* Sleep until the tuple is due, never for one already late. *)
    clock := Float.max !clock due;
    let expected = if i >= 10 && i < 29 then float_of_int (29 - i) *. 1e-3 else 0.0 in
    Alcotest.(check (float 1e-9)) (Printf.sprintf "latency of tuple %d" i) expected (!clock -. due)
  done

let failed_frac () =
  let failed deliveries wrong =
    Stats.failed_of_deliveries ~n:(Array.length deliveries)
      ~deliveries:(Array.get deliveries) ~correct:(fun i -> not (List.mem i wrong))
  in
  Alcotest.(check int) "all delivered once" 0 (failed [| 1; 1; 1; 1 |] []);
  Alcotest.(check int) "one dropped" 1 (failed [| 1; 0; 1; 1 |] []);
  Alcotest.(check int) "one duplicated" 1 (failed [| 1; 2; 1; 1 |] []);
  Alcotest.(check int) "one dropped, one duplicated" 2 (failed [| 0; 2; 1; 1 |] []);
  Alcotest.(check int) "one with wrong contents" 1 (failed [| 1; 1; 1; 1 |] [ 2 ]);
  Alcotest.(check int) "formula" 3 (Stats.failed ~expected:10 ~delivered_correctly:8 ~duplicates:1)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "percentiles need ten samples beyond" `Quick ten_beyond;
          Alcotest.test_case "sort prefix in place" `Quick sort_prefix;
          Alcotest.test_case "median and quantiles" `Quick median_and_quantiles;
          Alcotest.test_case "due-time latency charges a stall" `Quick
            stall_charged_to_later_tuples;
          Alcotest.test_case "failed counts drops and duplicates" `Quick failed_frac;
        ] );
    ]
