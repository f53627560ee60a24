let median xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.median: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0

(* The epsilon keeps [0.99 *. 1000.] at rank 990 despite rounding. *)
let rank ~n p = int_of_float (Float.ceil ((p *. float_of_int n) -. 1e-9))

let quantile xs p =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.quantile: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s.(max 0 (rank ~n p - 1))

let supported ~n p = n > 0 && p >= 0.0 && p <= 1.0 && n - rank ~n p >= 10

type samples = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Heapsort: in place, so sorting a sample allocates nothing on the heap. *)
let sort_prefix (a : samples) n =
  let swap i j =
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  in
  let rec sift root last =
    let child = (2 * root) + 1 in
    if child <= last then begin
      let child =
        if child < last && a.{child} < a.{child + 1} then child + 1 else child
      in
      if a.{root} < a.{child} then begin
        swap root child;
        sift child last
      end
    end
  in
  for root = (n / 2) - 1 downto 0 do
    sift root (n - 1)
  done;
  for last = n - 1 downto 1 do
    swap 0 last;
    sift 0 (last - 1)
  done

let percentile (sorted : samples) n p =
  if supported ~n p then Some sorted.{max 0 (rank ~n p - 1)} else None

let failed ~expected ~delivered_correctly ~duplicates =
  expected - delivered_correctly + duplicates

let failed_of_deliveries ~n ~deliveries ~correct =
  let ok = ref 0 and dups = ref 0 in
  for i = 0 to n - 1 do
    let d = deliveries i in
    if d >= 1 && correct i then incr ok;
    if d > 1 then dups := !dups + (d - 1)
  done;
  failed ~expected:n ~delivered_correctly:!ok ~duplicates:!dups

let due ~anchor ~rate i = anchor +. (float_of_int i /. rate)
