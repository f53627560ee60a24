type t = {
  probs : float array;
  cumulative : float array;  (* cumulative.(i) = sum probs.(0..i) *)
}

let of_weights weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Discrete.of_weights: empty support";
  Array.iter
    (fun w ->
      if w < 0.0 || Float.is_nan w then
        invalid_arg "Discrete.of_weights: negative or NaN weight")
    weights;
  let total = Array.fold_left ( +. ) 0.0 weights in
  if total <= 0.0 then invalid_arg "Discrete.of_weights: all weights are zero";
  let probs = Array.map (fun w -> w /. total) weights in
  let cumulative = Array.make n 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p ->
      acc := !acc +. p;
      cumulative.(i) <- !acc)
    probs;
  cumulative.(n - 1) <- 1.0;
  { probs; cumulative }

let uniform n =
  if n < 1 then invalid_arg "Discrete.uniform: empty support";
  of_weights (Array.make n 1.0)

let zipf ~alpha n =
  if n < 1 then invalid_arg "Discrete.zipf: empty support";
  of_weights (Array.init n (fun k -> (float_of_int (k + 1)) ** -.alpha))

let support t = Array.length t.probs
let prob t i = t.probs.(i)
let probs t = Array.copy t.probs

(* Allocation-free: the draw comes back as an immediate int and is scaled
   here, exactly as [Rng.float] scales it, so the stream and the chosen
   index are the same as drawing [Rng.float]; the search is a loop, not a
   closure. *)
let sample rng t =
  let u = Float.of_int (Rng.bits53 rng) *. 0x1p-53 in
  let c = t.cumulative in
  (* Smallest index whose cumulative value exceeds u. *)
  let lo = ref 0 and hi = ref (Array.length c - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Array.unsafe_get c mid > u then hi := mid else lo := mid + 1
  done;
  !lo

let max_prob t = Array.fold_left Float.max 0.0 t.probs

let entropy t =
  Array.fold_left
    (fun acc p -> if p > 0.0 then acc -. (p *. (log p /. log 2.0)) else acc)
    0.0 t.probs

let pp ppf t =
  Format.fprintf ppf "@[<h>[";
  Array.iteri
    (fun i p ->
      if i > 0 then Format.fprintf ppf "; ";
      Format.fprintf ppf "%.4f" p)
    t.probs;
  Format.fprintf ppf "]@]"
