(* The paper's Fig. 11 topology as the runtime workloads deploy it, the
   inputs they feed it, and the sink-side record that proves the outputs
   right.

   Every behavior is a one-in/one-out catalog operator, so each source
   tuple reaches op6 exactly once, along one of four paths:
     A  op1 -> op2 -> op6                     values [| compute x0; x1 |]
     C  op1 -> op3 -> op5 -> op6              values [| x0 *1.5*1.5; x1 *1.5*1.5 |]
     B  op1 -> op3 -> op4 -> op6              values [| count |]
     D  op1 -> op3 -> op5 -> op4 -> op6       values [| count |]
   Keys and timestamps survive every path. The check below needs no copy
   of the executor's routing: path A and C values are functions of the
   input alone, and whatever order op4 sees its tuples in, the counts it
   emits for a key are exactly 1, 2, ..., (tuples of that key it saw). *)

open Ss_topology
module Tuple = Ss_operators.Tuple
module Behavior = Ss_operators.Behavior
module Catalog = Ss_operators.Catalog
module A1 = Bigarray.Array1

let names = [| "op1"; "op2"; "op3"; "op4"; "op5"; "op6" |]

(* Table 1's fusion, compiled by the executor. *)
let fused = [ [ 2; 3; 4 ] ]
let sink = 5
let keys = 1024

(* Table 1 service times. The source is declared at memory speed: the
   closed loop pulls it as fast as the operators drain it, and Algorithm 1
   on the measured twin keeps the source's declared rate. *)
let topology =
  let op ms name = Operator.make ~service_time:(ms /. 1e3) name in
  Topology.create_exn
    [|
      Operator.source ~rate:1e7 "op1";
      Operator.with_replicas (op 1.2 "op2") 2;
      op 0.7 "op3";
      Operator.make
        ~kind:(Operator.Partitioned_stateful (Ss_prelude.Discrete.uniform keys))
        ~service_time:2e-3 "op4";
      op 1.5 "op5";
      op 0.2 "op6";
    |]
    [
      (0, 1, 0.7); (0, 2, 0.3); (2, 3, 0.5); (2, 4, 0.5);
      (4, 3, 0.35); (4, 5, 0.65); (3, 5, 1.0); (1, 5, 1.0);
    ]

let catalog v =
  Catalog.find_exn
    (match v with 1 -> "compute_200" | 3 -> "count_by_key" | _ -> "scale_1.5")

(* Inputs: a pure function of the seed and the ordinal, so the verifier
   regenerates any tuple without storing it. *)
let key ~seed i = Hashtbl.seeded_hash seed i land (keys - 1)
let x0 ~seed i = (float_of_int (Hashtbl.seeded_hash (seed + 1) i land 0xffff) /. 16.0) +. 0.25
let x1 i = float_of_int (i land 0xfff) +. 0.5
let input ~seed ~ts i = Tuple.make ~ts ~key:(key ~seed i) [| x0 ~seed i; x1 i |]

(* What the sink saw, per source ordinal, in buffers outside the OCaml
   heap. [shape] classifies the tuple entering op6 by its path. *)
let path_a = 1
let path_c = 2
let path_count = 3
let wrong = 4

type recorder = {
  cap : int;
  seed : int;
  ordinal_scale : float;  (** ordinal = round (ts * scale). *)
  seen : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t;
  shape : (int, Bigarray.int8_unsigned_elt, Bigarray.c_layout) A1.t;
  v0 : Stats.samples;
  arrival : Stats.samples;
  mutable stray : int;  (** Deliveries whose ordinal is out of range. *)
  mutable delivered : int;
}

let recorder ~cap ~seed ~ordinal_scale =
  let bytes () = A1.create Bigarray.int8_unsigned Bigarray.c_layout cap in
  let floats () = A1.create Bigarray.float64 Bigarray.c_layout cap in
  {
    cap; seed; ordinal_scale;
    seen = bytes (); shape = bytes (); v0 = floats (); arrival = floats ();
    stray = 0; delivered = 0;
  }

let reset r n =
  A1.fill (A1.sub r.seen 0 (min n r.cap)) 0;
  r.stray <- 0;
  r.delivered <- 0

let ordinal r (t : Tuple.t) = int_of_float (Float.round (t.Tuple.ts *. r.ordinal_scale))

let classify r i (t : Tuple.t) =
  if t.Tuple.key <> key ~seed:r.seed i then wrong
  else
    match t.Tuple.values with
    | [| _ |] -> path_count
    | [| _; v1 |] ->
        let x = x1 i in
        if v1 = x then path_a else if v1 = x *. 1.5 *. 1.5 then path_c else wrong
    | _ -> wrong

(* Runs inside op6's actor, the only writer. *)
let record r (t : Tuple.t) =
  let now = Common.now () in
  r.delivered <- r.delivered + 1;
  let i = ordinal r t in
  if i < 0 || i >= r.cap then r.stray <- r.stray + 1
  else begin
    let s = A1.unsafe_get r.seen i in
    if s < 255 then A1.unsafe_set r.seen i (s + 1);
    if s = 0 then begin
      A1.unsafe_set r.arrival i now;
      A1.unsafe_set r.v0 i (Tuple.value t 0);
      A1.unsafe_set r.shape i (classify r i t)
    end
  end

(* op6 is [scale] behind the recorder. [on_call], when given, sees each
   tuple entering the vertices the source feeds (op2 and op3), before
   their behavior runs. *)
let registry ?on_call r v =
  let b = catalog v in
  let wrap hook =
    Behavior.make ~state_kind:b.Behavior.state_kind ~name:b.Behavior.name
      (fun () ->
        let f = Behavior.instantiate b in
        fun t ->
          hook t;
          f t)
  in
  if v = sink then wrap (record r)
  else
    match on_call with
    | Some hook when v = 1 || v = 2 -> wrap hook
    | _ -> b

(* Path A is re-derived for one ordinal in [sample_every]: it is the only
   check that costs a [compute] call. *)
let sample_every = 16

type verdict = {
  failed : int;
  path_a_count : int;  (** Tuples that took op2. *)
  path_count_count : int;  (** Tuples that went through op4. *)
}

let verify r ~n =
  if n > r.cap then invalid_arg "Fig11.verify: more tuples than the recorder holds";
  let seed = r.seed in
  let compute = Behavior.instantiate (catalog 1) in
  (* op4's counts for a key must be a permutation of 1 .. m_key: give
     each key a slice of a bitmap, m_key wide, and tick each count off. *)
  let per_key = Array.make keys 0 in
  let a_count = ref 0 and c_count = ref 0 in
  for i = 0 to n - 1 do
    if A1.get r.seen i > 0 then
      let s = A1.get r.shape i in
      if s = path_count then begin
        incr c_count;
        per_key.(key ~seed i) <- per_key.(key ~seed i) + 1
      end
      else if s = path_a then incr a_count
  done;
  let offset = Array.make keys 0 in
  for k = 1 to keys - 1 do
    offset.(k) <- offset.(k - 1) + per_key.(k - 1)
  done;
  let ticks = A1.create Bigarray.int8_unsigned Bigarray.c_layout (max 1 !c_count) in
  A1.fill ticks 0;
  let count_ok i =
    let k = key ~seed i and c = A1.get r.v0 i in
    let m = per_key.(k) in
    Float.is_integer c && c >= 1.0 && c <= float_of_int m
    &&
    let slot = offset.(k) + int_of_float c - 1 in
    A1.get ticks slot = 0 && (A1.set ticks slot 1; true)
  in
  let correct i =
    let s = A1.get r.shape i and v = A1.get r.v0 i in
    if s = path_c then v = x0 ~seed i *. 1.5 *. 1.5
    else if s = path_count then count_ok i
    else if s = path_a then
      i mod sample_every <> 0
      || (match compute (input ~seed ~ts:0.0 i) with
         | [ o ] -> Tuple.value o 0 = v
         | _ -> false)
    else false
  in
  let failed =
    Stats.failed_of_deliveries ~n ~deliveries:(fun i -> A1.get r.seen i) ~correct
  in
  { failed = failed + r.stray; path_a_count = !a_count;
    path_count_count = !c_count }

(* Per-vertex consumed counts must equal [Engine.replay], and the paths
   the sink saw must agree with them: op2 consumed exactly the path-A
   tuples, op4 exactly the counted ones. Each miscount is one failure. *)
let count_mismatches ~seed ~n ~consumed verdict =
  let expected, _ = Ss_sim.Engine.replay ~fused ~seed ~tuples:n topology in
  let diff = ref 0 in
  Array.iteri (fun v c -> diff := !diff + abs (c - expected.(v))) consumed;
  !diff
  + abs (verdict.path_a_count - expected.(1))
  + abs (verdict.path_count_count - expected.(3))
