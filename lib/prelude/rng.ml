(* The splitmix64 state lives unboxed in 8 bytes: a [mutable int64] field
   would box every update. Each draw below does its whole state update and
   finalization inside one function, so the int64 intermediates stay in
   registers; only [int64] itself returns a boxed value. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

(* Finalizer from the splitmix64 reference implementation. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let copy = Bytes.copy

let int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix s

let split t = of_state (int64 t)

(* [mix] inlined by hand: a call would box its result. *)
let bits53 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  let z = Int64.mul (Int64.logxor s (Int64.shift_right_logical s 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 11)

(* The top 53 bits as a uniform double in [0, 1). *)
let float t = Float.of_int (bits53 t) *. 0x1p-53

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  let mask = Int64.of_int max_int in
  let rec loop () =
    let v = Int64.to_int (Int64.logand (int64 t) mask) in
    (* Rejection sampling to avoid modulo bias. *)
    let r = v mod bound in
    if v - r + (bound - 1) < 0 then loop () else r
  in
  loop ()

let int_in_range t lo hi =
  if lo > hi then invalid_arg "Rng.int_in_range: lo > hi";
  lo + int t (hi - lo + 1)

let float_in_range t lo hi = lo +. ((hi -. lo) *. float t)

let bool t = Int64.logand (int64 t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let pick t a =
  if Array.length a = 0 then invalid_arg "Rng.pick: empty array";
  a.(int t (Array.length a))
