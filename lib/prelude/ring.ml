(* A power-of-two array of slots. Slots hold [Obj.t] with an out-of-band
   sentinel for an empty one, as in [Spsc_ring]: an item is stored as is,
   and the array stays a regular (boxed) one even when ['a = float]. *)
type 'a t = {
  mutable slots : Obj.t array;
  mutable head : int;
  mutable len : int;
}

let nil : Obj.t = Obj.repr (ref ())
let create () = { slots = Array.make 16 nil; head = 0; len = 0 }
let length r = r.len
let is_empty r = r.len = 0

let push (r : 'a t) (x : 'a) =
  let n = Array.length r.slots in
  if r.len = n then begin
    let slots = Array.make (2 * n) nil in
    for i = 0 to n - 1 do
      slots.(i) <- r.slots.((r.head + i) land (n - 1))
    done;
    r.slots <- slots;
    r.head <- 0
  end;
  r.slots.((r.head + r.len) land (Array.length r.slots - 1)) <- Obj.repr x;
  r.len <- r.len + 1

let take (r : 'a t) i : 'a =
  let x = r.slots.(i) in
  r.slots.(i) <- nil;
  r.len <- r.len - 1;
  Obj.obj x

let pop r =
  if r.len = 0 then invalid_arg "Ring.pop: empty";
  let i = r.head in
  r.head <- (i + 1) land (Array.length r.slots - 1);
  take r i

let pop_back r =
  if r.len = 0 then invalid_arg "Ring.pop_back: empty";
  take r ((r.head + r.len - 1) land (Array.length r.slots - 1))

let clear r =
  while r.len > 0 do
    ignore (pop r)
  done
