(* Each op declares the shape-restricted [inline] twin of its behavior
   function where one exists (one-in/one-out maps, zero-or-one filters), so
   the fused-chain compiler can compose the bodies without building the
   intermediate singleton lists. The twin must stay semantically identical
   to the list-returning function next to it. *)

let stateless ?output_selectivity ?inline ~name fn =
  Behavior.make ?output_selectivity ?inline ~name (fun () -> fn)

let map ~name f =
  stateless ~inline:(Behavior.Inline_map (fun () -> f)) ~name (fun t -> [ f t ])

let identity = map ~name:"identity" (fun t -> t)

(* The elementwise maps write a fresh flat float array in a loop:
   [Array.map] would call a closure per element and box its result. *)
let scale ~factor =
  map ~name:(Printf.sprintf "scale_%g" factor) (fun t ->
      let src = t.Tuple.values in
      let dst = Array.create_float (Array.length src) in
      for i = 0 to Array.length src - 1 do
        Array.unsafe_set dst i (Array.unsafe_get src i *. factor)
      done;
      Tuple.with_values t dst)

let offset ~delta =
  map ~name:(Printf.sprintf "offset_%g" delta) (fun t ->
      let src = t.Tuple.values in
      let dst = Array.create_float (Array.length src) in
      for i = 0 to Array.length src - 1 do
        Array.unsafe_set dst i (Array.unsafe_get src i +. delta)
      done;
      Tuple.with_values t dst)

let compute ~iterations =
  map ~name:(Printf.sprintf "compute_%d" iterations) (fun t ->
      let acc = ref (Tuple.value t 0) in
      for i = 1 to iterations do
        acc := !acc +. (sin (float_of_int i) *. cos !acc)
      done;
      let values = Array.copy t.Tuple.values in
      if Array.length values > 0 then values.(0) <- !acc;
      Tuple.with_values t values)

let threshold_filter ~index ~threshold =
  let keep t = Tuple.value t index >= threshold in
  stateless
    ~inline:(Behavior.Inline_filter (fun () t -> if keep t then Some t else None))
    ~name:(Printf.sprintf "filter_v%d_ge_%g" index threshold)
    (fun t -> if keep t then [ t ] else [])

let sampler ~keep_one_in =
  if keep_one_in < 1 then invalid_arg "Stateless_ops.sampler: keep_one_in < 1";
  Behavior.make
    ~output_selectivity:(1.0 /. float_of_int keep_one_in)
    ~inline:
      (Behavior.Inline_filter
         (fun () ->
           let count = ref 0 in
           fun t ->
             incr count;
             if !count mod keep_one_in = 0 then Some t else None))
    ~name:(Printf.sprintf "sample_1_in_%d" keep_one_in)
    (fun () ->
      let count = ref 0 in
      fun t ->
        incr count;
        if !count mod keep_one_in = 0 then [ t ] else [])

let flat_split ~parts =
  if parts < 1 then invalid_arg "Stateless_ops.flat_split: parts < 1";
  Behavior.make
    ~output_selectivity:(float_of_int parts)
    ~name:(Printf.sprintf "split_%d" parts)
    (fun () t ->
      List.init parts (fun part ->
          let values =
            t.Tuple.values |> Array.to_list
            |> List.filteri (fun i _ -> i mod parts = part)
            |> Array.of_list
          in
          Tuple.with_values t values))

let project ~keep =
  map ~name:(Printf.sprintf "project_%d" keep) (fun t ->
      let n = min keep (Array.length t.Tuple.values) in
      Tuple.with_values t (Array.sub t.Tuple.values 0 (max n 0)))

let rekey ~buckets =
  if buckets < 1 then invalid_arg "Stateless_ops.rekey: buckets < 1";
  map ~name:(Printf.sprintf "rekey_%d" buckets) (fun t ->
      let h =
        Array.fold_left
          (fun acc v -> (acc * 31) + int_of_float (Float.abs v *. 1e3))
          17 t.Tuple.values
      in
      Tuple.with_key t (abs h mod buckets))

let enrich ~table =
  map ~name:"enrich" (fun t ->
      let values = Array.append t.Tuple.values [| table t.Tuple.key |] in
      Tuple.with_values t values)
