open Ss_prelude
open Ss_topology
open Ss_operators

type env = {
  rng : Rng.t;
  consumed : int array;
  produced : int array;
  emit : int -> int -> Tuple.t -> unit;
}

type chain = env -> Tuple.t -> unit

type instance = {
  step : Tuple.t -> unit;
  export : unit -> Behavior.keyed_state;
  import : Behavior.keyed_state -> unit;
}

type staged = env -> instance

type telemetry = {
  sample_every : int;
  edge_count : int array;
  edge_index : int -> int -> int;
  record_latency : int -> float -> unit;
  record_service : int -> float -> unit;
  birth : float ref;
}

let of_chain chain env =
  { step = chain env; export = (fun () -> []); import = ignore }

let linear topology ~members =
  List.for_all
    (fun v -> List.length (Topology.succs topology v) <= 1)
    members

let migratable ~members ~registry =
  List.for_all
    (fun v ->
      let b = registry v in
      (not (Behavior.is_evented b))
      &&
      match b.Behavior.state_kind with
      | Behavior.Stateless_op -> true
      | Behavior.Partitioned_op | Behavior.Stateful_op ->
          Behavior.inline_migratable b || Option.is_some b.Behavior.migrate)
    members

(* Merged state encoding: each member's keyed entries ride in one flat
   list, the value array prefixed with the owning member's vertex id. The
   entry key stays the tuple key, so a repartitioning emitter can route
   entries by key without understanding the payload; the tag finds the
   member again on import. *)
let tag v st =
  List.map
    (fun (k, a) -> (k, Array.append [| float_of_int v |] a))
    st

let untag_for v st =
  List.filter_map
    (fun (k, a) ->
      if Array.length a >= 1 && int_of_float a.(0) = v then
        Some (k, Array.sub a 1 (Array.length a - 1))
      else None)
    st

(* Mirror of the executor's [invoke] sampling: time the first, then every
   k-th, invocation of member [v] — latency from the group input's birth,
   service around the behavior application only. Polymorphic in the
   application's result so every inline shape keeps its direct form. *)
let timed tl v f =
  let k = tl.sample_every in
  let left = ref 1 in
  fun t ->
    decr left;
    if !left <= 0 then begin
      left := k;
      let start = Unix.gettimeofday () in
      tl.record_latency v (start -. !(tl.birth));
      let r = f t in
      tl.record_service v (Unix.gettimeofday () -. start);
      r
    end
    else f t

(* Shared eligibility: one legal entry vertex, no evented member. *)
let validate topology ~members ~registry =
  match Topology.front_end_of topology members with
  | Error e -> Error e
  | Ok front -> (
      match
        List.find_opt (fun v -> Behavior.is_evented (registry v)) members
      with
      | Some v ->
          Error
            (Printf.sprintf
               "member %d is evented (watermark/late hooks need the \
                interpreted walk)"
               v)
      | None -> Ok front)

(* One destination table per member, in [Topology.succs] order — the same
   order the interpreted chooser samples over, so the index drawn by
   [Discrete.sample] names the same successor on both paths. *)
let route_of topology v =
  match Topology.succs topology v with
  | [] -> ([||], None)
  | edges ->
      ( Array.of_list (List.map fst edges),
        Some (Discrete.of_weights (Array.of_list (List.map snd edges))) )

let plan ?telemetry topology ~members ~registry =
  match validate topology ~members ~registry with
  | Error e -> Error e
  | Ok front ->
      let n = Topology.size topology in
      let in_group = Array.make n false in
      List.iter (fun v -> in_group.(v) <- true) members;
      (* Reverse topological order of the members: every in-group
         successor of a member sorts after it, so building the member
         steps back to front needs no recursion and every in-group
         hop can bind its successor's already-staged step directly.
         Terminates on any legal (acyclic) sub-graph, fig11's diamond
         included. *)
      let rev_members =
        Array.to_list (Topology.topological_order topology)
        |> List.filter (fun v -> in_group.(v))
        |> List.rev
      in
      let staged env =
        let nop (_ : Tuple.t) = () in
        let steps = Array.make n nop in
        let states = ref [] in
        let { rng; consumed; produced; emit } = env in
        (* The continuation of one destination: the successor's
           already-staged step for in-group hops, the external emit
           otherwise — with the edge transfer counted in front when
           telemetry is on (internal and external edges alike feed the
           local accumulator; the caller flushes). *)
        let continue v dest =
          let base =
            if in_group.(dest) then steps.(dest)
            else fun out -> emit v dest out
          in
          match telemetry with
          | None -> base
          | Some tl ->
              let e = tl.edge_index v dest in
              let ec = tl.edge_count in
              fun out ->
                ec.(e) <- ec.(e) + 1;
                base out
        in
        List.iter
          (fun v ->
            let dests, dist = route_of topology v in
            (* Route one result of [v], drawing exactly as the
               interpreted chooser would: one [Discrete.sample] per
               produced tuple when the member has successors, no draw
               when it has none — so the group rng stays in lockstep
               with the interpreted walk and with [Engine.replay]. *)
            let route1 =
              match dist with
              | None -> fun (_ : Tuple.t) -> produced.(v) <- produced.(v) + 1
              | Some _ when Array.length dests = 1 ->
                  (* One-point support: the interpreted chooser still
                     consumes one draw here, so draw it raw — same
                     stream position, without the sampler's search, and
                     as an immediate int, so nothing is boxed. *)
                  let k0 = continue v dests.(0) in
                  fun out ->
                    produced.(v) <- produced.(v) + 1;
                    ignore (Rng.bits53 rng : int);
                    k0 out
              | Some dist ->
                  let ks = Array.map (continue v) dests in
                  fun out ->
                    produced.(v) <- produced.(v) + 1;
                    ks.(Discrete.sample rng dist) out
            in
            let b = registry v in
            let step =
              match Behavior.inline_spec b with
              | Some (Behavior.Inline_map mk) ->
                  let f = mk () in
                  let f =
                    match telemetry with
                    | None -> f
                    | Some tl -> timed tl v f
                  in
                  fun t ->
                    consumed.(v) <- consumed.(v) + 1;
                    route1 (f t)
              | Some (Behavior.Inline_filter mk) ->
                  let f = mk () in
                  let f =
                    match telemetry with
                    | None -> f
                    | Some tl -> timed tl v f
                  in
                  fun t ->
                    consumed.(v) <- consumed.(v) + 1;
                    (match f t with Some out -> route1 out | None -> ())
              | Some (Behavior.Inline_fold mk) ->
                  let s = mk () in
                  states :=
                    (v, s.Behavior.sexport, s.Behavior.simport) :: !states;
                  let f =
                    match telemetry with
                    | None -> s.Behavior.sstep
                    | Some tl -> timed tl v s.Behavior.sstep
                  in
                  fun t ->
                    consumed.(v) <- consumed.(v) + 1;
                    route1 (f t)
              | Some (Behavior.Inline_window mk) ->
                  let s = mk () in
                  states :=
                    (v, s.Behavior.sexport, s.Behavior.simport) :: !states;
                  let f =
                    match telemetry with
                    | None -> s.Behavior.sstep
                    | Some tl -> timed tl v s.Behavior.sstep
                  in
                  fun t ->
                    consumed.(v) <- consumed.(v) + 1;
                    (match f t with Some out -> route1 out | None -> ())
              | None ->
                  let fn =
                    match b.Behavior.migrate with
                    | Some mk ->
                        let m = mk () in
                        states :=
                          ( v,
                            m.Behavior.export_state,
                            m.Behavior.import_state )
                          :: !states;
                        m.Behavior.mfn
                    | None -> Behavior.instantiate b
                  in
                  let fn =
                    match telemetry with
                    | None -> fn
                    | Some tl -> timed tl v fn
                  in
                  fun t ->
                    consumed.(v) <- consumed.(v) + 1;
                    List.iter route1 (fn t)
            in
            steps.(v) <- step)
          rev_members;
        {
          step = steps.(front);
          export =
            (fun () ->
              List.concat_map (fun (v, ex, _) -> tag v (ex ())) !states);
          import =
            (fun st -> List.iter (fun (v, _, im) -> im (untag_for v st)) !states);
        }
      in
      Ok staged

let interpret ?telemetry topology ~members ~registry =
  match validate topology ~members ~registry with
  | Error e -> Error e
  | Ok front ->
      let n = Topology.size topology in
      let in_group = Array.make n false in
      List.iter (fun v -> in_group.(v) <- true) members;
      let routes = Array.make n ([||], None) in
      List.iter (fun v -> routes.(v) <- route_of topology v) members;
      let staged env =
        let { rng; consumed; produced; emit } = env in
        let fns = Array.make n (fun (_ : Tuple.t) -> ([] : Tuple.t list)) in
        let states = ref [] in
        List.iter
          (fun v ->
            let b = registry v in
            let fn =
              (* Algorithm 4 walks list-returning closures; the stateful
                 inline hooks are wrapped back to that form so the
                 interpreted instance still exports/imports its state
                 across a live resize. *)
              match Behavior.inline_spec b with
              | Some (Behavior.Inline_fold mk) ->
                  let s = mk () in
                  states :=
                    (v, s.Behavior.sexport, s.Behavior.simport) :: !states;
                  fun t -> [ s.Behavior.sstep t ]
              | Some (Behavior.Inline_window mk) ->
                  let s = mk () in
                  states :=
                    (v, s.Behavior.sexport, s.Behavior.simport) :: !states;
                  fun t ->
                    (match s.Behavior.sstep t with
                    | Some out -> [ out ]
                    | None -> [])
              | Some (Behavior.Inline_map _ | Behavior.Inline_filter _)
              | None -> (
                  match b.Behavior.migrate with
                  | Some mk ->
                      let m = mk () in
                      states :=
                        (v, m.Behavior.export_state, m.Behavior.import_state)
                        :: !states;
                      m.Behavior.mfn
                  | None -> Behavior.instantiate b)
            in
            fns.(v) <-
              (match telemetry with None -> fn | Some tl -> timed tl v fn))
          members;
        (* Algorithm 4: follow each result through the sub-graph until it
           exits; the sub-graph is acyclic so the walk terminates. One
           routing draw per produced tuple at members with successors —
           the same stream positions as the compiled loop. *)
        let rec walk v t =
          consumed.(v) <- consumed.(v) + 1;
          route_outs v (fns.(v) t)
        and route_outs v outs =
          let dests, dist = routes.(v) in
          match dist with
          | None ->
              List.iter
                (fun (_ : Tuple.t) -> produced.(v) <- produced.(v) + 1)
                outs
          | Some dist ->
              List.iter
                (fun out ->
                  produced.(v) <- produced.(v) + 1;
                  let dest = dests.(Discrete.sample rng dist) in
                  (match telemetry with
                  | Some tl ->
                      let e = tl.edge_index v dest in
                      tl.edge_count.(e) <- tl.edge_count.(e) + 1
                  | None -> ());
                  if in_group.(dest) then walk dest out else emit v dest out)
                outs
        in
        {
          step = (fun t -> walk front t);
          export =
            (fun () ->
              List.concat_map (fun (v, ex, _) -> tag v (ex ())) !states);
          import =
            (fun st -> List.iter (fun (v, _, im) -> im (untag_for v st)) !states);
        }
      in
      Ok staged
