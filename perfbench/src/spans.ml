(* Spans the benchmark records around its own calls into each layer's
   public functions. Only the main domain records, so no synchronisation
   is needed; spans stay in memory and are written once, at the end. *)

type span = {
  id : int;
  parent : int;  (** -1 for a top-level span. *)
  name : string;
  start : float;
  stop : float;
  count : int;  (** Calls covered, for spans around a batch of calls. *)
}

let enabled = ref false
let recorded = ref []
let next_id = ref 0
let current = ref (-1)

let record ?(count = 1) name f =
  if not !enabled then f ()
  else begin
    let id = !next_id and parent = !current in
    incr next_id;
    current := id;
    let start = Common.now () in
    Fun.protect
      ~finally:(fun () ->
        current := parent;
        recorded :=
          { id; parent; name; start; stop = Common.now (); count }
          :: !recorded)
      f
  end

(* Each line carries the span's self time: its duration minus the part
   its children cover. *)
let write path =
  let children = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt children c.parent) in
      Hashtbl.replace children c.parent (prev +. (c.stop -. c.start)))
    !recorded;
  let oc = open_out path in
  List.iter
    (fun s ->
      let covered = Option.value ~default:0.0 (Hashtbl.find_opt children s.id) in
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"name\":%S,\"start\":%.9f,\"stop\":%.9f,\"count\":%d,\"self_s\":%.9f}\n"
        s.id s.parent s.name s.start s.stop s.count (s.stop -. s.start -. covered))
    (List.rev !recorded);
  close_out oc
