(** Deploy-time staging of fused groups into one flat closure.

    The interpreted meta-operator (in {!Executor}) walks a fused group's
    members per tuple: closure dispatch through vertex-indexed tables, an
    intermediate result list per member, and one routing draw per produced
    tuple. [plan] compiles the same walk once, at deploy time, into a
    straight-line composition of the member behaviors: one-in/one-out
    members declared through {!Ss_operators.Behavior.inline_spec} compose
    directly (no intermediate list, no per-member closure table lookup),
    and in-group hops bind the successor's step function instead of going
    back through a dispatch table. Stateful members ([Inline_fold],
    [Inline_window]) thread their explicit state through the same loop and
    surface it on the staged {!instance} so the composed chain can hand
    state off across a live resize.

    {b Count parity} is the contract that makes the compiled path safe to
    select automatically: a compiled chain consumes exactly the same
    rng draws, in the same order, as the interpreted walk — one
    {!Ss_prelude.Discrete.sample} per produced tuple at every member that
    has successors (single-successor members included), and none at
    members without successors. Per-vertex consumed/produced counts are
    therefore bit-identical to the interpreted executor and to
    {!Ss_sim.Engine.replay} for any seed. *)

type env = {
  rng : Ss_prelude.Rng.t;
      (** The fused group's routing rng — the caller seeds it exactly as
          the interpreted meta-operator would. *)
  consumed : int array;
      (** Topology-sized per-vertex counters the chain increments in
          place. Plain arrays: the chain is single-writer; the caller
          flushes them to its shared counters. *)
  produced : int array;  (** Same contract as [consumed]. *)
  emit : int -> int -> Ss_operators.Tuple.t -> unit;
      (** [emit member dest out] delivers [out] on the group-external edge
          [member -> dest]. *)
}

type chain = env -> Ss_operators.Tuple.t -> unit
(** Applying a chain to an [env] allocates fresh member state instances
    (like {!Ss_operators.Behavior.instantiate}) and returns the group's
    entry step: feed it one input tuple and it runs the whole group to
    quiescence, counting and emitting through the [env]. *)

type instance = {
  step : Ss_operators.Tuple.t -> unit;
      (** The group's entry step: one input tuple runs the whole group to
          quiescence, counting and emitting through the staging [env]. *)
  export : unit -> Ss_operators.Behavior.keyed_state;
      (** Snapshot every stateful member's keyed state as one flat list.
          Each entry's value array is prefixed with the owning member's
          vertex id, so entries repartition across replicas by tuple key
          while still finding their member on import. Call only when the
          instance has quiesced. *)
  import : Ss_operators.Behavior.keyed_state -> unit;
      (** Load an {!export} snapshot (or the key-subset this instance now
          owns) into the member state instances, before any [step] call. *)
}
(** One staged occurrence of a fused group: the flat loop plus the
    state-handoff pair that keeps a compiled group migratable. *)

type staged = env -> instance
(** Like {!chain}, but the application also surfaces the member states. *)

type telemetry = {
  sample_every : int;
      (** Time the first, then every k-th, invocation per member — the
          same deterministic schedule as the interpreted executor's
          per-vertex sampling, so histogram sample counts match. *)
  edge_count : int array;
      (** Edge-indexed transfer counters the chain increments in place —
          internal hops and external emissions alike. Plain ints: the
          chain is single-writer; the caller flushes them to its shared
          telemetry sink on its own cadence. *)
  edge_index : int -> int -> int;
      (** [edge_index u v] is the slot of topology edge [u -> v] in
          [edge_count]. *)
  record_latency : int -> float -> unit;
      (** [record_latency v age]: input-tuple age at member [v] on a
          timed invocation. *)
  record_service : int -> float -> unit;
      (** [record_service v dt]: duration of a timed invocation of member
          [v]'s behavior (the behavior application only — routing is
          excluded, as in the interpreted executor). *)
  birth : float ref;
      (** The current group-input tuple's birth timestamp, set by the
          caller before each [step]. Internal hops are synchronous, so
          every member sees the group input's birth — exactly the
          interpreted walk's behavior. *)
}
(** Instrumentation hooks for a telemetry-on compiled run. When supplied
    to {!plan} or {!interpret}, the staged loop accumulates edge counts in
    plain local slots and samples latency/service on the interpreted
    executor's 1-in-k schedule; histograms are recorded directly, edge
    counts are flushed by the caller. *)

val of_chain : chain -> staged
(** Adapt a caller-supplied (or generated) chain: no exportable state. *)

val linear : Ss_topology.Topology.t -> members:int list -> bool
(** Every member has at most one successor (in-group or external). Linear
    groups make routing draws count-neutral — each draw picks among one
    destination — so per-vertex counts are a deterministic function of the
    inputs alone. That is what lets a replicated fused group (which splits
    the rng stream across replicas) keep counts bit-identical to the
    single-actor walk and to {!Ss_sim.Engine.replay}. *)

val migratable :
  members:int list -> registry:(int -> Ss_operators.Behavior.t) -> bool
(** Every stateful member exposes exportable state through its inline hook
    ({!Ss_operators.Behavior.inline_migratable}) or its [migrate]
    interface, and none is evented: a staged instance's
    {!instance.export}/{!instance.import} then carry the group's complete
    state, so live resizing a replica hosting it loses nothing. Stateless
    members pass trivially (nothing to move). *)

val plan :
  ?telemetry:telemetry ->
  Ss_topology.Topology.t ->
  members:int list ->
  registry:(int -> Ss_operators.Behavior.t) ->
  (staged, string) result
(** Stage [members] of the topology as one compiled chain.

    Eligibility: the members must form a legal single-front group
    ({!Ss_topology.Topology.front_end_of} — one entry vertex, no source,
    no duplicates; the in-group sub-graph of any well-formed topology is
    acyclic, so trees and diamonds both stage), and no member may be
    evented — watermark and late-tuple paths need the interpreted walk.
    Returns [Error reason] for shapes it declines; the caller falls back
    to interpretation. *)

val interpret :
  ?telemetry:telemetry ->
  Ss_topology.Topology.t ->
  members:int list ->
  registry:(int -> Ss_operators.Behavior.t) ->
  (staged, string) result
(** The Algorithm-4-faithful twin of {!plan}: vertex-indexed closure
    tables, an intermediate result list per member, a routing draw per
    produced tuple. Same eligibility, same counts, same draws — it exists
    as the apples-to-apples interpreted baseline where the classic
    executor walk is not available (inside fission replicas) and for
    benchmarking the compiled tier's speedup. *)
