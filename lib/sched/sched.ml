type task = unit -> unit

type _ Effect.t +=
  | Suspend : ((unit -> unit) -> bool) -> unit Effect.t
  | Yield : unit Effect.t

let suspend ~register = Effect.perform (Suspend register)
let yield () = Effect.perform Yield

let next_id = Atomic.make 0

(* The "nothing found" answer of every pop, steal and scan: a physical
   sentinel compared with [==], so finding work allocates no option. It
   also fills empty deque slots. It never runs. *)
let no_task : task = fun () -> invalid_arg "Sched: the no-task sentinel ran"

(* Which pool+worker the current domain belongs to, so [enqueue] can route
   to the local deque instead of the injection path. *)
let dls_key : (int * int) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

(* Worker-count / group-shape resolution shared by both implementations. *)
let resolve_shape ~workers ~groups =
  match groups with
  | Some sizes ->
      if Array.length sizes = 0 then
        invalid_arg "Sched.create: groups must be non-empty";
      Array.iter
        (fun s ->
          if s < 1 then
            invalid_arg "Sched.create: every group needs at least one worker")
        sizes;
      let sum = Array.fold_left ( + ) 0 sizes in
      (match workers with
      | Some w when w <> sum ->
          invalid_arg "Sched.create: workers must equal the sum of groups"
      | _ -> ());
      (sum, Array.copy sizes)
  | None ->
      let w =
        match workers with
        | Some w ->
            if w < 1 then invalid_arg "Sched.create: workers must be >= 1";
            w
        | None -> Stdlib.max 1 (Domain.recommended_domain_count ())
      in
      (w, [| w |])

(* Interruptible tick loop shared by both implementations: call [fn] every
   [interval] seconds until [finished ()]; the pipe read end becomes
   readable when the pool drains, so the final sleep is cut short instead
   of delaying join (and telemetry merge) by up to one full interval. *)
let tick_loop ~finished ~wake_rd interval fn =
  let rec loop () =
    if not (finished ()) then begin
      fn ();
      (match Unix.select [ wake_rd ] [] [] interval with
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

let notify_tick = function
  | Some wr -> (
      try ignore (Unix.write wr (Bytes.of_string "!") 0 1)
      with Unix.Unix_error _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Task slots: the park/resume cycle, shared by both implementations.

   Each task gets one slot when it is spawned, and every park and yield
   of the task reuses it: the pending continuation, the park generation
   that guards resumption, and the closures the cycle needs — [resume]
   (handed to [register]), [run] (what a queue holds while the task is
   runnable) and the [Some handler] values that [effc] returns. A cycle
   then allocates only what [perform] itself makes: the effect value and
   the continuation block.

   [gen] is even while the task runs and odd while it is parked. A park
   makes it odd; whoever moves it on to the next even value with a CAS
   owns that park's continuation — a [resume] (which enqueues [run]) or
   the handler itself when [register] returns [false]. So each park
   resumes exactly once, and a second or stale [resume] only loses the
   CAS. The [resume] closure is the same for every park, so a stale one
   that lands on a {e later} park wins it and wakes the task early — a
   spurious wakeup, which the [suspend] contract allows (callers retry).
   It never runs a continuation twice: a continuation is continued only
   by the winner of the generation it was parked under. *)

type slot = {
  mutable k : (unit, unit) Effect.Deep.continuation;
  mutable register : (unit -> unit) -> bool;
  gen : int Atomic.t;
}

(* Until its first park a slot holds placeholders. [no_k] is never
   continued: [run] is only enqueued by the winner of an odd generation,
   which a park publishes after storing the live continuation. *)
let no_k : (unit, unit) Effect.Deep.continuation = Obj.magic ()
let no_register : (unit -> unit) -> bool = fun _ -> false

(* The first activation of a task: [body] under the slot's handler.
   [enqueue] makes a resumed task runnable and may be called from any
   domain; [requeue] sends a yielding task behind the current worker's
   other runnable tasks and is called on the worker that runs it. *)
let make_task ~enqueue ~requeue ~on_return ~on_error body : task =
  let open Effect.Deep in
  let s = { k = no_k; register = no_register; gen = Atomic.make 0 } in
  let rec resume () =
    let g = Atomic.get s.gen in
    if g land 1 = 1 && Atomic.compare_and_set s.gen g (g + 1) then enqueue run
  and run () = continue s.k () in
  let on_suspend =
    Some
      (fun k ->
        (* Read [register] before publishing the park: from then on a
           stale [resume] may restart the task on another worker, which
           may suspend again and overwrite the slot. *)
        let register = s.register in
        s.k <- k;
        let g = Atomic.fetch_and_add s.gen 1 + 1 in
        if (not (register resume)) && Atomic.compare_and_set s.gen g (g + 1)
        then continue k ())
  in
  let on_yield =
    Some
      (fun k ->
        s.k <- k;
        requeue run)
  in
  let effc (type a) (eff : a Effect.t) :
      ((a, unit) continuation -> unit) option =
    match eff with
    | Suspend register ->
        s.register <- register;
        on_suspend
    | Yield -> on_yield
    | _ -> None
  in
  let handler = { retc = on_return; exnc = on_error; effc } in
  fun () -> match_with body () handler

module Ring = Ss_prelude.Ring

(* The front of a ring, or [no_task] when it is empty. *)
let pop_ring r = if Ring.is_empty r then no_task else Ring.pop r

(* ------------------------------------------------------------------ *)
(* Chase–Lev work-stealing deque (Chase & Lev, SPAA '05), monomorphic
   over [task]. The owner pushes/pops at the bottom without locks;
   thieves CAS the top. OCaml's SC atomics stand in for the seq_cst
   fences of the C11 formulation (Lê et al., PPoPP '13): [top] is
   monotonic, and [pop] publishes the decremented [bottom] before
   reading [top], which is what makes the owner/thief race on the last
   element resolve through the single CAS.

   The circular buffer grows geometrically. A replaced buffer is never
   written again, and growth preserves every live entry at the same
   logical index, so a thief that read a stale buffer still sees the
   correct value for any index whose CAS it can win. Consumed slots are
   overwritten with [no_task] by the owner so the pool does not retain
   completed continuations. [pop] and [steal] answer [no_task] when they
   find nothing. *)
module Deque : sig
  type t

  val create : unit -> t
  val push : t -> task -> unit
  val pop : t -> task
  val steal : t -> task

  (* Plain loads only — a racy emptiness hint for idle-spin probes. *)
  val nonempty : t -> bool
end = struct
  let min_capacity = 64

  type t = {
    top : int Atomic.t;
    bottom : int Atomic.t;
    buf : task array Atomic.t;
  }

  let create () =
    {
      top = Atomic.make 0;
      bottom = Atomic.make 0;
      buf = Atomic.make (Array.make min_capacity no_task);
    }

  let slot a i = i land (Array.length a - 1)

  let grow a t b =
    let a' = Array.make (2 * Array.length a) no_task in
    for i = t to b - 1 do
      a'.(slot a' i) <- a.(slot a i)
    done;
    a'

  let push q x =
    let b = Atomic.get q.bottom in
    let t = Atomic.get q.top in
    let a = Atomic.get q.buf in
    let a =
      if b - t = Array.length a then begin
        let a' = grow a t b in
        Atomic.set q.buf a';
        a'
      end
      else a
    in
    a.(slot a b) <- x;
    Atomic.set q.bottom (b + 1)

  let pop_nonempty q =
    let b = Atomic.get q.bottom - 1 in
    Atomic.set q.bottom b;
    let t = Atomic.get q.top in
    if b < t then begin
      (* Deque was empty: restore bottom. *)
      Atomic.set q.bottom t;
      no_task
    end
    else
      let a = Atomic.get q.buf in
      let x = a.(slot a b) in
      if b > t then begin
        a.(slot a b) <- no_task;
        x
      end
      else begin
        (* Single element left: race thieves for it on [top]. *)
        let won = Atomic.compare_and_set q.top t (t + 1) in
        Atomic.set q.bottom (t + 1);
        if won then begin
          a.(slot a b) <- no_task;
          x
        end
        else no_task
      end

  (* Only the owner moves [bottom] and thieves only raise [top], so when
     the owner sees no element it can return without the fenced
     publication in [pop_nonempty] — the common case of a worker whose
     work comes from elsewhere. *)
  let pop q =
    if Atomic.get q.bottom - Atomic.get q.top <= 0 then no_task
    else pop_nonempty q

  let steal q =
    let t = Atomic.get q.top in
    let b = Atomic.get q.bottom in
    if b - t <= 0 then no_task
    else
      let a = Atomic.get q.buf in
      let x = a.(slot a t) in
      if Atomic.compare_and_set q.top t (t + 1) then x else no_task

  let nonempty q = Atomic.get q.bottom - Atomic.get q.top > 0
end

(* ------------------------------------------------------------------ *)
(* Lock-free locality-aware pool: the default implementation. *)
module Lockfree = struct
  (* A worker's sleep slot: the mutex/condvar pair it sleeps on, made
     once and reused by every park and every dormant spell. A worker is
     never parked and dormant at once; a signal meant for the other kind
     of sleep is spurious, and every sleeper re-checks its own condition
     before sleeping again. *)
  type sleep = { pm : Mutex.t; pc : Condition.t }

  (* Parked workers are bits in a per-group mask, [bits] members to a
     word: bit [i mod bits] of word [i / bits] is the group's [i]-th
     member. *)
  let bits = Sys.int_size

  type t = {
    id : int;
    nworkers : int; (* total slots: base + reserve *)
    base : int; (* workers active from the start *)
    base_sizes : int array; (* the created per-group shape, sans reserve *)
    group_of : int array; (* worker index -> group *)
    members : int array array; (* group -> worker indices *)
    pos : int array; (* worker index -> its index in [members] *)
    deques : Deque.t array; (* one per worker *)
    yielded : task Ring.t array; (* per worker: tasks that yielded on it *)
    injects : task list Atomic.t array; (* per-group Treiber stacks *)
    parked : int Atomic.t array array; (* per-group parked bitmask *)
    sleeps : sleep array; (* one per worker slot *)
    searching : int Atomic.t; (* workers in the spin/steal phase *)
    pending : int Atomic.t;
    finished : bool Atomic.t;
    error : exn option Atomic.t;
    (* Dynamic admission: reserve slots [base, nworkers) each carry a mode
       atomic (1 = active, 0 = dormant) and sleep in their sleep slot. Their
       domains are spawned with everyone else's and immediately go dormant;
       [add_workers]/[retire_workers] CAS the mode, so growth and shrink
       never spawn or join a domain mid-run. *)
    mode : int Atomic.t array; (* length nworkers; base slots pinned to 1 *)
    active : int Atomic.t;
    rmutex : Mutex.t; (* runner's finish wait, no-tick mode *)
    rcond : Condition.t;
    mutable tick_wr : Unix.file_descr option;
    mutable started : bool;
    mutable initial : (int * task) list;
  }

  let create ~nworkers ~sizes ~reserve =
    let slots = nworkers + reserve in
    let ngroups = Array.length sizes in
    let group_of = Array.make slots 0 in
    let members =
      let next = ref 0 in
      Array.init ngroups (fun g ->
          Array.init sizes.(g) (fun _ ->
              let w = !next in
              incr next;
              group_of.(w) <- g;
              w))
    in
    (* Reserve slots live in group 0 and are listed as stealing victims, so
       work they leave behind (or the initial deal never sends them — see
       [run]) is always reachable from active workers. *)
    members.(0) <-
      Array.append members.(0)
        (Array.init reserve (fun i -> nworkers + i));
    let pos = Array.make slots 0 in
    Array.iter (Array.iteri (fun i w -> pos.(w) <- i)) members;
    {
      id = Atomic.fetch_and_add next_id 1;
      nworkers = slots;
      base = nworkers;
      base_sizes = Array.copy sizes;
      group_of;
      members;
      pos;
      deques = Array.init slots (fun _ -> Deque.create ());
      yielded = Array.init slots (fun _ -> Ring.create ());
      injects = Array.init ngroups (fun _ -> Atomic.make []);
      parked =
        Array.map
          (fun ms ->
            Array.init
              ((Array.length ms + bits - 1) / bits)
              (fun _ -> Atomic.make 0))
          members;
      sleeps =
        Array.init slots (fun _ ->
            { pm = Mutex.create (); pc = Condition.create () });
      searching = Atomic.make 0;
      pending = Atomic.make 0;
      finished = Atomic.make false;
      error = Atomic.make None;
      mode = Array.init slots (fun w -> Atomic.make (if w < nworkers then 1 else 0));
      active = Atomic.make nworkers;
      rmutex = Mutex.create ();
      rcond = Condition.create ();
      tick_wr = None;
      started = false;
      initial = [];
    }

  let ngroups t = Array.length t.members

  (* --- Treiber stacks (injection) --- *)

  let rec stack_push s x =
    let old = Atomic.get s in
    if not (Atomic.compare_and_set s old (x :: old)) then stack_push s x

  (* --- Idle protocol: a parked worker is a bit in its group's mask.

     The bit is the ticket, so a park allocates nothing and a ticket is
     never reallocated. A parker sets its bit, rescans every queue, and
     sleeps on its sleep slot while the bit stays set. A waker claims a
     parker by clearing its bit with a CAS, then signals the slot. Only
     one waker can clear a given bit, so nobody is woken twice; a parker
     that finds work during its rescan clears its own bit, and if a waker
     got there first, the parker is awake anyway and scans again before
     it next sleeps. The sleeper tests its bit under the slot's mutex and
     the waker signals under it after clearing, so the signal cannot fall
     between the test and the wait. A late signal from an old claim finds
     the bit of a newer park still set and is ignored. --- *)

  let rec bit_index b i = if b = 1 then i else bit_index (b lsr 1) (i + 1)

  let signal t w =
    let s = t.sleeps.(w) in
    Mutex.lock s.pm;
    Condition.signal s.pc;
    Mutex.unlock s.pm

  (* The idle and wakeup paths below run on every park and resume, so
     their loops are top-level functions: a local recursive function that
     captures variables is a closure allocated per call. *)

  (* Claim and signal one parked worker of group [g], scanning from mask
     word [i]; false when none is parked. When nobody is, this is one
     atomic read per mask word. *)
  let rec wake_in t g i =
    let words = t.parked.(g) in
    if i >= Array.length words then false
    else
      let m = Atomic.get words.(i) in
      if m = 0 then wake_in t g (i + 1)
      else
        let b = m land -m in
        if Atomic.compare_and_set words.(i) m (m lxor b) then begin
          signal t t.members.(g).((i * bits) + bit_index b 0);
          true
        end
        else wake_in t g i

  (* Prefer a sleeper from the task's own group; failing that, wake any
     sleeper — foreign workers steal cross-group, so the task is still
     picked up. *)
  let rec wake_from t group k =
    let n = ngroups t in
    if k < n && not (wake_in t ((group + k) mod n) 0) then
      wake_from t group (k + 1)

  let wake_one t group = wake_from t group 0

  (* Claim every parked worker at once, so each rescans. *)
  let unpark_all t =
    Array.iteri
      (fun g words ->
        Array.iteri
          (fun i word ->
            let m = Atomic.exchange word 0 in
            for b = 0 to bits - 1 do
              if m land (1 lsl b) <> 0 then
                signal t t.members.(g).((i * bits) + b)
            done)
          words)
      t.parked

  (* Searching throttle: skip the unpark when some worker is already in
     the spin/steal phase. The handoff cannot be lost: the task is
     published before [searching] is read, every searcher's scans happen
     before it decrements the counter, and a searcher that gives up
     always sets its parked bit and then rescans everything — one side
     of the race sees the other. The worst case is a burst landing on a
     single searcher, which re-wakes a peer on its way out (see
     [worker]). *)
  let wake t group = if Atomic.get t.searching = 0 then wake_one t group

  (* --- Enqueue: route to the local deque when the calling domain is a
     worker of the task's group, otherwise to the group's injection
     stack. The task is published (deque/stack write) before the parked
     masks are read, while a parker sets its bit before its final
     rescan, so under SC atomics either the read sees the bit or the
     rescan sees the task — no lost wakeup. --- *)

  let enqueue t ~group task =
    (match Domain.DLS.get dls_key with
    | Some (id, w) when id = t.id && t.group_of.(w) = group ->
        Deque.push t.deques.(w) task
    | _ -> stack_push t.injects.(group) task);
    wake t group

  (* A yielding task waits in its worker's private ring until the
     worker's deque and injection stack run dry (see [spill_yielded]). A
     task running outside its own group goes back to that group. *)
  let requeue t ~group task =
    match Domain.DLS.get dls_key with
    | Some (id, w) when id = t.id && t.group_of.(w) = group ->
        Ring.push t.yielded.(w) task
    | _ -> enqueue t ~group task

  (* --- Finish / error bookkeeping --- *)

  let record_error t e =
    let rec go () =
      match Atomic.get t.error with
      | Some _ -> ()
      | None ->
          if not (Atomic.compare_and_set t.error None (Some e)) then go ()
    in
    go ()

  (* Every sleeper — parked or dormant — re-checks [finished] under its
     slot's mutex, so signalling every slot wakes them all and their
     domains exit for [run] to join. *)
  let finish t =
    Atomic.set t.finished true;
    for w = 0 to t.nworkers - 1 do
      signal t w
    done;
    Mutex.lock t.rmutex;
    Condition.broadcast t.rcond;
    Mutex.unlock t.rmutex;
    notify_tick t.tick_wr

  let task_done t =
    if Atomic.fetch_and_add t.pending (-1) = 1 then finish t

  let spawn ?group t body =
    let g =
      match group with
      | Some g ->
          if g < 0 || g >= ngroups t then
            invalid_arg "Sched.spawn: group out of range";
          g
      | None -> (
          match Domain.DLS.get dls_key with
          | Some (id, w) when id = t.id -> t.group_of.(w)
          | _ -> 0)
    in
    Atomic.incr t.pending;
    let task =
      make_task ~enqueue:(enqueue t ~group:g) ~requeue:(requeue t ~group:g)
        ~on_return:(fun () -> task_done t)
        ~on_error:(fun e ->
          record_error t e;
          task_done t)
        body
    in
    if t.started then enqueue t ~group:g task
    else t.initial <- (g, task) :: t.initial

  (* --- Task discovery; each step answers [no_task] when it finds
     nothing. --- *)

  (* Push every element of a newest-first list except the oldest, oldest
     of them first, and return the oldest. The recursion is as deep as the
     list, which holds at most one entry per task. *)
  let rec push_older d = function
    | [] -> no_task
    | [ oldest ] -> oldest
    | x :: older ->
        let oldest = push_older d older in
        Deque.push d x;
        oldest

  (* Drain the group's injection stack into the calling worker's deque:
     oldest entry runs now, the rest keep arrival order in the deque so
     thieves (which steal from the top = oldest end) see FIFO-ish order.
     Allocates nothing. *)
  let drain_inject t w inj =
    if Atomic.get inj == [] then no_task
    else push_older t.deques.(w) (Atomic.exchange inj [])

  (* Take one task from a foreign group's injection stack, putting the
     remainder back so the pinned group keeps its work. *)
  let steal_inject inj =
    if Atomic.get inj == [] then no_task
    else
      match List.rev (Atomic.exchange inj []) with
      | [] -> no_task
      | task :: rest ->
          (match List.rev rest with
          | [] -> ()
          | back ->
              let rec put () =
                let old = Atomic.get inj in
                if not (Atomic.compare_and_set inj old (back @ old)) then
                  put ()
              in
              put ());
          task

  (* A worker's yielded tasks run behind all its other work: once its
     deque and its group's injection stack are dry, the oldest runs. The
     rest of the round stays private while every peer is busy (thieves
     cannot see it); when some peer searches or sleeps, it moves into
     the deque newest-first — the owner still pops it oldest-first, and
     the idle peers can steal from it. *)
  let nonzero word = Atomic.get word <> 0

  let rec any_parked t g =
    g < ngroups t && (Array.exists nonzero t.parked.(g) || any_parked t (g + 1))

  let rec move_back ys d =
    if not (Ring.is_empty ys) then begin
      Deque.push d (Ring.pop_back ys);
      move_back ys d
    end

  let spill_yielded t w g =
    let ys = t.yielded.(w) in
    let oldest = pop_ring ys in
    if
      oldest != no_task
      && (not (Ring.is_empty ys))
      && (Atomic.get t.searching > 0 || any_parked t 0)
    then begin
      move_back ys t.deques.(w);
      wake t g
    end;
    oldest

  let rec steal_from t w victims k =
    let m = Array.length victims in
    if k >= m then no_task
    else
      let v = victims.((w + k) mod m) in
      if v = w then steal_from t w victims (k + 1)
      else
        let task = Deque.steal t.deques.(v) in
        if task != no_task then task else steal_from t w victims (k + 1)

  (* Foreign groups, nearest first: their deques, then their injection
     stacks. *)
  let rec steal_foreign t w g k =
    let n = ngroups t in
    if k >= n then no_task
    else
      let j = (g + k) mod n in
      let task = steal_from t w t.members.(j) 0 in
      if task != no_task then task
      else
        let task = steal_inject t.injects.(j) in
        if task != no_task then task else steal_foreign t w g (k + 1)

  (* Local deque, own group's injects, own yield round, group-local
     victims, then foreign groups: locality-ordered but work-conserving. *)
  let find_once t w g =
    let task = Deque.pop t.deques.(w) in
    if task != no_task then task
    else
      let task = drain_inject t w t.injects.(g) in
      if task != no_task then task
      else
        let task = spill_yielded t w g in
        if task != no_task then task
        else
          let task = steal_from t w t.members.(g) 0 in
          if task != no_task then task else steal_foreign t w g 1

  (* --- Parking: set the parked bit, re-scan everything, then sleep
     while the bit stays set. --- *)

  let rec set_bit word bit =
    let m = Atomic.get word in
    if not (Atomic.compare_and_set word m (m lor bit)) then set_bit word bit

  let rec clear_bit word bit =
    let m = Atomic.get word in
    if m land bit <> 0 && not (Atomic.compare_and_set word m (m lxor bit))
    then clear_bit word bit

  let park t w g ~word ~bit =
    set_bit word bit;
    let task = find_once t w g in
    if task != no_task || Atomic.get t.finished then begin
      clear_bit word bit;
      task
    end
    else begin
      let s = t.sleeps.(w) in
      Mutex.lock s.pm;
      while Atomic.get word land bit <> 0 && not (Atomic.get t.finished) do
        Condition.wait s.pc s.pm
      done;
      Mutex.unlock s.pm;
      (* Still set only when the pool finished. *)
      clear_bit word bit;
      no_task
    end

  (* Read-only emptiness probe used between spin rounds: a full
     [find_once] costs fenced RMWs on every deque and an exchange on
     every injection stack, which is far too expensive to repeat while
     idle — the probe is plain loads only. *)
  let rec any_inject t i =
    i < ngroups t && (Atomic.get t.injects.(i) != [] || any_inject t (i + 1))

  let rec any_deque t i =
    i < Array.length t.deques
    && (Deque.nonempty t.deques.(i) || any_deque t (i + 1))

  let has_work t = any_inject t 0 || any_deque t 0

  (* A worker that keeps finding local work still polls its group's
     injection stack periodically so externally-resumed tasks cannot
     starve behind a long local run. *)
  let inject_poll_mask = 63

  (* Short: each round's probe is ~2 loads per deque/stack, but a worker
     that exhausts the spin still pays a full rescan inside [park], so
     long spins only delay the futex sleep that an idle trickle wants. *)
  let spin_rounds = 8

  (* A retiring worker first spills its local deque and yield round into
     the group's injection stack (its items stay reachable even while it
     sleeps — thieves do scan reserve deques, but only when searching)
     and hands off with a wakeup, then sleeps until readmitted or the
     pool drains. *)
  let go_dormant t w g =
    let rec spill pop q =
      let task = pop q in
      if task != no_task then begin
        stack_push t.injects.(g) task;
        spill pop q
      end
    in
    spill Deque.pop t.deques.(w);
    spill pop_ring t.yielded.(w);
    wake_one t g;
    let s = t.sleeps.(w) in
    Mutex.lock s.pm;
    while Atomic.get t.mode.(w) = 0 && not (Atomic.get t.finished) do
      Condition.wait s.pc s.pm
    done;
    Mutex.unlock s.pm

  let worker t w () =
    Domain.DLS.set dls_key (Some (t.id, w));
    let g = t.group_of.(w) in
    let word = t.parked.(g).(t.pos.(w) / bits)
    and bit = 1 lsl (t.pos.(w) mod bits) in
    let activations = ref 0 in
    let next () =
      incr activations;
      if !activations land inject_poll_mask = 0 then
        let task = drain_inject t w t.injects.(g) in
        if task != no_task then task else find_once t w g
      else find_once t w g
    in
    let rec spin k =
      if k = 0 then no_task
      else begin
        Domain.cpu_relax ();
        if has_work t then
          let task = next () in
          if task != no_task then task else spin (k - 1)
        else spin (k - 1)
      end
    in
    (* The spin phase is counted in [searching] (enqueues then skip the
       unpark — see [wake]) and only pays for a real scan when the probe
       sees something. *)
    let search () =
      Atomic.incr t.searching;
      let task = spin spin_rounds in
      Atomic.decr t.searching;
      if task != no_task && Atomic.get t.searching = 0 && has_work t then
        (* Last searcher leaving with a task while more work is visible:
           re-wake one peer so a burst that the throttle collapsed onto
           this worker still ramps back up. *)
        wake_one t g;
      task
    in
    let rec loop () =
      if Atomic.get t.finished then ()
      else if Atomic.get t.mode.(w) = 0 then begin
        go_dormant t w g;
        loop ()
      end
      else begin
        let task = next () in
        let task = if task != no_task then task else search () in
        let task =
          if task != no_task || Atomic.get t.finished then task
          else park t w g ~word ~bit
        in
        if task != no_task then task ();
        loop ()
      end
    in
    loop ()

  (* --- Dynamic admission over the reserve slots --- *)

  let active_workers t = Atomic.get t.active

  let add_workers t k =
    let n = ref 0 in
    for w = t.base to t.nworkers - 1 do
      if !n < k && Atomic.compare_and_set t.mode.(w) 0 1 then begin
        incr n;
        Atomic.incr t.active;
        signal t w
      end
    done;
    !n

  let retire_workers t k =
    let n = ref 0 in
    for i = 0 to t.nworkers - t.base - 1 do
      let w = t.nworkers - 1 - i in
      if !n < k && Atomic.compare_and_set t.mode.(w) 1 0 then begin
        incr n;
        Atomic.decr t.active
      end
    done;
    (* A retiring worker may be parked: unpark everyone so each rescans.
       Active workers that wake spuriously just park again — this is the
       control path, not the hot path. *)
    if !n > 0 then unpark_all t;
    !n

  let run ?tick t =
    if t.started then invalid_arg "Sched.run: pool already ran";
    t.started <- true;
    (* Deal initial tasks round-robin into their group's deques, skipping
       dormant reserve slots (their owners would only spill the tasks back
       to the injection stack on startup). Safe without the owner: workers
       have not been spawned yet. *)
    let rr = Array.make (ngroups t) 0 in
    List.iter
      (fun (g, task) ->
        let ms = t.members.(g) in
        let live =
          if g = 0 then Array.length ms - (t.nworkers - t.base)
          else Array.length ms
        in
        Deque.push t.deques.(ms.(rr.(g) mod live)) task;
        rr.(g) <- rr.(g) + 1)
      (List.rev t.initial);
    t.initial <- [];
    if Atomic.get t.pending = 0 then ()
    else begin
      let pipe =
        match tick with
        | Some _ ->
            let rd, wr = Unix.pipe () in
            t.tick_wr <- Some wr;
            Some (rd, wr)
        | None -> None
      in
      let domains = Array.init t.nworkers (fun w -> Domain.spawn (worker t w)) in
      (match (tick, pipe) with
      | Some (interval, fn), Some (rd, _) ->
          tick_loop ~finished:(fun () -> Atomic.get t.finished) ~wake_rd:rd
            interval fn
      | _ ->
          Mutex.lock t.rmutex;
          while not (Atomic.get t.finished) do
            Condition.wait t.rcond t.rmutex
          done;
          Mutex.unlock t.rmutex);
      Array.iter Domain.join domains;
      (match pipe with
      | Some (rd, wr) ->
          (try Unix.close rd with Unix.Unix_error _ -> ());
          (try Unix.close wr with Unix.Unix_error _ -> ())
      | None -> ());
      match Atomic.get t.error with Some e -> raise e | None -> ()
    end
end

(* ------------------------------------------------------------------ *)
(* The pre-Chase–Lev implementation: a mutex-guarded FIFO per worker, a
   global-mutex injection queue, and a broadcast-on-enqueue wakeup. Kept
   (group-blind) as the differential baseline for BENCH_sched.json; only
   the tick loop shares the prompt-finish fix, since end-of-run latency
   is not part of the measured differential. *)
module Locked = struct
  type t = {
    id : int;
    nworkers : int;
    sizes : int array; (* accepted for interface parity, locality ignored *)
    queues : task Ring.t array;
    qlocks : Mutex.t array;
    inject : task Ring.t;
    mutex : Mutex.t;
    nonempty : Condition.t;
    idlers : int Atomic.t;
    pending : int Atomic.t;
    mutable finished : bool;
    mutable tick_wr : Unix.file_descr option;
    mutable started : bool;
    mutable initial : task list;
    mutable error : exn option;
  }

  let create ~nworkers ~sizes =
    {
      id = Atomic.fetch_and_add next_id 1;
      nworkers;
      sizes = Array.copy sizes;
      queues = Array.init nworkers (fun _ -> Ring.create ());
      qlocks = Array.init nworkers (fun _ -> Mutex.create ());
      inject = Ring.create ();
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      idlers = Atomic.make 0;
      pending = Atomic.make 0;
      finished = false;
      tick_wr = None;
      started = false;
      initial = [];
      error = None;
    }

  let enqueue t task =
    (match Domain.DLS.get dls_key with
    | Some (id, idx) when id = t.id ->
        Mutex.lock t.qlocks.(idx);
        Ring.push t.queues.(idx) task;
        Mutex.unlock t.qlocks.(idx)
    | _ ->
        Mutex.lock t.mutex;
        Ring.push t.inject task;
        Mutex.unlock t.mutex);
    (* Wake sleepers. The idlers counter is incremented under [t.mutex]
       before the final rescan, so either this read sees the idler (and
       broadcasts) or the idler's rescan sees the task — no lost wakeup. *)
    if Atomic.get t.idlers > 0 then begin
      Mutex.lock t.mutex;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex
    end

  let task_done t =
    if Atomic.fetch_and_add t.pending (-1) = 1 then begin
      Mutex.lock t.mutex;
      t.finished <- true;
      Condition.broadcast t.nonempty;
      Mutex.unlock t.mutex;
      notify_tick t.tick_wr
    end

  let record_error t e =
    Mutex.lock t.mutex;
    if t.error = None then t.error <- Some e;
    Mutex.unlock t.mutex

  let spawn ?group t body =
    (match group with
    | Some g when g < 0 || g >= Array.length t.sizes ->
        invalid_arg "Sched.spawn: group out of range"
    | _ -> ());
    Atomic.incr t.pending;
    let task =
      make_task ~enqueue:(enqueue t) ~requeue:(enqueue t)
        ~on_return:(fun () -> task_done t)
        ~on_error:(fun e ->
          record_error t e;
          task_done t)
        body
    in
    if t.started then enqueue t task else t.initial <- task :: t.initial

  (* Task finders answer [no_task] when they find nothing. *)
  let pop_local t idx =
    Mutex.lock t.qlocks.(idx);
    let task = pop_ring t.queues.(idx) in
    Mutex.unlock t.qlocks.(idx);
    task

  (* Worker queues [idx + k], [idx + k + 1], ... up to [idx - 1]. Like the
     lock-free pool's loops, top-level so that a scan allocates nothing. *)
  let rec steal_from t idx k =
    if k >= t.nworkers then no_task
    else
      let task = pop_local t ((idx + k) mod t.nworkers) in
      if task != no_task then task else steal_from t idx (k + 1)

  let steal t idx = steal_from t idx 1

  (* Under [t.mutex]: injection queue first, then every worker queue.
     Acquiring a qlock while holding [t.mutex] cannot deadlock: no path
     takes [t.mutex] while holding a qlock. *)
  let rescan_locked t =
    let task = pop_ring t.inject in
    if task != no_task then task else steal_from t 0 0

  (* Under [t.mutex]; [no_task] only once the pool finished. *)
  let rec wait_for_task t =
    if t.finished then no_task
    else
      let task = rescan_locked t in
      if task != no_task then task
      else begin
        Condition.wait t.nonempty t.mutex;
        wait_for_task t
      end

  let idle_wait t =
    Mutex.lock t.mutex;
    Atomic.incr t.idlers;
    let task = wait_for_task t in
    Atomic.decr t.idlers;
    Mutex.unlock t.mutex;
    task

  let worker t idx () =
    Domain.DLS.set dls_key (Some (t.id, idx));
    let rec loop () =
      let task = pop_local t idx in
      let task = if task != no_task then task else steal t idx in
      let task = if task != no_task then task else idle_wait t in
      if task != no_task then begin
        task ();
        loop ()
      end
      (* else: pool drained *)
    in
    loop ()

  let is_finished t =
    Mutex.lock t.mutex;
    let v = t.finished in
    Mutex.unlock t.mutex;
    v

  let run ?tick t =
    if t.started then invalid_arg "Sched.run: pool already ran";
    t.started <- true;
    List.iteri
      (fun i task -> Ring.push t.queues.(i mod t.nworkers) task)
      (List.rev t.initial);
    t.initial <- [];
    if Atomic.get t.pending = 0 then ()
    else begin
      let pipe =
        match tick with
        | Some _ ->
            let rd, wr = Unix.pipe () in
            t.tick_wr <- Some wr;
            Some (rd, wr)
        | None -> None
      in
      let domains =
        Array.init t.nworkers (fun idx -> Domain.spawn (worker t idx))
      in
      (match (tick, pipe) with
      | Some (interval, fn), Some (rd, _) ->
          tick_loop ~finished:(fun () -> is_finished t) ~wake_rd:rd interval fn
      | _ ->
          Mutex.lock t.mutex;
          while not t.finished do
            Condition.wait t.nonempty t.mutex
          done;
          Mutex.unlock t.mutex);
      Array.iter Domain.join domains;
      (match pipe with
      | Some (rd, wr) ->
          (try Unix.close rd with Unix.Unix_error _ -> ());
          (try Unix.close wr with Unix.Unix_error _ -> ())
      | None -> ());
      match t.error with Some e -> raise e | None -> ()
    end
end

(* ------------------------------------------------------------------ *)

type t = LF of Lockfree.t | LK of Locked.t

let create ?workers ?groups ?(reserve = 0) ?(impl = `Lockfree) () =
  if reserve < 0 then invalid_arg "Sched.create: reserve must be >= 0";
  let nworkers, sizes = resolve_shape ~workers ~groups in
  match impl with
  | `Lockfree -> LF (Lockfree.create ~nworkers ~sizes ~reserve)
  | `Locked -> LK (Locked.create ~nworkers ~sizes)

let workers = function
  | LF t -> t.Lockfree.base
  | LK t -> t.Locked.nworkers

let groups = function
  | LF t -> Array.copy t.Lockfree.base_sizes
  | LK t -> Array.copy t.Locked.sizes

let active_workers = function
  | LF t -> Lockfree.active_workers t
  | LK t -> t.Locked.nworkers

let add_workers t k =
  if k < 0 then invalid_arg "Sched.add_workers: negative count";
  match t with LF t -> Lockfree.add_workers t k | LK _ -> 0

let retire_workers t k =
  if k < 0 then invalid_arg "Sched.retire_workers: negative count";
  match t with LF t -> Lockfree.retire_workers t k | LK _ -> 0

let spawn ?group t body =
  match t with
  | LF t -> Lockfree.spawn ?group t body
  | LK t -> Locked.spawn ?group t body

let run ?tick = function
  | LF t -> Lockfree.run ?tick t
  | LK t -> Locked.run ?tick t
