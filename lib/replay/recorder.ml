open Ssmst_graph
open Ssmst_sim

(* The flight recorder: checkpointed time-travel replay for one protocol
   run.

   The recorder listens to every register write (via the engine's write
   hook, or diff-observation for the naive engine) and maintains three
   structures:

   - a view of the *live* registers — the engine's own state array when
     attached via [engine_hook] (no per-write cost), or a recorder-owned
     mirror updated on every write otherwise;
   - periodic *checkpoints*: full copies of the live registers taken at
     most every [interval] rounds, snapshotted lazily at the first write
     that crosses the interval (sound because registers cannot change in
     write-free rounds; the one register the in-flight write has already
     touched is reverted from the hook's pre-write value);
   - a bounded *delta ring* of per-write records (round, node, cause,
     post-write register).  When the ring fills the oldest deltas are
     dropped and counted; checkpoints taken after the drop horizon keep
     later rounds exactly replayable.  Pre-write registers and field-level
     changes are reconstructed on demand ([prevs]), never stored.

   [state_at] reconstructs the exact global state at any recorded round in
   O(n + writes-since-checkpoint): copy the latest checkpoint at or below
   the target, then re-apply the retained deltas in recording order.  The
   reconstruction is *exact* unless a dropped delta falls between the
   checkpoint and the target; inexact views are flagged, never silent. *)

(* What the recorder reads of a protocol: register equality, the alarm
   bit and the per-field descriptor.  Every {!Protocol.S} satisfies it. *)
module type REGISTER = sig
  type state
  val equal : state -> state -> bool
  val alarm : state -> bool
  val field_names : string array
  val encode : state -> int array
end

module Make (P : REGISTER) = struct
  type write = {
    round : int;
    node : int;
    cause : Trace.cause;
    state : P.state;  (* the register after the write *)
  }

  type t = {
    graph : Graph.t;
    interval : int;  (* max rounds between checkpoints *)
    round0 : int;  (* round the recording started at *)
    mutable live : P.state array;  (* live registers; exact at [cur_round] *)
    mutable shared_live : bool;  (* [live] aliases the engine's own array *)
    mutable cur_round : int;
    (* delta ring, oldest dropped first: a struct-of-arrays layout so the
       recording hot path allocates nothing per write *)
    capacity : int;
    ring_round : int array;
    ring_node : int array;
    ring_cause : Trace.cause array;
    ring_state : P.state array;
    mutable next : int;
    mutable total : int;
    mutable max_dropped_round : int;  (* round of the newest dropped delta *)
    (* checkpoints, oldest first; states are private copies *)
    mutable checkpoints : (int * P.state array) list;
    mutable last_cp : int;
  }

  let default_interval = 64
  let default_capacity = 16384

  let create ?(interval = default_interval) ?(capacity = default_capacity) ~round0 graph states
      =
    if interval <= 0 then invalid_arg "Recorder.create: interval must be positive";
    if capacity <= 0 then invalid_arg "Recorder.create: capacity must be positive";
    if Array.length states = 0 then invalid_arg "Recorder.create: empty network";
    {
      graph;
      interval;
      round0;
      live = Array.copy states;
      shared_live = false;
      cur_round = round0;
      capacity;
      ring_round = Array.make capacity 0;
      ring_node = Array.make capacity 0;
      ring_cause = Array.make capacity Trace.Init;
      ring_state = Array.make capacity states.(0);
      next = 0;
      total = 0;
      max_dropped_round = min_int;
      checkpoints = [ (round0, Array.copy states) ];
      last_cp = round0;
    }

  let graph t = t.graph
  let interval t = t.interval
  let start_round t = t.round0
  let last_round t = t.cur_round
  let total_writes t = t.total
  let retained t = min t.total t.capacity
  let dropped t = t.total - retained t
  let max_dropped_round t = t.max_dropped_round
  let checkpoint_rounds t = List.map fst t.checkpoints

  (* [0 <= i < capacity] holds by construction, so the ring stores are
     bounds-check-free; the wrap avoids an integer division per write.
     The register *before* a write is deliberately not stored — it is
     reconstructible from the checkpoints and the delta sequence itself
     (see [prevs]), and dropping it removes a third of the pointer traffic
     (and its GC marking) from the recording hot path. *)
  let push t ~round ~node ~cause ~state =
    let i = t.next in
    if t.total >= t.capacity then begin
      (* int comparisons: the polymorphic [max] is a C call per write *)
      let dropped_round = Array.unsafe_get t.ring_round i in
      if dropped_round > t.max_dropped_round then t.max_dropped_round <- dropped_round
    end;
    Array.unsafe_set t.ring_round i round;
    Array.unsafe_set t.ring_node i node;
    Array.unsafe_set t.ring_cause i cause;
    Array.unsafe_set t.ring_state i state;
    let n = i + 1 in
    t.next <- (if n = t.capacity then 0 else n);
    t.total <- t.total + 1

  (* oldest-first iteration over the retained deltas (the [write] records
     are materialized here, off the hot path) *)
  let iter_writes f t =
    let len = retained t in
    let start = (t.next - len + t.capacity) mod t.capacity in
    for i = 0 to len - 1 do
      let j = (start + i) mod t.capacity in
      f
        {
          round = t.ring_round.(j);
          node = t.ring_node.(j);
          cause = t.ring_cause.(j);
          state = t.ring_state.(j);
        }
    done

  let writes t =
    let acc = ref [] in
    iter_writes (fun w -> acc := w :: !acc) t;
    List.rev !acc

  (* Field deltas are derived on demand (explain, bisection): the
     recording hot path stores the two state pointers and never encodes. *)
  let field_changes = Trace.field_changes ~names:P.field_names ~encode:P.encode

  (* Registers *before* each retained write, in [iter_writes] order: a
     chronological sweep that replays the deltas over a working copy,
     fast-forwarding through every checkpoint older than the next write
     (a checkpoint at round r captures the end of round r, so it sits
     between the writes of round r and those of round r + 1).  Exact
     whenever [state_at] is — pre-horizon writes whose true predecessors
     were dropped get the nearest checkpoint's value instead. *)
  let prevs t =
    let arr = Array.copy (snd (List.hd t.checkpoints)) in
    let out = Array.make (max 1 (retained t)) arr.(0) in
    let cps = ref (List.tl t.checkpoints) in
    let i = ref 0 in
    iter_writes
      (fun w ->
        let rec catch_up () =
          match !cps with
          | (r, s) :: rest when r < w.round ->
              Array.blit s 0 arr 0 (Array.length s);
              cps := rest;
              catch_up ()
          | _ -> ()
        in
        catch_up ();
        out.(!i) <- arr.(w.node);
        arr.(w.node) <- w.state;
        incr i)
      t;
    out

  let record_write t ~round ~node ~old ~cause s' =
    if round < t.cur_round then invalid_arg "Recorder.record_write: rounds must not go back";
    (* first write of a new round past the interval: the live registers
       still hold the end-of-round state for [round - 1] (nothing else
       changed since), so snapshot them before applying — except that a
       shared live array has already absorbed this very write, which is
       undone from [old] *)
    if round > t.cur_round && round - 1 >= t.last_cp + t.interval then begin
      let cp = Array.copy t.live in
      if t.shared_live then cp.(node) <- old;
      t.checkpoints <- t.checkpoints @ [ (round - 1, cp) ];
      t.last_cp <- round - 1
    end;
    push t ~round ~node ~cause ~state:s';
    if not t.shared_live then t.live.(node) <- s';
    if round > t.cur_round then t.cur_round <- round

  (* [Network.Make.set_write_hook]-shaped glue.  [states] must be the
     engine's own (live) register array: the recorder aliases it instead of
     maintaining a mirror, which removes a barriered pointer store from
     every recorded write.  Returns a genuine arity-5 closure: partially
     applying a 6-argument function instead would route every hook call
     through caml_curry, allocating intermediate closures per write. *)
  let engine_hook t states =
    if Array.length states <> Array.length t.live then
      invalid_arg "Recorder.engine_hook: register array size mismatch";
    t.live <- states;
    t.shared_live <- true;
    let hook ~round ~node ~old s' cause = record_write t ~round ~node ~old ~cause s' in
    hook

  (* Recording a run of the hook-less naive engine: after each completed
     round, diff the fresh states against the mirror.  The read set is
     unknown, so causes degrade to every port (the safe over-approximation
     for a one-activation-reads-all-neighbours model). *)
  let observe_round t ~round states =
    Array.iteri
      (fun v s ->
        if not (P.equal t.live.(v) s) then
          let cause =
            Trace.Neighbor_read
              (List.init (Graph.degree t.graph v) Fun.id)
          in
          record_write t ~round ~node:v ~old:t.live.(v) ~cause s)
      states;
    t.cur_round <- max t.cur_round round

  (* ---------------- reconstruction ---------------- *)

  (* The first round whose writes the checkpoint at [r] does not hold.  A
     periodic checkpoint captures the end of its round, but the creation
     checkpoint is taken before any write of [round0] — a fault injected
     right after [create] is stamped with the creation round itself. *)
  let replay_from t r = if r = t.round0 then r else r + 1

  (* The earliest round from which [state_at] is exact: the start when
     nothing was dropped, else the first checkpoint past the drop horizon
     (later checkpoints were cut from the always-exact mirror). *)
  let sound_from t =
    if dropped t = 0 then Some t.round0
    else
      List.find_map
        (fun (r, _) -> if t.max_dropped_round < replay_from t r then Some r else None)
        t.checkpoints

  type view = { round : int; states : P.state array; exact : bool }

  let state_at t target =
    if target < t.round0 then invalid_arg "Recorder.state_at: round precedes the recording";
    let target = min target t.cur_round in
    (* latest checkpoint at or below the target *)
    let cp_round, cp_states =
      List.fold_left
        (fun acc (r, s) -> if r <= target then (r, s) else acc)
        (List.hd t.checkpoints) t.checkpoints
    in
    let from = replay_from t cp_round in
    let states = Array.copy cp_states in
    iter_writes
      (fun w -> if w.round >= from && w.round <= target then states.(w.node) <- w.state)
      t;
    let exact = dropped t = 0 || t.max_dropped_round < from in
    { round = target; states; exact }

  (* ---------------- seek / step cursor ---------------- *)

  type cursor = {
    rec_ : t;
    mutable round : int;
    mutable states : P.state array;
    mutable pending : write list;  (* retained deltas with round > [round] *)
    exact : bool;
  }

  (* [state_at] holds every retained write up to the view's round, so the
     cursor replays exactly the later ones *)
  let seek t target =
    let v = state_at t target in
    let pending = List.filter (fun (w : write) -> w.round > v.round) (writes t) in
    { rec_ = t; round = v.round; states = v.states; pending; exact = v.exact }

  let cursor_round c = c.round
  let cursor_states c = c.states
  let cursor_exact c = c.exact

  (* advance the cursor one round (to the next recorded round when rounds
     were write-free); false once the recording is exhausted *)
  let step c =
    if c.round >= c.rec_.cur_round then false
    else begin
      let next_round =
        match c.pending with [] -> c.rec_.cur_round | w :: _ -> w.round
      in
      let rec apply = function
        | (w : write) :: rest when w.round = next_round ->
            c.states.(w.node) <- w.state;
            apply rest
        | rest -> rest
      in
      c.pending <- apply c.pending;
      c.round <- next_round;
      true
    end

  (* ---------------- the first-divergence bisector ---------------- *)

  (* Self-stabilizing executions can diverge and re-converge, so the
     bisector scans rounds in order (early-exit on the first difference)
     instead of binary-searching; per round it compares only the nodes
     either recording wrote, so a full scan costs O(total writes). *)
  let first_divergence a b =
    let module IS = Set.Make (Int) in
    let lo = max a.round0 b.round0 in
    let hi = min a.cur_round b.cur_round in
    let field_of sa sb =
      match field_changes sa sb with c :: _ -> c.Trace.field | [] -> "<equal-encoding>"
    in
    let ca = seek a lo and cb = seek b lo in
    let diff_at round nodes =
      IS.fold
        (fun v acc ->
          match acc with
          | Some _ -> acc
          | None ->
              if P.equal ca.states.(v) cb.states.(v) then None
              else Some (round, v, field_of ca.states.(v) cb.states.(v)))
        nodes None
    in
    (* full compare at the common start *)
    let all = IS.of_list (List.init (Array.length ca.states) Fun.id) in
    let rec scan acc =
      match acc with
      | Some _ -> acc
      | None ->
          (* advance both cursors to the next round either one recorded *)
          let next_of c =
            if c.round >= c.rec_.cur_round then None
            else Some (match c.pending with [] -> c.rec_.cur_round | w :: _ -> w.round)
          in
          let target =
            match (next_of ca, next_of cb) with
            | None, None -> None
            | Some r, None | None, Some r -> Some r
            | Some ra, Some rb -> Some (min ra rb)
          in
          (match target with
          | None -> None
          | Some r when r > hi -> None
          | Some r ->
              let written c =
                let rec go acc = function
                  | (w : write) :: rest when w.round <= r -> go (IS.add w.node acc) rest
                  | _ -> acc
                in
                go IS.empty c.pending
              in
              let touched = IS.union (written ca) (written cb) in
              let advance c = while c.round < r && step c do () done in
              advance ca;
              advance cb;
              scan (diff_at r touched))
    in
    scan (diff_at lo all)

  (* ---------------- provenance glue ---------------- *)

  let provenance_writes t =
    let pv = prevs t in
    let acc = ref [] and seq = ref 0 in
    iter_writes
      (fun w ->
        acc :=
          { Provenance.seq = !seq; round = w.round; node = w.node; cause = w.cause;
            changes = field_changes pv.(!seq) w.state }
          :: !acc;
        incr seq)
      t;
    Array.of_list (List.rev !acc)

  (* walk backwards from the first alarm-raising write of [node] (at or
     before [round] when given) to its originating fault injection *)
  let explain t ?round ~node () =
    let ws = provenance_writes t in
    let full = Array.of_list (writes t) in
    let target = ref (-1) in
    Array.iteri
      (fun i (w : Provenance.write) ->
        if
          !target < 0 && w.node = node
          && (match round with None -> true | Some r -> w.round <= r)
          && P.alarm full.(i).state
        then target := i)
      ws;
    if !target < 0 then Error Provenance.No_such_write
    else Provenance.explain t.graph ws ~target:!target
end
