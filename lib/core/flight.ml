open Ssmst_graph
open Ssmst_sim
open Ssmst_replay

(* Flight-recorder drivers for [msst explain] and [msst replay] (and the
   CI replay smoke test): record one of the repo's standard fault
   scenarios and distil the recording into plain-data results the CLI can
   render in any format.  Both take the one scenario record,
   {!Observatory.params}.

   - {!record_verify}: ride the verify scenario ({!Observatory.verify_run},
     monitors on), with the recorder's write hook as its listener from the
     settled network on; then walk the provenance DAG backwards from every
     alarming node to its originating injection — one printable witness
     per alarm whose hop count is checked against the
     [distance_c * f * ceil(log2 n)] detection-distance bound (the formula
     the Section 2.4 monitor enforces).

   - {!replay_probe}: record the same ss-bfs stabilization run on both
     engines (event-driven via the write hook, naive via per-round
     diffing) and expose seek/step views plus the first-divergence
     bisector over the pair. *)

(* ---------------- explain: fault -> alarm witnesses ---------------- *)

type witness = {
  alarm_node : int;
  alarm_round : int;  (* round of the alarm-raising write *)
  fault : Fault.id option;  (* [None]: the chain is broken *)
  hops : (int * int * string list) list;  (* (round, node, changed fields), fault first *)
  node_changes : int;  (* graph hops the corruption travelled *)
  bound : int;  (* distance_c * f * ceil(log2 n), n as built *)
  within_bound : bool;
  error : string option;
}

type verify_run = {
  facts : Observatory.verify_facts;  (* the verify scenario's run the recorder rode *)
  witnesses : witness list;
  total_writes : int;
  dropped : int;
  checkpoints : int list;
  end_equal : bool;  (* replayed final state == live final state *)
}

module R = Recorder.Make (Verifier.Register)

(* [alarm = Some (node, round)] restricts the witness list to the one
   requested alarm (the node's first alarming write at or before [round]
   when given); the default explains every alarming node *)
let record_verify ?alarm (p : Observatory.params) =
  let recorder = ref None in
  let listen =
    Observatory.Write_hook
      (fun g ~settled states ->
        let r = R.create ~interval:p.interval ~capacity:p.capacity ~round0:settled g states in
        recorder := Some r;
        R.engine_hook r states)
  in
  let v = Observatory.verify_run ~listen (Ssmst_obs.Telemetry.fake ()) p in
  let rec_ = Option.get !recorder in
  let bound = p.distance_c * max 1 (List.length v.victims) * Memory.of_nat (Graph.n v.graph) in
  let witness_of ?round node =
    match R.explain rec_ ?round ~node () with
    | Ok (path : Provenance.path) ->
        let alarm_round =
          match List.rev path.hops with h :: _ -> h.Provenance.round | [] -> v.settled_round
        in
        {
          alarm_node = node;
          alarm_round;
          fault = Some path.fault;
          hops = List.map (fun (h : Provenance.hop) -> (h.round, h.node, h.fields)) path.hops;
          node_changes = path.node_changes;
          bound;
          within_bound = path.node_changes <= bound;
          error = None;
        }
    | Error e ->
        {
          alarm_node = node;
          alarm_round = R.last_round rec_;
          fault = None;
          hops = [];
          node_changes = -1;
          bound;
          within_bound = false;
          error = Some (Provenance.error_to_string e);
        }
  in
  let witnesses =
    match alarm with
    | None -> List.map (fun node -> witness_of node) v.alarms
    | Some (node, round) -> [ witness_of ?round node ]
  in
  {
    facts = v;
    witnesses;
    total_writes = R.total_writes rec_;
    dropped = R.dropped rec_;
    checkpoints = R.checkpoint_rounds rec_;
    end_equal =
      Array.for_all2 Verifier.Register.equal (R.state_at rec_ (R.last_round rec_)).R.states v.final;
  }

(* every witness terminates at a fault and respects the bound *)
let all_witnessed r =
  r.witnesses <> []
  && List.for_all (fun w -> w.fault <> None && w.within_bound) r.witnesses

(* ---------------- replay: seek / step / diff ---------------- *)

type view = { round : int; exact : bool; changed : int }
(* [changed]: nodes whose register differs from the previous view *)

type replay_run = {
  start_round : int;
  last_round : int;
  total_writes : int;
  dropped : int;
  sound_from : int option;
  checkpoints : int list;
  views : view list;  (* the seek view first, then one per step *)
  divergence : (int * int * string) option;  (* engine vs naive *)
  end_equal : bool;
}

(* Record an ss-bfs stabilization (all nodes initially claim leadership,
   churn until the max-identity BFS tree wins) plus one mid-run fault
   burst; optionally record the naive engine's twin run for the bisector. *)
let replay_probe (p : Observatory.params) ~seek ~steps ~diff =
  let module P = Ssmst_protocols.Ss_bfs.P in
  let module Net = Network.Make (P) in
  let module Nv = Ssmst_oracle.Naive (P) in
  let module R = Recorder.Make (P) in
  let g = Observatory.graph_of p in
  let net = Net.create g in
  let rec_ = R.create ~interval:p.interval ~capacity:p.capacity ~round0:0 g (Net.states net) in
  Net.set_write_hook net (R.engine_hook rec_ (Net.states net));
  let quiet budget =
    (* run until a write-free round, bounded *)
    let rec go left =
      if left > 0 then begin
        let before = (Net.metrics net).Metrics.register_writes in
        Net.round net Scheduler.Sync;
        if (Net.metrics net).Metrics.register_writes > before then go (left - 1)
      end
    in
    go budget
  in
  quiet p.max_rounds;
  (* both engines inject the scenario's one fault draw *)
  let inject_into inject =
    ignore (inject (Observatory.fault_rng p) (Observatory.fault_model p))
  in
  if p.faults > 0 then inject_into (Net.inject net);
  quiet p.max_rounds;
  let rounds_run = Net.rounds net in
  let divergence, end_equal =
    if not diff then (None, true)
    else begin
      let nv = Nv.create g in
      let rec_nv = R.create ~interval:p.interval ~capacity:p.capacity ~round0:0 g (Nv.states nv) in
      let observe () = R.observe_round rec_nv ~round:(Nv.rounds nv) (Nv.states nv) in
      let fault_at = ref (-1) in
      (* twin run: same rounds, same injection round, twin RNG *)
      (match
         List.find_opt
           (fun (w : R.write) -> match w.cause with Trace.Fault _ -> true | _ -> false)
           (R.writes rec_)
       with
      | Some w -> fault_at := w.round
      | None -> ());
      while Nv.rounds nv < rounds_run do
        if Nv.rounds nv = !fault_at then begin
          inject_into (Nv.inject nv);
          (* fault writes belong to the injection round, before the next
             round executes — exactly how the engine records them *)
          observe ()
        end;
        Nv.round nv Scheduler.Sync;
        observe ()
      done;
      if Nv.rounds nv = !fault_at then begin
        inject_into (Nv.inject nv);
        observe ()
      end;
      let eq =
        let live = Net.states net and naive = Nv.states nv in
        let ok = ref true in
        Array.iteri (fun v s -> if not (P.equal s naive.(v)) then ok := false) live;
        !ok
      in
      (R.first_divergence rec_ rec_nv, eq)
    end
  in
  let views =
    let c = R.seek rec_ seek in
    let snapshot prev =
      let changed = ref 0 in
      (match prev with
      | None -> ()
      | Some old ->
          Array.iteri
            (fun v s -> if not (P.equal s old.(v)) then incr changed)
            (R.cursor_states c));
      ( { round = R.cursor_round c; exact = R.cursor_exact c; changed = !changed },
        Array.copy (R.cursor_states c) )
    in
    let v0, prev = snapshot None in
    let acc = ref [ v0 ] and prev = ref prev in
    (try
       for _ = 1 to steps do
         if not (R.step c) then raise Exit;
         let v, p' = snapshot (Some !prev) in
         acc := v :: !acc;
         prev := p'
       done
     with Exit -> ());
    List.rev !acc
  in
  {
    start_round = R.start_round rec_;
    last_round = R.last_round rec_;
    total_writes = R.total_writes rec_;
    dropped = R.dropped rec_;
    sound_from = R.sound_from rec_;
    checkpoints = R.checkpoint_rounds rec_;
    views;
    divergence;
    end_equal;
  }
