open Ssmst_graph
open Ssmst_sim

(* Always-on online invariant monitors: the paper's theorem-level claims
   evaluated against each round's settled snapshot, returning structured
   verdicts instead of failing at run end.

   Four monitors ship:

   - "forest": the claimed parent pointers contain no cycle (a spanning
     *tree* claim can only fail structurally through a cycle or a wrong
     root count; the verifier's own Example SP covers the rest);
   - "compactness": the peak per-node register size stays within
     [compact_c * ceil(log2 n)] bits — Section 2.4's O(log n) claim as a
     runtime assertion, O(1) per round via the engine's incremental
     high-water counter;
   - "alarm-monotonicity": between a fault injection and the following
     reset, a raised alarm never disappears (the verifier latches alarms;
     losing one means the latch was corrupted or mis-reset);
   - "detection-distance": when the first alarm of a burst fires, the
     maximum fault-to-alarm hop distance is within
     [distance_c * f * ceil(log2 n)] — Section 2.4's O(f log n) locality
     claim, checked at the detection point.

   The monitor set is cheap enough to keep always-on: a version counter
   (register writes + faults) short-circuits evaluation on rounds where the
   snapshot provably did not change, so quiescent rounds cost O(1). *)

type verdict = Ok | Violation of { round : int; node : int option; detail : string }

let verdict_ok = function Ok -> true | Violation _ -> false

let pp_verdict ppf = function
  | Ok -> Fmt.string ppf "ok"
  | Violation { round; node; detail } ->
      Fmt.pf ppf "VIOLATION at round %d%a: %s" round
        Fmt.(option (fun ppf v -> Fmt.pf ppf " (node %d)" v))
        node detail

let verdict_to_json = function
  | Ok -> {|{"ok":true}|}
  | Violation { round; node; detail } ->
      let node_field = match node with None -> "" | Some v -> Fmt.str {|"node":%d,|} v in
      Fmt.str {|{"ok":false,"round":%d,%s"detail":"%s"}|} round node_field
        (Trace.json_escape detail)

(* The read-only window a monitor set gets onto a live network.  All
   closures must be cheap; [change_counter] must change whenever any
   register changes (the engine's [register_writes + faults_injected] pair
   qualifies: every fault and every activation that changed a register
   bumps one of them). *)
type view = {
  graph : Graph.t;
  parent : int -> int option;  (* claimed parent pointer, when the protocol has one *)
  bits : int -> int;
  alarm : int -> bool;
  peak_bits : unit -> int;  (* O(1): the engine's incremental high-water *)
  any_alarm : unit -> bool;  (* O(1): the engine's alarm counter *)
  change_counter : unit -> int;
}

type t = {
  view : view;
  mutable trace : Trace.t option;
  mutable metrics : Metrics.t option;
  compact_c : int;
  distance_c : int;
  logn : int;
  mutable faults : int list;  (* victims of the live burst, [] outside one *)
  mutable alarm_phase : [ `Idle | `Armed | `Alarmed ];
  mutable last_version : int option;  (* change counter at the last evaluation *)
  (* per-node colouring for the forest walk, reused across rounds *)
  stamp : int array;
  mutable pass : int;
  (* first violation per monitor, latched *)
  mutable forest : verdict;
  mutable compact : verdict;
  mutable alarm_mono : verdict;
  mutable distance : verdict;
  mutable checks : int;  (* full evaluations actually executed *)
}

let default_compact_c = 96
let default_distance_c = 3  (* the constant the fault suite's O(f log n) test uses *)

let create ?trace ?metrics ?(compact_c = default_compact_c) ?(distance_c = default_distance_c)
    (view : view) =
  let n = Graph.n view.graph in
  {
    view;
    trace;
    metrics;
    compact_c;
    distance_c;
    logn = Memory.of_nat n;
    faults = [];
    alarm_phase = `Idle;
    last_version = None;
    stamp = Array.make n (-1);
    pass = 0;
    forest = Ok;
    compact = Ok;
    alarm_mono = Ok;
    distance = Ok;
    checks = 0;
  }

let names = [ "forest"; "compactness"; "alarm-monotonicity"; "detection-distance" ]

let results t =
  [
    ("forest", t.forest);
    ("compactness", t.compact);
    ("alarm-monotonicity", t.alarm_mono);
    ("detection-distance", t.distance);
  ]

let all_ok t = List.for_all (fun (_, v) -> verdict_ok v) (results t)
let evaluations t = t.checks

let record_violation t name (v : verdict) =
  match v with
  | Ok -> ()
  | Violation { round; node; detail } ->
      (match t.metrics with
      | Some m -> m.Metrics.monitor_violations <- m.Metrics.monitor_violations + 1
      | None -> ());
      (match t.trace with
      | Some tr -> Trace.record tr (Trace.Invariant_violation { round; node; monitor = name; detail })
      | None -> ())

let latch t name get set v =
  match (get t, v) with
  | Ok, Violation _ ->
      set t v;
      record_violation t name v
  | _ -> ()

(* ---------------- the four invariants ---------------- *)

(* Cycle detection over the claimed parent forest: colour every node with
   the pass it was first reached in; re-entering a node coloured by the
   *current walk* closes a cycle.  O(n) total per evaluation. *)
let check_forest t ~round =
  let n = Graph.n t.view.graph in
  (* two stamps per pass: [2*pass] = on the current walk, [2*pass + 1] =
     finished in this evaluation *)
  t.pass <- t.pass + 1;
  let walking = 2 * t.pass and done_ = (2 * t.pass) + 1 in
  let rec walk v path =
    if t.stamp.(v) = done_ then List.iter (fun u -> t.stamp.(u) <- done_) path
    else if t.stamp.(v) = walking then begin
      List.iter (fun u -> t.stamp.(u) <- done_) path;
      latch t "forest"
        (fun t -> t.forest)
        (fun t v -> t.forest <- v)
        (Violation { round; node = Some v; detail = "parent pointers close a cycle" })
    end
    else begin
      t.stamp.(v) <- walking;
      match t.view.parent v with
      | None -> List.iter (fun u -> t.stamp.(u) <- done_) (v :: path)
      | Some p when p < 0 || p >= n ->
          List.iter (fun u -> t.stamp.(u) <- done_) (v :: path);
          latch t "forest"
            (fun t -> t.forest)
            (fun t v -> t.forest <- v)
            (Violation
               { round; node = Some v; detail = Fmt.str "parent %d out of range" p })
      | Some p -> walk p (v :: path)
    end
  in
  for v = 0 to n - 1 do
    if t.stamp.(v) <> done_ then walk v []
  done

let check_compact t ~round =
  let bound = t.compact_c * t.logn in
  let peak = t.view.peak_bits () in
  if peak > bound then begin
    (* only on failure: find the first offender for the verdict *)
    let n = Graph.n t.view.graph in
    let node = ref None in
    (try
       for v = 0 to n - 1 do
         if t.view.bits v > bound then begin
           node := Some v;
           raise Exit
         end
       done
     with Exit -> ());
    latch t "compactness"
      (fun t -> t.compact)
      (fun t v -> t.compact <- v)
      (Violation
         {
           round;
           node = !node;
           detail = Fmt.str "peak %d bits exceeds %d * ceil(log2 n) = %d" peak t.compact_c bound;
         })
  end

let alarming_nodes t =
  let acc = ref [] in
  for v = Graph.n t.view.graph - 1 downto 0 do
    if t.view.alarm v then acc := v :: !acc
  done;
  !acc

let check_distance t ~round =
  match t.faults with
  | [] -> ()
  | faults ->
      let bound = t.distance_c * List.length faults * t.logn in
      (match Dist.detection_distance t.view.graph ~faults ~alarms:(alarming_nodes t) with
      | Some d when d > bound ->
          latch t "detection-distance"
            (fun t -> t.distance)
            (fun t v -> t.distance <- v)
            (Violation
               {
                 round;
                 node = None;
                 detail =
                   Fmt.str "detection distance %d exceeds %d * f * ceil(log2 n) = %d" d
                     t.distance_c bound;
               })
      | Some _ | None -> ())

let check_alarm_mono t ~round =
  let alarmed = t.view.any_alarm () in
  match t.alarm_phase with
  | `Idle -> ()
  | `Armed ->
      if alarmed then begin
        t.alarm_phase <- `Alarmed;
        (* the detection point of the burst: measure the locality claim *)
        check_distance t ~round
      end
  | `Alarmed ->
      if not alarmed then
        latch t "alarm-monotonicity"
          (fun t -> t.alarm_mono)
          (fun t v -> t.alarm_mono <- v)
          (Violation
             { round; node = None; detail = "alarms vanished between injection and reset" })

(* ---------------- driving ---------------- *)

(* A fault burst opened: arm the alarm monitors.  Re-injections extend the
   victim set of the live burst. *)
let note_injection t ~round:_ ~faults =
  t.faults <- List.sort_uniq compare (faults @ t.faults);
  if t.alarm_phase <> `Alarmed then t.alarm_phase <- `Armed;
  t.last_version <- None

(* The burst was answered (reset / reconstruction): disarm. *)
let note_reset t ~round:_ =
  t.faults <- [];
  t.alarm_phase <- `Idle;
  t.last_version <- None

(* One evaluation against the current settled snapshot.  Skips in O(1) when
   the version counter shows no register changed since the last call. *)
let check t ~round =
  let version = t.view.change_counter () in
  if t.last_version <> Some version then begin
    t.last_version <- Some version;
    t.checks <- t.checks + 1;
    check_forest t ~round;
    check_compact t ~round;
    check_alarm_mono t ~round
  end

(* ---------------- riding a live network ---------------- *)

(* The one view over a live {!Network.Make} network: register sizes and
   alarms read through [P], the O(1) counters from the engine, the change
   counter from its metrics; the monitors are charged to the network's
   metrics and evaluated on its round hook. *)
module Attach (P : Protocol.S) = struct
  module Net = Network.Make (P)

  let attach ?trace ?distance_c ~parent net =
    let view =
      {
        graph = Net.graph net;
        parent;
        bits = (fun v -> P.bits (Net.graph net) v (Net.state net v));
        alarm = (fun v -> P.alarm (Net.state net v));
        peak_bits = (fun () -> Net.peak_bits net);
        any_alarm = (fun () -> Net.any_alarm net);
        change_counter =
          (fun () ->
            let m = Net.metrics net in
            m.Metrics.register_writes + m.Metrics.faults_injected);
      }
    in
    let mon = create ?trace ~metrics:(Net.metrics net) ?distance_c view in
    Net.set_round_hook net (fun () -> check mon ~round:(Net.rounds net));
    mon
end
