open Ssmst_graph
open Ssmst_sim

(* The enhanced Awerbuch-Varghese resynchronizer (Section 10, Theorems 10.1
   and 10.3): compose a non-stabilizing construction algorithm with a
   self-stabilizing checker to obtain a self-stabilizing algorithm whose
   time is O(T_construct + n) and whose detection time and distance are
   those of the checker.

   The runtime alternates two regimes:

   - CONSTRUCT: a self-stabilizing leader election / BFS spanning tree
     ([1, 28]-style, see {!Ssmst_protocols.Ss_bfs}) provides the reset
     backbone and the size/diameter bounds the original transformer assumed
     known; SYNC_MST then recomputes the MST and the marker re-assigns all
     labels.  Charged at its measured ideal-time cost, O(n).
   - VERIFY: the Section 7-8 verifier runs forever as the checker.  Any
     alarm at any node triggers a reset wave (O(n)) back to CONSTRUCT.

   Faults that corrupt the output after stabilization are detected within
   the verifier's detection time — O(log² n) synchronous rounds or
   O(Δ log³ n) asynchronous ones — at distance O(f log n) from the faults,
   and repaired by one reconstruction.

   With a profiler installed ({!Ssmst_parallel.Probe}), every construction
   is a [transformer.construct] frame (SYNC_MST's fragment-level frames
   nest under it) charged the election's O(n) rounds, each reconstruction
   a [transformer.epoch] frame, and each [advance] a [transformer.advance]
   frame charged its verification rounds, with a [detect] frame per
   injection-to-alarm window.  With [~monitors:true], the live
   verification network carries the online invariant monitors through
   the engine's round hook.  Monitor verdicts latch across epochs: a
   violation in any epoch survives the reconstruction that discards the
   network it was observed on. *)

type event =
  | Constructed of int  (* rounds charged for election + SYNC_MST + marker *)
  | Detected of { rounds : int; distance : int option }  (* verification-phase detection *)
  | Quiescent of int  (* verification rounds with no alarm *)

(* Cheap read-only accessors into the live verification network, re-bound at
   every [install]: the observatory's report drivers read per-node register
   sizes and last-write rounds without the network's module escaping. *)
type probe = {
  net_metrics : Metrics.t;
  net_last_write : int -> int;
  net_bits : int -> int;
}

type t = {
  graph : Graph.t;
  mode : Verifier.mode;
  daemon : Scheduler.t;
  domains : int;  (* sync-round worker domains on the verification network *)
  monitors : bool;  (* the online invariant monitors ride every epoch's network *)
  mutable marker : Marker.t;
  mutable total_rounds : int;
  mutable reconstructions : int;
  mutable history : event list;
  mutable peak_bits : int;
  (* the live verification network, existentially packed *)
  mutable run_verify : int -> [ `Alarm of int * int option | `Quiet ];
  mutable inject : Random.State.t -> Fault.t -> int list;
  mutable monitor : Ssmst_obs.Monitor.t option;  (* on the live network *)
  mutable monitor_verdicts : (string * Ssmst_obs.Monitor.verdict) list;  (* latched *)
  mutable probe : probe option;
}

(* Cost of one construction epoch: leader election + bounds (O(n)), then
   SYNC_MST + marker (O(n), measured). *)
let construction_cost (g : Graph.t) (m : Marker.t) =
  (4 * Graph.n g) + m.construction_rounds

(* ---------------- observatory plumbing ---------------- *)

(* One construction, one [transformer.construct] frame: SYNC_MST and the
   marker charge their own timetable rounds; the election's O(n) and the
   label high-water are charged here. *)
let construct_marker (g : Graph.t) =
  Ssmst_parallel.Probe.with_ "transformer.construct" @@ fun () ->
  let m = Marker.run g in
  Ssmst_parallel.Probe.charge ~rounds:(4 * Graph.n g) ~peak_bits:m.Marker.label_bits ();
  m

(* Latch [fresh] monitor verdicts over the accumulated ones: the first
   violation per monitor wins, across epochs. *)
let merge_verdicts latched fresh =
  List.map2
    (fun (name, old) (_, now) ->
      (name, match old with Ssmst_obs.Monitor.Violation _ -> old | Ok -> now))
    latched fresh

let flush_monitor (t : t) =
  match t.monitor with
  | None -> ()
  | Some mon ->
      t.monitor_verdicts <- merge_verdicts t.monitor_verdicts (Ssmst_obs.Monitor.results mon);
      t.monitor <- None

let monitor_results (t : t) =
  match t.monitor with
  | None -> t.monitor_verdicts
  | Some mon -> merge_verdicts t.monitor_verdicts (Ssmst_obs.Monitor.results mon)

(* ---------------- the regimes ---------------- *)

let install (t : t) =
  let m = t.marker in
  let module N = Verifier_campaign.Net (struct
    let marker = m
    let mode = t.mode
  end) in
  let net = N.create ~domains:t.domains t.graph in
  t.probe <-
    Some
      {
        net_metrics = N.metrics net;
        net_last_write = N.last_write_round net;
        net_bits = (fun v -> N.P.bits t.graph v (N.state net v));
      };
  flush_monitor t;
  if t.monitors then t.monitor <- Some (N.attach_monitors net);
  let run_with_faults faults budget =
    let executed, reached = N.run_until net t.daemon ~max_rounds:budget N.any_alarm in
    t.peak_bits <- max t.peak_bits (N.peak_bits net);
    if reached then `Alarm (executed, N.detection_distance net ~faults) else `Quiet
  in
  t.run_verify <- run_with_faults [];
  t.inject <-
    (fun st model ->
      let faults = N.inject net st model in
      (match t.monitor with
      | Some mon -> Ssmst_obs.Monitor.note_injection mon ~round:(N.rounds net) ~faults
      | None -> ());
      t.run_verify <- run_with_faults faults;
      faults)

(* Start from an arbitrary initial configuration: the transformer's first
   act is a reconstruction. *)
let create ?(mode = Verifier.Passive) ?(daemon = Scheduler.Sync) ?(domains = 1)
    ?(monitors = false) g =
  let marker = construct_marker g in
  let t =
    {
      graph = g;
      mode;
      daemon;
      domains = max 1 domains;
      monitors;
      marker;
      total_rounds = 0;
      reconstructions = 0;
      history = [];
      peak_bits = 0;
      run_verify = (fun _ -> `Quiet);
      inject = (fun _ _ -> []);
      monitor = None;
      monitor_verdicts =
        List.map (fun n -> (n, Ssmst_obs.Monitor.Ok)) Ssmst_obs.Monitor.names;
      probe = None;
    }
  in
  let cost = construction_cost g t.marker in
  t.total_rounds <- cost;
  t.reconstructions <- 1;
  t.history <- [ Constructed cost ];
  install t;
  t

let reconstruct (t : t) =
  (* one [transformer.epoch] frame per reset and reconstruction *)
  Ssmst_parallel.Probe.with_ "transformer.epoch" @@ fun () ->
  (match t.monitor with
  | Some mon -> Ssmst_obs.Monitor.note_reset mon ~round:t.total_rounds
  | None -> ());
  t.marker <- construct_marker t.graph;
  let cost = construction_cost t.graph t.marker in
  t.total_rounds <- t.total_rounds + cost;
  t.reconstructions <- t.reconstructions + 1;
  t.history <- Constructed cost :: t.history;
  install t

(* Run the verification regime for [rounds]; on detection, reconstruct. *)
let advance (t : t) ~rounds =
  Ssmst_parallel.Probe.with_ "transformer.advance" @@ fun () ->
  match t.run_verify rounds with
  | `Quiet ->
      t.total_rounds <- t.total_rounds + rounds;
      Ssmst_parallel.Probe.charge ~rounds ();
      t.history <- Quiescent rounds :: t.history
  | `Alarm (dt, dist) ->
      (match Ssmst_parallel.Probe.get () with
      | Some s ->
          s.enter "detect";
          s.charge ~rounds:dt ~activations:0 ~writes:0 ~peak_bits:0;
          s.leave "detect"
      | None -> ());
      Ssmst_parallel.Probe.charge ~rounds:(2 * Graph.n t.graph) ();  (* the reset wave *)
      t.total_rounds <- t.total_rounds + dt + (2 * Graph.n t.graph);
      t.history <- Detected { rounds = dt; distance = dist } :: t.history;
      reconstruct t

(* Apply a typed fault model to the running verification network: the
   epoch re-injection path shares the campaign subsystem's models. *)
let inject_model (t : t) st model = t.inject st model

(* Inject [count] uniformly placed faults (the historical model). *)
let inject_faults (t : t) st ~count = inject_model t st (Fault.uniform ~count)

(* The current output. *)
let tree (t : t) = t.marker.tree

(* Total stabilization time from an arbitrary configuration: the first
   reconstruction (Theorem 10.2: O(n)). *)
let stabilization_rounds (t : t) =
  (* the oldest history entry: [create]'s construction *)
  let rec oldest = function
    | [ Constructed c ] -> c
    | [] | [ (Detected _ | Quiescent _) ] -> 0
    | _ :: rest -> oldest rest
  in
  oldest t.history

let memory_bits (t : t) = max t.peak_bits t.marker.label_bits
