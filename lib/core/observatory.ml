open Ssmst_graph
open Ssmst_sim
open Ssmst_obs

(* Scenario drivers for [msst report] and [msst profile], and the one run
   behind [msst construct], [verify], [stabilize], [trace] and [explain]:
   run one of the repo's standard scenarios — construct, verify,
   stabilize, campaign, bounds — with the full observatory attached (the phase
   profiler, log-bucketed histograms, online invariant monitors) and
   return one {!Report.t} combining everything.  The caller passes the
   {!Telemetry.t} to install over the scenario's measured part (see the
   interface).

   This is the only module that knows both the protocol stack and the
   observatory; {!Ssmst_obs} itself stays below the protocols so the engine
   can feed it. *)

type params = {
  family : string;
  n : int;
  seed : int;
  faults : int;
  async : bool;
  clustered : bool;  (* fault_model: clustered placement (radius 2) instead of uniform *)
  interval : int;  (* explain/replay: checkpoint every <= interval rounds *)
  capacity : int;  (* explain/replay: delta-ring capacity *)
  epochs : int;  (* stabilize: fault-injection epochs *)
  trials : int;  (* campaign: seeds per fault model *)
  max_rounds : int;  (* detection budget *)
  domains : int;  (* sync-round worker domains (verify/stabilize/campaign) *)
  distance_c : int;
}

let default_params =
  {
    family = "random";
    n = 64;
    seed = 42;
    faults = 1;
    async = false;
    clustered = false;
    interval = 64;
    capacity = Trace.default_capacity;
    epochs = 3;
    trials = 3;
    max_rounds = 20000;
    domains = 1;
    distance_c = Monitor.default_distance_c;
  }

let scenario_names = [ "construct"; "verify"; "stabilize"; "campaign"; "bounds" ]

let graph_of p = Verifier_campaign.build_graph ~family:p.family ~seed:p.seed p.n

(* (Passive, Sync), or (Handshake, Async_random) on a fresh RNG at seed + 1 *)
let mode_and_daemon p =
  if p.async then (Verifier.Handshake, Scheduler.Async_random (Gen.rng (p.seed + 1)))
  else (Verifier.Passive, Scheduler.Sync)

let fault_rng p = Gen.rng (p.seed + 2)

let fault_model p =
  let placement =
    if p.clustered then Fault.Clustered { center = None; radius = 2 } else Fault.Uniform
  in
  Fault.make ~placement ~count:p.faults ()

let node_list vs = String.concat ", " (List.map string_of_int vs)

(* [n] is the size built, which grid and hypertree round the request to;
   [daemon] names the daemons run when they are not the params' own *)
let report ?daemon tel name p ~n extra =
  let daemon = Option.value daemon ~default:(if p.async then "async-random" else "sync") in
  let r =
    Report.create
      ~title:(Fmt.str "msst report — %s (%s, n = %d)" name p.family n)
      ~scenario:
        ([ ("scenario", name); ("family", p.family); ("n", string_of_int n);
           ("seed", string_of_int p.seed); ("daemon", daemon) ]
        @ extra)
      ()
  in
  Report.set_spans r (Telemetry.root tel);
  r

(* [f ()] with [tel] installed as the probe sink. *)
let profiled tel f =
  Telemetry.install tel;
  Fun.protect ~finally:Telemetry.uninstall f

(* ---------------- construct ---------------- *)

(* The marker pipeline under the profiler; the monitors run once over
   the static output (alarms are vacuous — nothing executes afterwards). *)
let construct tel p =
  let g = graph_of p in
  let m =
    profiled tel (fun () -> Ssmst_parallel.Probe.with_ "construct.marker" (fun () -> Marker.run g))
  in
  let label_hist = Hist.create () in
  Array.iter (fun l -> Hist.record label_hist (Marker.label_bits l)) m.Marker.labels;
  let depth_hist = Hist.create () in
  for v = 0 to Graph.n g - 1 do
    Hist.record depth_hist (Tree.depth m.Marker.tree v)
  done;
  let version = ref 0 in
  let view =
    {
      Monitor.graph = g;
      parent = Tree.parent m.Marker.tree;
      bits = (fun v -> Marker.label_bits m.Marker.labels.(v));
      alarm = (fun _ -> false);
      peak_bits = (fun () -> m.Marker.label_bits);
      any_alarm = (fun () -> false);
      change_counter =
        (fun () ->
          incr version;
          !version);
    }
  in
  let mon = Monitor.create ~distance_c:p.distance_c view in
  Monitor.check mon ~round:m.Marker.construction_rounds;
  let r =
    report tel "construct" p ~n:(Graph.n g)
      [ ("threshold", string_of_int m.Marker.assignment.Partition.threshold) ]
  in
  Report.add_note r
    (Fmt.str "graph: %d nodes, %d edges, max degree %d" (Graph.n g) (Graph.num_edges g)
       (Graph.max_degree g));
  Report.add_hist r "per-node label bits" label_hist;
  Report.add_hist r "node depth in the MST" depth_hist;
  Report.set_monitors r (Monitor.results mon);
  Report.add_note r
    (Fmt.str "MST weight %d (matches Kruskal: %b); %d fragments, hierarchy height %d"
       (Tree.total_base_weight m.Marker.tree)
       (Mst.is_mst g (Graph.plain_weight_fn g) m.Marker.tree)
       (Array.length m.Marker.hierarchy.Fragment.frags)
       m.Marker.hierarchy.Fragment.height);
  Report.add_note r
    (Fmt.str "construction: %d charged rounds; max label %d bits (ceil(log2 n) = %d)"
       m.Marker.construction_rounds m.Marker.label_bits (Memory.of_nat (Graph.n g)));
  Report.add_note r
    (Fmt.str "construction: %.1f charged rounds per node"
       (float_of_int m.Marker.construction_rounds /. float_of_int (Graph.n g)));
  Report.add_note r
    (Fmt.str "partitions: %d parts (Top+Bottom), threshold %d"
       (Array.length m.Marker.assignment.Partition.parts)
       m.Marker.assignment.Partition.threshold);
  r

(* ---------------- verify ---------------- *)

type listener =
  | Trace of Trace.t
  | Write_hook of (Graph.t -> settled:int -> Verifier.state array -> round:int -> node:int ->
                   old:Verifier.state -> Verifier.state -> Trace.cause -> unit)

type verify_facts = {
  graph : Graph.t;
  settled_round : int;
  settled_alarm : bool;
  convergence : Hist.t;
  register_bits : Hist.t;
  victims : int list;
  detection : int option;
  distance : int option;
  alarms : int list;
  metrics : Metrics.t;
  monitors : (string * Monitor.verdict) list;
  final : Verifier.state array;
}

(* Settle the verifier, hang the listener, inject a burst, run to
   detection, each in a frame charged the engine's metrics; the monitors
   ride the engine's round hook the whole way. *)
let verify_run ?listen tel p =
  let g = graph_of p in
  let mode, daemon = mode_and_daemon p in
  let module N = Verifier_campaign.Net (struct
    let marker = Marker.run g
    let mode = mode
  end) in
  let net = N.create ~domains:p.domains g in
  let trace = match listen with Some (Trace tr) -> Some tr | _ -> None in
  let mon = N.attach_monitors ?trace ~distance_c:p.distance_c net in
  let metered name f = Telemetry.metered name (N.metrics net) f in
  profiled tel @@ fun () ->
  metered "settle" (fun () -> N.settle net daemon);
  let settled_round = N.rounds net and settled_alarm = N.any_alarm net in
  let convergence = Hist.create () and register_bits = Hist.create () in
  for v = 0 to Graph.n g - 1 do
    Hist.record convergence (N.last_write_round net v);
    Hist.record register_bits (N.P.bits g v (N.state net v))
  done;
  (match listen with
  | Some (Trace tr) -> N.attach_trace net tr
  | Some (Write_hook f) -> N.set_write_hook net (f g ~settled:settled_round (N.states net))
  | None -> ());
  let victims, detection =
    if p.faults = 0 then ([], None)
    else begin
      let fs = metered "inject" (fun () -> N.inject net (fault_rng p) (fault_model p)) in
      Monitor.note_injection mon ~round:(N.rounds net) ~faults:fs;
      (fs, metered "detect" (fun () -> N.detection_time net daemon ~max_rounds:p.max_rounds))
    end
  in
  { graph = g; settled_round; settled_alarm; convergence; register_bits; victims; detection;
    distance = (if detection = None then None else N.detection_distance net ~faults:victims);
    alarms = List.rev (N.alarming_nodes net); metrics = N.metrics net;
    monitors = Monitor.results mon; final = N.states net }

let verify_report tel p v =
  let r =
    report tel "verify" p ~n:(Graph.n v.graph)
      [ ("mode", match fst (mode_and_daemon p) with Passive -> "passive" | Handshake -> "handshake");
        ("faults", string_of_int p.faults) ]
  in
  Report.add_note r
    (Fmt.str "settled after %d rounds; alarms after settling: %b (must be false)"
       v.settled_round v.settled_alarm);
  let alarm_lat = Hist.create () in
  if p.faults > 0 then begin
    Report.add_note r ("fault victims: " ^ node_list v.victims);
    match v.detection with
    | Some dt ->
        Hist.record alarm_lat dt;
        Report.add_note r
          (Fmt.str "injected %d fault(s); detected after %d rounds at distance %s"
             (List.length v.victims) dt
             (match v.distance with Some d -> string_of_int d | None -> "?"));
        Report.add_note r ("alarming nodes: " ^ node_list (List.rev v.alarms))
    | None ->
        Report.add_note r
          (Fmt.str "injected %d fault(s); no detection within %d rounds (semantically null \
                    corruption)"
             (List.length v.victims) p.max_rounds)
  end;
  Report.add_metrics r "verifier network" v.metrics;
  Report.add_hist r "per-node register bits" v.register_bits;
  Report.add_hist r "per-node convergence round (last write)" v.convergence;
  Report.add_hist r "alarm latency after injection (rounds)" alarm_lat;
  Report.set_monitors r v.monitors;
  r

let verify tel p = verify_report tel p (verify_run tel p)

(* ---------------- stabilize ---------------- *)

(* The transformer loop, one ["epoch i"] frame per fault epoch. *)
let stabilize tel p =
  let g = graph_of p in
  let mode, daemon = mode_and_daemon p in
  profiled tel @@ fun () ->
  let t = Transformer.create ~mode ~daemon ~domains:p.domains ~monitors:true g in
  let r =
    report tel "stabilize" p ~n:(Graph.n g)
      [ ("faults per epoch", string_of_int p.faults); ("epochs", string_of_int p.epochs) ]
  in
  Report.add_note r
    (Fmt.str "stabilized in %d charged rounds" (Transformer.stabilization_rounds t));
  Report.add_note r
    (Fmt.str "output weight %d after stabilization"
       (Tree.total_base_weight (Transformer.tree t)));
  let rng = fault_rng p in
  for i = 0 to p.epochs - 1 do
    let fs =
      Ssmst_parallel.Probe.with_ (Fmt.str "epoch %d" i) (fun () ->
          Transformer.advance t ~rounds:200;
          let fs =
            if p.faults = 0 then []
            else
              Ssmst_parallel.Probe.with_ "inject" (fun () ->
                  let fs = Transformer.inject_model t rng (fault_model p) in
                  Ssmst_parallel.Probe.charge ~writes:(List.length fs) ();
                  fs)
          in
          Transformer.advance t ~rounds:p.max_rounds;
          fs)
    in
    Report.add_note r
      (Fmt.str "epoch %d: %s; output is the MST: %b" i
         (if fs = [] then "no faults" else "faults at " ^ node_list fs)
         (Mst.is_mst g (Graph.plain_weight_fn g) (Transformer.tree t)))
  done;
  (* the last detection installed a fresh verification network: settle it so
     the probe snapshots a live epoch (per-node convergence, register bits) *)
  Transformer.advance t ~rounds:200;
  let alarm_lat = Hist.create () in
  List.iter
    (function
      | Transformer.Detected { rounds; _ } -> Hist.record alarm_lat rounds
      | Transformer.Constructed _ | Transformer.Quiescent _ -> ())
    t.Transformer.history;
  let conv = Hist.create () and bits_h = Hist.create () in
  (match t.Transformer.probe with
  | Some pr ->
      for v = 0 to Graph.n g - 1 do
        Hist.record conv (pr.Transformer.net_last_write v);
        Hist.record bits_h (pr.Transformer.net_bits v)
      done;
      Report.add_metrics r "verifier network (final epoch)" pr.Transformer.net_metrics
  | None -> ());
  Report.add_hist r "per-node register bits" bits_h;
  Report.add_hist r "per-node convergence round (last write)" conv;
  Report.add_hist r "alarm latency after injection (rounds)" alarm_lat;
  Report.set_monitors r (Transformer.monitor_results t);
  Report.add_note r
    (Fmt.str "%d reconstructions, %d total charged rounds, peak memory %d bits; output is \
              the MST: %b"
       t.Transformer.reconstructions t.Transformer.total_rounds (Transformer.memory_bits t)
       (Mst.is_mst g (Graph.plain_weight_fn g) (Transformer.tree t)));
  r

(* ---------------- campaign ---------------- *)

(* The one trial loop behind campaign and bounds: every named model x
   [trials] injection seeds on [inst], in order, one [campaign.trial]
   frame each (same-name siblings: one row). *)
let run_trials (p : params) inst models =
  let n = Graph.n (Verifier_campaign.graph inst) and root = Verifier_campaign.root inst in
  List.concat
    (List.mapi
       (fun mi name ->
         let model = Campaign.resolve_model name ~n ~root ~count:p.faults in
         List.init p.trials (fun k ->
             Verifier_campaign.run_trial ~domains:p.domains inst ~model
               ~inject_seed:(p.seed + (7919 * ((mi * p.trials) + k + 1)) + k)
               ~max_rounds:p.max_rounds))
       models)

(* one outcome field over the trials that have it *)
let hist_of field outcomes =
  let h = Hist.create () in
  List.iter (fun o -> Option.iter (Hist.record h) (field o)) outcomes;
  h

(* A compact sweep on one instance, settled and trialled under the
   params' mode and daemon: every named fault model x [trials] injection
   seeds; outcomes land in the detection-time/-distance histograms. *)
let campaign tel (p : params) =
  let mode, daemon = mode_and_daemon p in
  let inst =
    Verifier_campaign.prepare ~domains:p.domains ~mode ~daemon ~family:p.family ~n:p.n
      ~seed:p.seed ()
  in
  let n = Graph.n (Verifier_campaign.graph inst) in
  profiled tel @@ fun () ->
  let os = run_trials p inst Campaign.model_names in
  let r =
    report tel "campaign" p ~n
      [
        ("models", String.concat "," Campaign.model_names);
        ("trials per model", string_of_int p.trials);
        ("faults", string_of_int p.faults);
      ]
  in
  let dt_h = hist_of (fun o -> o.Campaign.detection_rounds) os in
  let dd_h = hist_of (fun o -> o.Campaign.detection_distance) os in
  Report.add_hist r "detection time (rounds)" dt_h;
  Report.add_hist r "detection distance (hops)" dd_h;
  Report.add_hist r "rounds run per trial" (hist_of (fun o -> Some o.Campaign.rounds_run) os);
  Report.add_note r (Fmt.str "%d/%d trials detected" (Hist.count dt_h) (List.length os));
  Report.add_note r
    (Fmt.str "paper bound shape check: f * ceil(log2 n) = %d (dd_p99 observed: %d)"
       (p.faults * Memory.of_nat n) (Hist.p99 dd_h));
  r

(* ---------------- bounds ---------------- *)

(* c_t of the detection-time bounds c_t * ceil(log2 n)^2 (sync) and
   c_t * Delta * ceil(log2 n)^3 (async): the smallest integers that held
   every point of [msst report bounds -n 256 --trials 200] at seeds 1-4
   (largest ratios 1631 / 81 = 20.1 sync, 127 / 10206 = 0.012 async) *)
let time_c_sync = 21
let time_c_async = 1

type bound_point = {
  n : int;
  daemon : string;
  delta : int;
  faults : int;
  max_detection : int;
  max_distance : int;
  peak_bits : int;
}

(* (what, observed, bound, the bound's formula) per claim, with
   ceil(log2 n) counted as the monitors count it (the bit length of n) *)
let bounds_of pt =
  let l = Memory.of_nat pt.n and dc = Monitor.default_distance_c in
  let time, formula =
    if pt.daemon = "sync" then (time_c_sync * l * l, Fmt.str "%d * log^2 n" time_c_sync)
    else (time_c_async * pt.delta * l * l * l, Fmt.str "%d * Delta * log^3 n" time_c_async)
  in
  [ ("detection time", pt.max_detection, time, formula);
    ("detection distance", pt.max_distance, dc * pt.faults * l, Fmt.str "%d * f * log n" dc);
    ( "register bits", pt.peak_bits, Monitor.default_compact_c * l,
      Fmt.str "%d * log n" Monitor.default_compact_c ) ]

(* a violation's round is the worst detection's, counted from the burst *)
let bound_checks pt =
  List.map
    (fun (what, observed, bound, formula) ->
      ( Fmt.str "%s (n = %d, %s)" what pt.n pt.daemon,
        if observed <= bound then Monitor.Ok
        else
          let detail = Fmt.str "%d exceeds %s = %d" observed formula bound in
          Monitor.Violation { round = pt.max_detection; node = None; detail } ))
    (bounds_of pt)

(* The paper's three claims at every size of 64, 256, 1024, 4096 up to
   [p.n] (or at [p.n] alone below 64), under Passive/Sync and Handshake
   under both async daemons: one settled instance per (n, daemon), the
   campaign's trial loop over bit-flip and uniform faults, one note and
   three verdicts per point. *)
let bounds tel (p : params) =
  let sizes =
    match List.filter (fun s -> s <= p.n) [ 64; 256; 1024; 4096 ] with [] -> [ p.n ] | l -> l
  in
  let models = [ "bit-flip"; "uniform" ] in
  let daemons =
    [ ("sync", Verifier.Passive, fun _ -> Scheduler.Sync);
      ("async-random", Verifier.Handshake, fun st -> Scheduler.Async_random st);
      ("async-adversarial", Verifier.Handshake, fun st -> Scheduler.Async_adversarial st) ]
  in
  profiled tel @@ fun () ->
  let point size (daemon, mode, make) =
    Ssmst_parallel.Probe.with_ (Fmt.str "n = %d %s" size daemon) @@ fun () ->
    let inst =
      Ssmst_parallel.Probe.with_ "prepare" (fun () ->
          Verifier_campaign.prepare ~domains:p.domains ~mode ~daemon:(make (Gen.rng (p.seed + 1)))
            ~family:p.family ~n:size ~seed:p.seed ())
    in
    let g = Verifier_campaign.graph inst and os = run_trials p inst models in
    let dt_h = hist_of (fun o -> o.Campaign.detection_rounds) os in
    let dd_h = hist_of (fun o -> o.Campaign.detection_distance) os in
    let pt =
      { n = Graph.n g; daemon; delta = Graph.max_degree g; faults = p.faults;
        max_detection = Hist.max_value dt_h; max_distance = Hist.max_value dd_h;
        peak_bits = Verifier_campaign.peak_bits inst }
    in
    let claim (what, seen, bound, formula) =
      Fmt.str "%s %d, bound %d (%s)" what seen bound formula
    in
    ( pt,
      Fmt.str "n = %d, %s (Delta = %d, log n = %d): %s; undetected %d/%d" pt.n daemon pt.delta
        (Memory.of_nat pt.n)
        (String.concat "; " (List.map claim (bounds_of pt)))
        (List.length os - Hist.count dt_h)
        (List.length os) )
  in
  let points = List.concat_map (fun size -> List.map (point size) daemons) sizes in
  let r =
    report tel "bounds" p
      ~n:(List.fold_left (fun acc (pt, _) -> max acc pt.n) 0 points)
      ~daemon:(String.concat "," (List.map (fun (d, _, _) -> d) daemons))
      [ ("sizes", String.concat "," (List.map string_of_int sizes));
        ("models", String.concat "," models); ("trials per model", string_of_int p.trials);
        ("faults", string_of_int p.faults) ]
  in
  List.iter (fun (_, note) -> Report.add_note r note) points;
  Report.set_monitors r (List.concat_map (fun (pt, _) -> bound_checks pt) points);
  r

let run ~scenario tel p =
  match scenario with
  | "construct" -> construct tel p
  | "verify" -> verify tel p
  | "stabilize" -> stabilize tel p
  | "campaign" -> campaign tel p
  | "bounds" -> bounds tel p
  | s -> invalid_arg (Fmt.str "Observatory.run: unknown scenario %S" s)
