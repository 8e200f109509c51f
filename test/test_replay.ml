open Ssmst_graph
open Ssmst_sim
open Ssmst_protocols
open Ssmst_core
open Ssmst_replay

(* The flight recorder, end to end:

   - round-exact time travel: for every protocol, [Recorder.state_at r]
     equals a fresh lock-step re-execution paused at round r, at sampled
     rounds under the synchronous and adversarial daemons (plus a QCheck
     sweep over random instances);
   - the first-divergence bisector pinpoints a deliberately perturbed
     write to its exact (round, node, field);
   - ring wraparound stays sound: drops are counted, [sound_from] moves
     past the drop horizon, views before it are flagged inexact;
   - causal explain walks an alarm back to its fault injection with the
     right hop count, and reports a broken chain when the fault delta was
     dropped;
   - Hist edge cases feeding the recorder reports. *)

(* a silent protocol with plenty of churn before quiescence *)
module Flood = struct
  type state = { best : int; hops : int }

  let init g v = { best = Graph.id g v; hops = 0 }

  let step g v (s : state) read =
    Graph.fold_ports g v
      (fun acc p _ ->
        let su = read p in
        if su.best > acc.best then { best = su.best; hops = su.hops + 1 } else acc)
      s

  let alarm _ = false
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.best + Memory.of_nat s.hops
  let corrupt st _ _ (s : state) = { s with best = Random.State.int st 4096 }

  let corrupt_field st _ _ (s : state) =
    if Random.State.bool st then { s with best = Random.State.int st 4096 }
    else { s with hops = Random.State.int st 64 }

  let field_names = [| "best"; "hops" |]
  let encode (s : state) = [| s.best; s.hops |]
end

(* an alarming protocol with a deterministic fault, for provenance walks *)
module Watch = struct
  type state = { value : int; alarmed : bool }

  let init _ _ = { value = 0; alarmed = false }

  let step g v (s : state) read =
    let disagree = Graph.exists_ports g v (fun p _ -> (read p).value <> s.value) in
    if disagree && not s.alarmed then { s with alarmed = true } else s

  let alarm s = s.alarmed
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.value + 1
  let corrupt _ _ _ (s : state) = { value = s.value + 1; alarmed = false }
  let corrupt_field = corrupt
  let field_names = [| "value"; "alarmed" |]
  let encode (s : state) = [| s.value; Bool.to_int s.alarmed |]
end

let daemon_of kind seed =
  match kind with
  | 0 -> Scheduler.Sync
  | 1 -> Scheduler.Async_random (Gen.rng seed)
  | _ -> Scheduler.Async_adversarial (Gen.rng seed)

(* ---------------- round-exact replay vs a fresh re-execution ---------------- *)

module Replayer (P : Protocol.S) = struct
  module Net = Network.Make (P)
  module R = Recorder.Make (P)

  (* Record a run of [a]; a twin [b] (same graph, twin daemon RNGs, same
     fault schedule) re-executes from scratch, snapshotting the sampled
     rounds as it passes them; every snapshot must equal [state_at]. *)
  let run ?(interval = 8) ?capacity ?(rounds = 30) ?(faults = 2) ~samples ~ctx g ~kind
      ~seed () =
    let a = Net.create g and b = Net.create g in
    let da = daemon_of kind (seed + 1) and db = daemon_of kind (seed + 1) in
    let rec_ = R.create ~interval ?capacity ~round0:0 g (Net.states a) in
    Net.set_write_hook a (R.engine_hook rec_ (Net.states a));
    let mid = rounds / 2 in
    let snaps = ref [] in
    let maybe_snap () =
      let r = Net.rounds b in
      if List.mem r samples && not (List.mem_assoc r !snaps) then
        snaps := (r, Array.copy (Net.states b)) :: !snaps
    in
    maybe_snap ();
    for r = 1 to rounds do
      Net.round a da;
      Net.round b db;
      if r = mid && faults > 0 then begin
        ignore (Net.inject_faults a (Gen.rng (seed + 2)) ~count:faults);
        ignore (Net.inject_faults b (Gen.rng (seed + 2)) ~count:faults)
      end;
      maybe_snap ()
    done;
    let check_round (r, states) =
      let v = R.state_at rec_ r in
      if not v.R.exact then
        Alcotest.fail (Fmt.str "%s: replay at round %d is inexact" ctx r);
      Array.iteri
        (fun i s ->
          if not (P.equal s v.R.states.(i)) then
            Alcotest.fail
              (Fmt.str "%s: replay at round %d diverges at node %d" ctx r i))
        states
    in
    List.iter check_round ((Net.rounds b, Array.copy (Net.states b)) :: !snaps);
    rec_
end

(* ten pseudo-random sampled rounds in [0, rounds] *)
let sample_rounds ~seed ~rounds =
  let st = Gen.rng (seed * 7 + 13) in
  List.sort_uniq compare (List.init 10 (fun _ -> Random.State.int st (rounds + 1)))

let run_matrix_instance (type s) name (module P : Protocol.S with type state = s) g ~kind
    ~seed =
  let module RP = Replayer (P) in
  let rounds = 30 in
  let ctx = Fmt.str "%s n=%d daemon=%d" name (Graph.n g) kind in
  ignore
    (RP.run ~rounds ~samples:(sample_rounds ~seed ~rounds) ~ctx g ~kind ~seed ())

(* every protocol x n in {16, 64, 256} x {sync, adversarial} *)
let test_replay_matrix () =
  List.iter
    (fun n ->
      let g = Gen.random_connected (Gen.rng (9000 + n)) n in
      List.iter
        (fun kind ->
          let seed = (10 * n) + kind in
          run_matrix_instance "ss-bfs" (module Ss_bfs.P) g ~kind ~seed;
          (let t = (Sync_mst.run g).Sync_mst.tree in
           let parent =
             Array.init n (fun v ->
                 match Tree.parent t v with None -> -1 | Some p -> p)
           in
           let module W = Dist_wave.Make (struct
             let parent = parent
             let value _ = 1
             let combine = ( + )
           end) in
           run_matrix_instance "dist-wave" (module W) g ~kind ~seed);
          (let module R = Reset.Make (Ss_bfs.P) in
           run_matrix_instance "reset" (module R) g ~kind ~seed);
          (let module S = Synchronizer.Make (Ss_bfs.P) in
           run_matrix_instance "synchronizer" (module S) g ~kind ~seed);
          let m = Marker.run g in
          let module C = struct
            let marker = m
            let mode = Verifier.Passive
          end in
          let module V = Verifier.Make (C) in
          run_matrix_instance "verifier" (module V) g ~kind ~seed)
        [ 0; 2 ])
    [ 16; 64; 256 ]

(* the QCheck differential: random instance, random daemon, ten sampled
   rounds each — replay must equal the fresh re-execution everywhere *)
let qcheck_replay =
  QCheck.Test.make ~count:60 ~name:"replay equals fresh re-execution (random instances)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      let n = 8 + (seed mod 25) in
      let g = Gen.random_connected (Gen.rng seed) n in
      let module RP = Replayer (Flood) in
      let rounds = 24 in
      ignore
        (RP.run ~rounds ~samples:(sample_rounds ~seed ~rounds)
           ~ctx:(Fmt.str "flood seed=%d daemon=%d" seed kind)
           g ~kind ~seed ());
      true)

(* ---------------- the first-divergence bisector ---------------- *)

module FR = Recorder.Make (Flood)
module FNet = Network.Make (Flood)

(* record a run, then rebuild it write-by-write into a second recorder,
   perturbing exactly one write; the bisector must name that write *)
let test_bisector_exact () =
  let seed = 71 in
  let g = Gen.random_connected (Gen.rng seed) 16 in
  let net = FNet.create g in
  let init = Array.copy (FNet.states net) in
  let rec_a = FR.create ~interval:4 ~round0:0 g init in
  FNet.set_write_hook net (FR.engine_hook rec_a (FNet.states net));
  FNet.run net Scheduler.Sync ~rounds:10;
  ignore (FNet.inject_faults net (Gen.rng (seed + 2)) ~count:2);
  FNet.run net Scheduler.Sync ~rounds:10;
  let ws = FR.writes rec_a in
  Alcotest.(check bool) "recorded some writes" true (List.length ws > 4);
  let rebuild perturb =
    let rec_b = FR.create ~interval:4 ~round0:0 g init in
    let mirror = Array.copy init in
    List.iteri
      (fun i (w : FR.write) ->
        let s' =
          if Some i = perturb then { w.state with Flood.best = w.state.Flood.best + 777 }
          else w.state
        in
        FR.record_write rec_b ~round:w.round ~node:w.node ~old:mirror.(w.node)
          ~cause:w.cause s';
        mirror.(w.node) <- s')
      ws;
    rec_b
  in
  (* a faithful rebuild does not diverge — from itself or from the source *)
  Alcotest.(check bool) "no self-divergence" true
    (FR.first_divergence rec_a rec_a = None);
  Alcotest.(check bool) "faithful rebuild agrees" true
    (FR.first_divergence rec_a (rebuild None) = None);
  let k = List.length ws / 2 in
  let wk = List.nth ws k in
  match FR.first_divergence rec_a (rebuild (Some k)) with
  | None -> Alcotest.fail "perturbed rebuild reported no divergence"
  | Some (r, v, field) ->
      Alcotest.(check int) "divergence round" wk.FR.round r;
      Alcotest.(check int) "divergence node" wk.FR.node v;
      Alcotest.(check string) "divergence field" "best" field

(* ---------------- ring wraparound ---------------- *)

let test_ring_wraparound () =
  let seed = 83 in
  let n = 32 in
  let g = Gen.random_connected (Gen.rng seed) n in
  let a = FNet.create g and b = FNet.create g in
  let rec_ = FR.create ~interval:2 ~capacity:24 ~round0:0 g (FNet.states a) in
  FNet.set_write_hook a (FR.engine_hook rec_ (FNet.states a));
  let rounds = 20 in
  let snaps = ref [] in
  for _ = 1 to rounds do
    FNet.round a Scheduler.Sync;
    FNet.round b Scheduler.Sync;
    snaps := (FNet.rounds b, Array.copy (FNet.states b)) :: !snaps
  done;
  Alcotest.(check bool) "ring overflowed" true (FR.dropped rec_ > 0);
  let sound =
    match FR.sound_from rec_ with
    | None -> Alcotest.fail "no checkpoint survives the drop horizon"
    | Some r -> r
  in
  Alcotest.(check bool) "soundness horizon moved" true (sound > 0);
  (* before the horizon: flagged inexact, never silently wrong *)
  let early = FR.state_at rec_ (max 0 (sound - 1)) in
  Alcotest.(check bool) "pre-horizon view is flagged" false early.FR.exact;
  (* at or past the horizon: exact and equal to the fresh twin *)
  List.iter
    (fun (r, states) ->
      if r >= sound then begin
        let v = FR.state_at rec_ r in
        Alcotest.(check bool) (Fmt.str "round %d exact" r) true v.FR.exact;
        Array.iteri
          (fun i s ->
            if not (Flood.equal s v.FR.states.(i)) then
              Alcotest.fail (Fmt.str "wraparound replay diverges at round %d node %d" r i))
          states
      end)
    !snaps

(* ---------------- writes at the creation round ---------------- *)

(* [Flight.record_verify]'s shape: create the recorder on a settled network
   at round r0, then inject at r0 itself.  The creation checkpoint predates
   those writes, so [state_at r0] (and a cursor seeked there) must replay
   them — and stay exact until the next periodic checkpoint. *)
let test_creation_round_writes () =
  let module P = Ss_bfs.P in
  let module Net = Network.Make (P) in
  let module R = Recorder.Make (P) in
  let g = Gen.random_connected (Gen.rng 7) 16 in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds:100;
  let r0 = Net.rounds net in
  let rec_ = R.create ~interval:64 ~round0:r0 g (Net.states net) in
  Net.set_write_hook net (R.engine_hook rec_ (Net.states net));
  let victims = Net.inject_faults net (Gen.rng 9) ~count:2 in
  let expect_live what (v : R.view) =
    Alcotest.(check bool) (what ^ ": exact") true v.R.exact;
    Array.iteri
      (fun i s ->
        if not (P.equal s v.R.states.(i)) then
          Alcotest.failf "%s: node %d replays its pre-fault register (victims %a)" what i
            Fmt.(list ~sep:comma int)
            victims)
      (Net.states net)
  in
  expect_live "state_at r0" (R.state_at rec_ r0);
  let c = R.seek rec_ r0 in
  expect_live "seek r0" { R.round = r0; states = R.cursor_states c; exact = R.cursor_exact c };
  for k = 1 to 3 do
    Net.run net Scheduler.Sync ~rounds:1;
    expect_live (Fmt.str "state_at r0+%d" k) (R.state_at rec_ (r0 + k))
  done;
  Alcotest.(check (option int)) "sound from the start" (Some r0) (R.sound_from rec_)

(* ---------------- causal explain ---------------- *)

module WNet = Network.Make (Watch)
module WR = Recorder.Make (Watch)

(* path graph, one targeted deterministic fault at node 2: nodes 1 and 3
   alarm one round later at graph distance 1, node 2 at distance 0 *)
let record_watch ?(capacity = 4096) () =
  let g = Gen.path (Gen.rng 5) 6 in
  let net = WNet.create g in
  let rec_ = WR.create ~interval:4 ~capacity ~round0:0 g (WNet.states net) in
  WNet.set_write_hook net (WR.engine_hook rec_ (WNet.states net));
  let model = Fault.make ~placement:(Targeted [ 2 ]) ~count:1 () in
  let victims = WNet.inject net (Gen.rng 7) model in
  Alcotest.(check (list int)) "victim" [ 2 ] victims;
  WNet.run net Scheduler.Sync ~rounds:4;
  (rec_, List.sort compare (WNet.alarming_nodes net))

let test_explain_path () =
  let rec_, alarms = record_watch () in
  Alcotest.(check (list int)) "alarm set" [ 1; 2; 3 ] alarms;
  let hop_count node expect =
    match WR.explain rec_ ~node () with
    | Error e -> Alcotest.fail (Provenance.error_to_string e)
    | Ok (p : Provenance.path) ->
        Alcotest.(check int) (Fmt.str "node %d hops" node) expect p.node_changes;
        (* the chain terminates at the injection into node 2 *)
        (match p.hops with
        | first :: _ -> Alcotest.(check int) "chain starts at the victim" 2 first.Provenance.node
        | [] -> Alcotest.fail "empty witness path");
        (* the alarm write is the last hop and belongs to the queried node *)
        (match List.rev p.hops with
        | last :: _ -> Alcotest.(check int) "chain ends at the alarm" node last.Provenance.node
        | [] -> ())
  in
  hop_count 1 1;
  hop_count 3 1;
  hop_count 2 0;
  (* a node that never alarmed has no witness *)
  (match WR.explain rec_ ~node:5 () with
  | Error Provenance.No_such_write -> ()
  | Error e -> Alcotest.fail (Provenance.error_to_string e)
  | Ok _ -> Alcotest.fail "explained an alarm that never fired")

(* capacity 2 retains only the newest alarm writes: the fault delta is
   dropped, so every retained witness chain must surface as broken *)
let test_explain_broken_chain () =
  let rec_, alarms = record_watch ~capacity:2 () in
  Alcotest.(check bool) "deltas were dropped" true (WR.dropped rec_ > 0);
  let outcomes = List.map (fun node -> WR.explain rec_ ~node ()) alarms in
  Alcotest.(check bool) "no fabricated witness" true
    (List.for_all (function Ok _ -> false | Error _ -> true) outcomes);
  Alcotest.(check bool) "at least one broken chain" true
    (List.exists
       (function Error (Provenance.Broken_chain _) -> true | _ -> false)
       outcomes)

(* ---------------- the Flight drivers (CLI backends) ---------------- *)

let test_flight_verify () =
  let p =
    { Observatory.default_params with n = 24; seed = 11; faults = 2; clustered = true }
  in
  let r = Flight.record_verify p in
  let v = r.Flight.facts in
  Alcotest.(check bool) "faults detected" true (v.Observatory.detection <> None);
  Alcotest.(check bool) "nothing dropped" true (r.Flight.dropped = 0);
  Alcotest.(check bool) "replayed end state equals live" true r.Flight.end_equal;
  Alcotest.(check bool) "alarms raised" true (v.Observatory.alarms <> []);
  Alcotest.(check bool) "every alarm witnessed within the bound" true
    (Flight.all_witnessed r)

let test_flight_replay () =
  let p =
    {
      Observatory.default_params with
      n = 24;
      seed = 13;
      faults = 2;
      clustered = true;
      interval = 8;
    }
  in
  let r = Flight.replay_probe p ~seek:0 ~steps:6 ~diff:true in
  Alcotest.(check bool) "engines agree at the end" true r.Flight.end_equal;
  Alcotest.(check bool) "no divergence between engines" true (r.Flight.divergence = None);
  Alcotest.(check bool) "views were produced" true (List.length r.Flight.views > 1);
  Alcotest.(check bool) "views are exact" true
    (List.for_all (fun (v : Flight.view) -> v.Flight.exact) r.Flight.views)

(* hypertree rounds a request of 100 down to 63 nodes: the campaign
   scenario resolves its fault models, and the recorder computes its
   detection-distance bound, against the 63 nodes actually built *)
let test_built_n () =
  let p = { Observatory.default_params with family = "hypertree"; n = 100; faults = 3 } in
  let report = Observatory.run ~scenario:"campaign" (Ssmst_obs.Telemetry.fake ()) p in
  Alcotest.(check bool) "campaign monitors ok" true (Ssmst_obs.Report.all_monitors_ok report);
  let r = Flight.record_verify p in
  let v = r.Flight.facts in
  Alcotest.(check int) "built n" 63 (Graph.n v.Observatory.graph);
  let f = max 1 (List.length v.Observatory.victims) in
  Alcotest.(check bool) "alarms raised" true (r.Flight.witnesses <> []);
  List.iter
    (fun (w : Flight.witness) ->
      Alcotest.(check int) "bound from 63 nodes" (p.distance_c * f * Memory.of_nat 63) w.Flight.bound)
    r.Flight.witnesses

(* The three verify paths run one experiment (Theorem 8.5: settle,
   inject f faults drawn from [seed + 2], run to the first alarm), so they
   must agree on it: the flight recorder's run, the observatory's verify
   scenario and a bare {!Verifier_campaign.Net}.  The observatory's leg
   compares the report's settle and detection notes and its whole metrics
   row (writes, alarms raised and cleared, ...), which the victims
   determine; a trace hung on the scenario through its listener must hold,
   event for event, what a trace attached by hand after [settle] records. *)
let test_verify_paths_agree () =
  let open Ssmst_obs in
  let metrics_rows r =
    List.filter
      (fun l -> String.starts_with ~prefix:"metrics:" l)
      (String.split_on_char '\n' (Report.to_csv r))
  in
  List.iter
    (fun family ->
      let p = { Observatory.default_params with family; n = 64; seed = 11; faults = 2 } in
      let g = Observatory.graph_of p in
      let module N = Verifier_campaign.Net (struct
        let marker = Marker.run g
        let mode = Verifier.Passive
      end) in
      let net = N.create g in
      N.settle net Scheduler.Sync;
      let settled = N.rounds net in
      let bare_trace = Trace.create () in
      N.attach_trace net bare_trace;
      let victims = N.inject_faults net (Gen.rng (p.seed + 2)) ~count:p.faults in
      let detection = N.detection_time net Scheduler.Sync ~max_rounds:p.max_rounds in
      let ctx what = Fmt.str "%s: %s" family what in
      let v = (Flight.record_verify p).Flight.facts in
      Alcotest.(check int) (ctx "flight settled round") settled v.Observatory.settled_round;
      Alcotest.(check (list int)) (ctx "flight victims") victims v.Observatory.victims;
      Alcotest.(check (option int)) (ctx "flight detection") detection v.Observatory.detection;
      let report = Observatory.run ~scenario:"verify" (Telemetry.fake ()) p in
      let md = Report.to_markdown report in
      let note what line =
        Alcotest.(check bool) (ctx ("observatory " ^ what)) true (Test_obs.contains md line)
      in
      note "settled round" (Fmt.str "settled after %d rounds;" settled);
      note "detection"
        (Fmt.str "injected %d fault(s); detected after %d rounds at distance %d"
           (List.length victims) (Option.get detection)
           (Option.get (N.detection_distance net ~faults:victims)));
      let own = Report.create ~title:"" ~scenario:[] () in
      Report.add_metrics own "verifier network" (N.metrics net);
      Alcotest.(check (list string)) (ctx "observatory metrics") (metrics_rows own)
        (metrics_rows report);
      let scenario_trace = Trace.create () in
      ignore
        (Observatory.verify_run ~listen:(Observatory.Trace scenario_trace) (Telemetry.fake ()) p);
      let events tr = List.map Trace.event_to_json (Trace.to_list tr) in
      Alcotest.(check bool) (ctx "bare trace is not empty") true (Trace.length bare_trace > 0);
      Alcotest.(check (list string)) (ctx "scenario trace = bare trace") (events bare_trace)
        (events scenario_trace);
      if family = "random" then begin
        Alcotest.(check int) "random: settled at" 2560 settled;
        Alcotest.(check (list int)) "random: victims" [ 50; 51 ] victims;
        Alcotest.(check (option int)) "random: detected after" (Some 1) detection
      end)
    [ "random"; "grid"; "hypertree" ]

(* ---------------- Hist edge cases ---------------- *)

let test_hist_edges () =
  let open Ssmst_obs in
  let h = Hist.create () in
  Alcotest.(check bool) "empty" true (Hist.is_empty h);
  Alcotest.(check int) "empty p50" 0 (Hist.p50 h);
  Alcotest.(check int) "empty p99" 0 (Hist.p99 h);
  Alcotest.(check int) "empty quantile 1.0" 0 (Hist.quantile h 1.0);
  (* single sample: every quantile is that sample *)
  Hist.record h 42;
  Alcotest.(check int) "single p50" 42 (Hist.p50 h);
  Alcotest.(check int) "single p99" 42 (Hist.p99 h);
  Alcotest.(check int) "single min" 42 (Hist.min_value h);
  Alcotest.(check int) "single max" 42 (Hist.max_value h);
  (* max_int lands in the top bucket and quantiles clamp to it *)
  let m = Hist.create () in
  Hist.record m max_int;
  Hist.record m (-5);
  Alcotest.(check int) "negative clamps to 0" 0 (Hist.min_value m);
  Alcotest.(check int) "max_int preserved" max_int (Hist.max_value m);
  Alcotest.(check int) "top quantile clamps to max_int" max_int (Hist.quantile m 1.0);
  Alcotest.(check int) "count" 2 (Hist.count m);
  match List.rev (Hist.nonzero m) with
  | (upper, 1) :: _ ->
      Alcotest.(check bool) "top bucket upper bound >= 2^62" true (upper >= 1 lsl 62)
  | _ -> Alcotest.fail "max_int did not land in its own bucket"

let suite =
  [
    Alcotest.test_case "round-exact replay matrix (protocols x n x daemon)" `Slow
      test_replay_matrix;
    QCheck_alcotest.to_alcotest qcheck_replay;
    Alcotest.test_case "bisector pinpoints a perturbed write" `Quick test_bisector_exact;
    Alcotest.test_case "ring wraparound stays sound and flagged" `Quick
      test_ring_wraparound;
    Alcotest.test_case "state_at replays writes at the creation round" `Quick
      test_creation_round_writes;
    Alcotest.test_case "explain walks alarm back to the fault" `Quick test_explain_path;
    Alcotest.test_case "explain surfaces broken chains" `Quick test_explain_broken_chain;
    Alcotest.test_case "flight verify: witnesses within the bound" `Quick
      test_flight_verify;
    Alcotest.test_case "flight replay: seek/step/diff" `Quick test_flight_replay;
    Alcotest.test_case "flight + observatory: hypertree runs on the built n" `Quick test_built_n;
    Alcotest.test_case "flight, observatory and Net agree on settle/inject/detect" `Quick
      test_verify_paths_agree;
    Alcotest.test_case "hist edge cases" `Quick test_hist_edges;
  ]
