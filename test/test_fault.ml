open Ssmst_graph
open Ssmst_sim
open Ssmst_core

(* The fault-model subsystem: deterministic victim choice per placement,
   severity semantics, intermittent cadence, and the detection-distance
   fix for alarms unreachable from every fault. *)

let rng = Gen.rng
let graph seed n = Gen.random_connected (rng seed) n

let is_sorted_distinct l =
  let rec go = function a :: (b :: _ as rest) -> a < b && go rest | _ -> true in
  go l

(* ---------------- victim choice ---------------- *)

let placements n root =
  [
    Fault.Uniform;
    Fault.Clustered { center = Some root; radius = 2 };
    Fault.Clustered { center = None; radius = 1 };
    Fault.Near_root { root };
    Fault.Targeted [ 0; n / 2; n - 1 ];
  ]

let victims_deterministic () =
  let g = graph 11 24 in
  List.iter
    (fun placement ->
      let m = Fault.make ~placement ~count:4 () in
      let a = Fault.choose_victims (rng 7) g m in
      let b = Fault.choose_victims (rng 7) g m in
      Alcotest.(check (list int)) (Fault.to_string m ^ ": same seed, same victims") a b;
      Alcotest.(check bool) (Fault.to_string m ^ ": sorted, distinct") true (is_sorted_distinct a);
      Alcotest.(check bool)
        (Fault.to_string m ^ ": in range")
        true
        (List.for_all (fun v -> v >= 0 && v < Graph.n g) a))
    (placements 24 5)

(* Regression for the Hashtbl.fold order leak: the uniform sampler must
   return a sorted list no matter the internal fold order, and both
   engines must agree on it (they share the chooser). *)
let uniform_sorted_regression () =
  for seed = 0 to 19 do
    let g = graph (300 + seed) 30 in
    let vs = Fault.choose_victims (rng seed) g (Fault.uniform ~count:6) in
    Alcotest.(check int) "six victims" 6 (List.length vs);
    Alcotest.(check bool) "sorted and distinct" true (is_sorted_distinct vs)
  done

let clustered_radius () =
  let g = graph 23 40 in
  let center = 7 and radius = 2 in
  let d = Dist.bfs g center in
  let m = Fault.make ~placement:(Clustered { center = Some center; radius }) ~count:6 () in
  let vs = Fault.choose_victims (rng 3) g m in
  Alcotest.(check bool) "some victims" true (vs <> []);
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "victim %d within radius %d of %d" v radius center)
        true
        (d.(v) >= 0 && d.(v) <= radius))
    vs

let near_root_closest () =
  let g = graph 29 24 in
  let root = 3 in
  let d = Dist.bfs g root in
  let count = 5 in
  let expected =
    List.init (Graph.n g) Fun.id
    |> List.sort (fun u v -> compare (d.(u), u) (d.(v), v))
    |> List.filteri (fun i _ -> i < count)
    |> List.sort compare
  in
  let m = Fault.make ~placement:(Near_root { root }) ~count () in
  Alcotest.(check (list int)) "the f closest nodes" expected (Fault.choose_victims (rng 1) g m);
  (* fully deterministic: different RNG states agree *)
  Alcotest.(check (list int))
    "consumes no randomness" expected
    (Fault.choose_victims (rng 999) g m)

let targeted_dedup () =
  let g = graph 31 12 in
  let m = Fault.make ~placement:(Targeted [ 5; 1; 3; 1; 5 ]) ~count:99 () in
  Alcotest.(check (list int)) "sorted dedup" [ 1; 3; 5 ] (Fault.choose_victims (rng 0) g m);
  Alcotest.check_raises "out of range rejected" (Invalid_argument "Fault.choose_victims: targeted victim out of range")
    (fun () -> ignore (Fault.choose_victims (rng 0) g (Fault.make ~placement:(Targeted [ 12 ]) ~count:1 ())))

(* ---------------- severity semantics ---------------- *)

module Toy = struct
  type state = { a : int; b : int }

  let init g v = { a = Graph.id g v; b = 0 }
  let step _ _ s _ = s
  let alarm _ = false
  let equal (x : state) (y : state) = x = y
  let bits _g _v s = Memory.of_int s.a + Memory.of_nat s.b
  let corrupt st _ _ _ = { a = Random.State.int st 4096; b = Random.State.int st 4096 }
  let corrupt_field st _ _ s = { s with b = 1 + Random.State.int st 64 }
  let field_names = [| "a"; "b" |]
  let encode s = [| s.a; s.b |]
end

module ToyApply = Fault.Apply (Toy)

let severity_semantics () =
  let g = graph 41 16 in
  let run severity =
    let states = Array.init (Graph.n g) (fun v -> { Toy.a = 100 + v; b = 100 + v }) in
    let vs =
      ToyApply.apply (rng 5) g
        (Fault.make ~severity ~count:4 ())
        ~get:(fun v -> states.(v))
        ~set:(fun v s -> states.(v) <- s)
    in
    (vs, states)
  in
  let vs, states = run Fault.Crash_reset in
  List.iter
    (fun v ->
      Alcotest.(check bool) "crash resets to init" true (Toy.equal states.(v) (Toy.init g v)))
    vs;
  let vs, states = run Fault.Bit_flip in
  List.iter
    (fun v ->
      Alcotest.(check int) "bit-flip leaves field a" (100 + v) states.(v).Toy.a;
      Alcotest.(check bool) "bit-flip perturbs field b" true (states.(v).Toy.b <> 100 + v))
    vs;
  (* untouched nodes keep their registers under every severity *)
  List.iter
    (fun severity ->
      let vs, states = run severity in
      Array.iteri
        (fun v s ->
          if not (List.mem v vs) then
            Alcotest.(check bool) "non-victim untouched" true (Toy.equal s { Toy.a = 100 + v; b = 100 + v }))
        states)
    [ Fault.Corrupt_random; Fault.Crash_reset; Fault.Bit_flip ]

(* ---------------- intermittent cadence (Campaign.drive) ---------------- *)

let intermittent_cadence () =
  let g = graph 53 10 in
  let period = 25 and repeats = 3 in
  let model =
    Fault.make ~cadence:(Intermittent { period; repeats }) ~count:2 ()
  in
  let r = ref 0 and bursts = ref [] in
  let outcome =
    Campaign.drive ~rng:(rng 2) ~model ~max_rounds:120
      ~round:(fun () -> incr r)
      ~any_alarm:(fun () -> false)
      ~inject:(fun st m ->
        bursts := !r :: !bursts;
        Fault.choose_victims st g m)
      ~distance:(fun ~faults:_ -> None)
  in
  let bursts = List.rev !bursts in
  Alcotest.(check int) "initial burst + repeats" (repeats + 1) (List.length bursts);
  (match bursts with
  | first :: _ -> Alcotest.(check int) "first burst before any round" 0 first
  | [] -> Alcotest.fail "no bursts");
  List.iteri
    (fun i b -> Alcotest.(check int) (Fmt.str "burst %d on the period" i) (i * period) b)
    bursts;
  Alcotest.(check int) "two victims per burst" (2 * (repeats + 1)) outcome.Campaign.injections;
  Alcotest.(check (option int)) "never detected" None outcome.Campaign.detection_rounds;
  Alcotest.(check int) "ran to the horizon" 120 outcome.Campaign.rounds_run

(* one-shot never re-injects even across a long horizon *)
let one_shot_cadence () =
  let g = graph 59 10 in
  let count = ref 0 in
  let outcome =
    Campaign.drive ~rng:(rng 4) ~model:(Fault.uniform ~count:3) ~max_rounds:90
      ~round:(fun () -> ())
      ~any_alarm:(fun () -> false)
      ~inject:(fun st m ->
        incr count;
        Fault.choose_victims st g m)
      ~distance:(fun ~faults:_ -> None)
  in
  Alcotest.(check int) "exactly one burst" 1 !count;
  Alcotest.(check int) "three victims" 3 outcome.Campaign.injections

(* ---------------- detection distance: unreachable alarms ---------------- *)

module Watcher = struct
  type state = bool

  let init _ _ = false
  let step _ _ s _ = s
  let alarm s = s
  let equal = Bool.equal
  let bits _ _ _ = 1
  let corrupt _ _ _ _ = true
  let corrupt_field _ _ _ (_ : state) = true
  let field_names = [| "alarmed" |]
  let encode (s : state) = [| Bool.to_int s |]
end

let two_components () = Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 1) ]

let detection_distance_unreachable () =
  let g = two_components () in
  Alcotest.(check (option int))
    "alarm in the other component" None
    (Dist.detection_distance g ~faults:[ 0 ] ~alarms:[ 3 ]);
  Alcotest.(check (option int))
    "alarm next door" (Some 1)
    (Dist.detection_distance g ~faults:[ 0 ] ~alarms:[ 1 ]);
  Alcotest.(check (option int))
    "nearest reachable alarm wins" (Some 1)
    (Dist.detection_distance g ~faults:[ 0 ] ~alarms:[ 1; 3 ]);
  Alcotest.(check (option int))
    "no alarms" None
    (Dist.detection_distance g ~faults:[ 0 ] ~alarms:[]);
  (* one fault sees only an unreachable alarm: the whole measurement is
     undefined, not max_int (the old bug) *)
  Alcotest.(check (option int))
    "any unreachable fault poisons the max" None
    (Dist.detection_distance g ~faults:[ 0; 2 ] ~alarms:[ 1 ])

let net_detection_distance_unreachable () =
  let module Net = Ssmst_oracle.Naive (Watcher) in
  let g = two_components () in
  let net = Net.create g in
  Net.set_state net 3 true;
  Alcotest.(check (option int))
    "engine-level: None, not Some max_int" None
    (Net.detection_distance net ~faults:[ 0 ]);
  Alcotest.(check (option int))
    "engine-level: reachable alarm measured" (Some 1)
    (Net.detection_distance net ~faults:[ 2 ])

(* ---------------- transformer epoch re-injection ---------------- *)

let transformer_inject_model () =
  let g = graph 61 14 in
  let t = Transformer.create g in
  let before = t.Transformer.reconstructions in
  let faults =
    Transformer.inject_model t (rng 8)
      (Fault.make ~placement:(Clustered { center = None; radius = 2 }) ~count:3 ())
  in
  Alcotest.(check bool) "victims chosen" true (faults <> []);
  Transformer.advance t ~rounds:20_000;
  Alcotest.(check bool)
    "detection triggered a reconstruction" true
    (t.Transformer.reconstructions > before);
  Alcotest.(check bool)
    "output is a spanning tree again" true
    (Tree.n (Transformer.tree t) = Graph.n g)

(* ---------------- campaign determinism + the O(f log n) bound ---------------- *)

let sweep () =
  Verifier_campaign.sweep ~families:[ "random" ] ~sizes:[ 16 ] ~fault_counts:[ 1; 2 ]
    ~models:[ "uniform"; "clustered" ] ~seeds:2 ~seed:4242 ~max_rounds:50_000 ()

let campaign_seed_deterministic () =
  let rows ts = List.map Campaign.trial_to_csv ts in
  let a = sweep () and b = sweep () in
  Alcotest.(check (list string)) "identical CSV for identical seed" (rows a) (rows b);
  Alcotest.(check int) "full grid" (2 * 2 * 2) (List.length a);
  List.iter
    (fun (t : Campaign.trial) ->
      Alcotest.(check bool)
        "every trial detected" true
        (t.outcome.detection_rounds <> None))
    a

let campaign_distance_bound () =
  let trials =
    Verifier_campaign.sweep ~families:[ "random" ] ~sizes:[ 32 ] ~fault_counts:[ 1; 2; 4 ]
      ~models:[ "uniform" ] ~seeds:2 ~seed:7100 ~max_rounds:100_000 ()
  in
  let log2n = int_of_float (ceil (Float.log2 32.)) in
  List.iter
    (fun (t : Campaign.trial) ->
      match t.outcome.detection_distance with
      | None -> Alcotest.fail "uniform trial undetected or unreachable"
      | Some d ->
          Alcotest.(check bool)
            (Fmt.str "f=%d: distance %d within 3 f log n" t.spec.faults d)
            true
            (d <= 3 * t.spec.faults * log2n))
    trials

(* ---------------- actual n vs requested n ---------------- *)

(* grid and hypertree round the requested size; campaign rows must record
   the size that was actually built (the n the f·log n bound reads), with
   the request preserved in its own column. *)
let family_actual_n () =
  let n_of family req = Graph.n (Verifier_campaign.graph_of_family family (rng 1) req) in
  Alcotest.(check int) "grid 32 -> 5x5" 25 (n_of "grid" 32);
  Alcotest.(check int) "grid 64 -> 8x8" 64 (n_of "grid" 64);
  Alcotest.(check int) "hypertree 5 -> minimum 7" 7 (n_of "hypertree" 5);
  Alcotest.(check int) "hypertree 15 exact" 15 (n_of "hypertree" 15);
  Alcotest.(check int) "hypertree 20 rounds down" 15 (n_of "hypertree" 20);
  Alcotest.(check int) "hypertree 31 exact" 31 (n_of "hypertree" 31);
  Alcotest.(check int) "random is exact" 18 (n_of "random" 18)

(* the one family table's size switch: random, grid and hypertree come
   from the streamed CSR builders at the threshold and from the
   Random.State builders one node below it *)
let build_graph_streams () =
  let seed = 9 and at = Verifier_campaign.stream_threshold in
  let edges g = Graph.edges g in
  let built family n = edges (Verifier_campaign.build_graph ~family ~seed n) in
  let side = int_of_float (sqrt (float_of_int at)) in
  Alcotest.(check bool) "random streams" true (built "random" at = edges (Gen.stream_random ~seed at));
  Alcotest.(check bool) "grid streams" true
    (built "grid" at = edges (Gen.stream_grid ~seed side side));
  Alcotest.(check bool) "hypertree streams" true
    (built "hypertree" at = edges (Gen.stream_hypertree ~seed 14));
  List.iter
    (fun family ->
      Alcotest.(check bool)
        (family ^ " below the threshold")
        true
        (built family (at - 1)
        = edges (Verifier_campaign.graph_of_family family (Gen.rng seed) (at - 1))))
    [ "random"; "grid"; "hypertree" ]

let campaign_records_actual_n () =
  let trials =
    Verifier_campaign.sweep ~families:[ "grid"; "hypertree" ] ~sizes:[ 32 ] ~fault_counts:[ 1 ]
      ~models:[ "uniform" ] ~seeds:1 ~seed:5150 ~max_rounds:50_000 ()
  in
  List.iter
    (fun (t : Campaign.trial) ->
      Alcotest.(check int) "requested_n is the grid size" 32 t.spec.requested_n;
      let expect = match t.spec.family with "grid" -> 25 | _ -> 31 in
      Alcotest.(check int) (t.spec.family ^ ": n is the built size") expect t.spec.n)
    trials;
  (* both columns survive the serializers *)
  let row = Campaign.trial_to_csv (List.hd trials) in
  Alcotest.(check bool) "csv carries n,requested_n" true
    (String.length row > 0 && String.sub row 0 8 = "grid,25,")

(* ---------------- restore is metrics/trace-neutral ---------------- *)

(* The campaign-trial rewind: installing a snapshot must not count
   register writes, stamp last-write rounds, or emit trace events — the
   old [set_state] loop did all three, poisoning every per-trial metric
   read before the injection. *)
let restore_neutral () =
  let g = graph 71 16 in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let settle = Net.create g in
  Net.run settle Scheduler.Sync ~rounds:(8 * Verifier.window_bound m.Marker.labels.(0));
  let snapshot = Array.copy (Net.states settle) in
  let tr = Trace.create () in
  let net = Net.create ~trace:tr g in
  Net.restore net snapshot;
  Alcotest.(check int) "no register writes" 0 (Net.metrics net).Metrics.register_writes;
  Alcotest.(check int) "no alarms raised" 0 (Net.metrics net).Metrics.alarms_raised;
  Alcotest.(check int) "no trace events" 0 (Trace.total tr);
  for v = 0 to Graph.n g - 1 do
    Alcotest.(check int) "last_write untouched" 0 (Net.last_write_round net v);
    Alcotest.(check bool) "state installed" true (P.equal (Net.state net v) snapshot.(v))
  done;
  Alcotest.(check bool) "settled snapshot is silent" false (Net.any_alarm net);
  (* from here on, writes are protocol work and must count again *)
  let victims = Net.inject net (rng 9) (Fault.uniform ~count:1) in
  Alcotest.(check int) "one victim" 1 (List.length victims);
  Alcotest.(check int)
    "injection is the first counted write" 1
    (Net.metrics net).Metrics.register_writes;
  Alcotest.check_raises "size mismatch rejected"
    (Invalid_argument "Network.restore: snapshot size does not match the network") (fun () ->
      Net.restore net (Array.sub snapshot 0 3))

(* restore must still rebuild the alarm flags it does not trace: a
   snapshot with a latched alarm makes [any_alarm] true immediately,
   while [alarms_raised] (a transition counter) stays 0. *)
let restore_rebuilds_alarms () =
  let module Net = Network.Make (Watcher) in
  let g = graph 73 8 in
  let net = Net.create g in
  let snapshot = Array.init (Graph.n g) (fun v -> v = 3) in
  Net.restore net snapshot;
  Alcotest.(check bool) "alarm visible" true (Net.any_alarm net);
  Alcotest.(check int) "but not counted as a transition" 0
    (Net.metrics net).Metrics.alarms_raised;
  Alcotest.(check (option int))
    "detection distance reads the restored flags" (Some 1)
    (Net.detection_distance net ~faults:[ 2 ])

(* ---------------- sync-round write order ---------------- *)

(* Deferred writes must be applied (and traced) in ascending node id —
   the canonical activation order — not in the reverse-frontier order an
   implementation detail used to leak. *)
let sync_writes_ascending () =
  let module Net = Network.Make (Test_engine_diff.Flood) in
  let g = graph 79 24 in
  let tr = Trace.create () in
  let net = Net.create ~trace:tr g in
  Net.run net Scheduler.Sync ~rounds:12;
  let per_round = Hashtbl.create 16 in
  Trace.iter
    (function
      | Trace.Register_write { round; node; _ } ->
          let prev = try Hashtbl.find per_round round with Not_found -> [] in
          Hashtbl.replace per_round round (node :: prev)
      | _ -> ())
    tr;
  Alcotest.(check bool) "some writes happened" true (Hashtbl.length per_round > 0);
  Hashtbl.iter
    (fun round nodes ->
      let nodes = List.rev nodes in
      Alcotest.(check (list int))
        (Fmt.str "round %d writes ascend" round)
        (List.sort compare nodes) nodes)
    per_round

(* ---------------- monomorphic comparator regressions ---------------- *)

(* Near-root selection sorts (distance, id) lexicographically; the PR-10
   rewrite replaced the polymorphic tuple compare with a hand-rolled int
   comparator, so pin the tie-break explicitly: on a star every leaf is
   equidistant from the hub, and the f closest must be the root plus the
   lowest-id leaves, in ascending order, independent of the RNG. *)
let near_root_tie_break () =
  let n = 12 in
  let star = Graph.of_edges ~n (List.init (n - 1) (fun i -> (0, i + 1, i + 1))) in
  let m = Fault.make ~placement:(Near_root { root = 0 }) ~count:5 () in
  Alcotest.(check (list int))
    "equidistant ties break to the lowest ids, ascending" [ 0; 1; 2; 3; 4 ]
    (Fault.choose_victims (rng 4) star m);
  Alcotest.(check (list int))
    "independent of RNG state" [ 0; 1; 2; 3; 4 ]
    (Fault.choose_victims (rng 12345) star m)

(* Campaign quantiles sort detection values with [Int.compare] (previously
   polymorphic [compare]): unsorted input with duplicates must aggregate to
   the same (min, lower-median, ceiling-p95) triple regardless of trial
   order. *)
let campaign_percentiles_sorted () =
  let spec =
    { Campaign.family = "grid"; n = 16; requested_n = 16; faults = 1; model = "uniform"; seed = 0 }
  in
  let trial dt =
    {
      Campaign.spec;
      outcome =
        {
          Campaign.victims = [ 0 ];
          injections = 1;
          detection_rounds = Some dt;
          detection_distance = Some dt;
          rounds_run = dt;
        };
    }
  in
  let check values (min_, med, p95) =
    match Campaign.aggregate (List.map trial values) with
    | [ a ] ->
        Alcotest.(check int) "dt_min" min_ a.Campaign.dt_min;
        Alcotest.(check int) "dt_med" med a.Campaign.dt_med;
        Alcotest.(check int) "dt_p95" p95 a.Campaign.dt_p95
    | aggs -> Alcotest.failf "expected one aggregate row, got %d" (List.length aggs)
  in
  check [ 9; 2; 7; 2; 5 ] (2, 5, 9);
  (* order-independence: a permutation aggregates identically *)
  check [ 2; 5; 9; 7; 2 ] (2, 5, 9);
  check [ 4 ] (4, 4, 4);
  check [ 3; 3; 3; 3 ] (3, 3, 3)

let suite =
  [
    Alcotest.test_case "victim choice is seed-deterministic" `Quick victims_deterministic;
    Alcotest.test_case "uniform victims come back sorted" `Quick uniform_sorted_regression;
    Alcotest.test_case "clustered victims stay in the ball" `Quick clustered_radius;
    Alcotest.test_case "near-root picks the f closest nodes" `Quick near_root_closest;
    Alcotest.test_case "targeted dedups and validates" `Quick targeted_dedup;
    Alcotest.test_case "severity semantics" `Quick severity_semantics;
    Alcotest.test_case "intermittent cadence re-injects on the period" `Quick intermittent_cadence;
    Alcotest.test_case "one-shot cadence fires once" `Quick one_shot_cadence;
    Alcotest.test_case "detection distance: unreachable alarm is None" `Quick
      detection_distance_unreachable;
    Alcotest.test_case "network detection distance across components" `Quick
      net_detection_distance_unreachable;
    Alcotest.test_case "transformer epoch re-injection" `Quick transformer_inject_model;
    Alcotest.test_case "campaign is seed-deterministic" `Quick campaign_seed_deterministic;
    Alcotest.test_case "uniform detection distance within O(f log n)" `Quick
      campaign_distance_bound;
    Alcotest.test_case "grid/hypertree build their rounded sizes" `Quick family_actual_n;
    Alcotest.test_case "build_graph streams from the threshold on" `Quick build_graph_streams;
    Alcotest.test_case "campaign rows record actual n and requested n" `Quick
      campaign_records_actual_n;
    Alcotest.test_case "restore is metrics/trace-neutral" `Quick restore_neutral;
    Alcotest.test_case "restore rebuilds alarm flags without counting them" `Quick
      restore_rebuilds_alarms;
    Alcotest.test_case "sync-round writes apply in ascending node id" `Quick
      sync_writes_ascending;
    Alcotest.test_case "near-root ties break to the lowest ids" `Quick near_root_tie_break;
    Alcotest.test_case "campaign percentiles sort their input" `Quick
      campaign_percentiles_sorted;
  ]
