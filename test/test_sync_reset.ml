open Ssmst_graph
open Ssmst_sim
open Ssmst_protocols

(* ---------------- the alpha synchronizer ---------------- *)

(* a pulse-sensitive protocol: BFS distance computation that is only
   correct under synchronous semantics (it counts rounds explicitly) *)
module Sync_bfs = struct
  type state = { dist : int; round : int }

  let init g v = { dist = (if Graph.id g v = 0 then 0 else max_int); round = 0 }

  let step g v (s : state) read =
    let best =
      Graph.fold_ports g v
        (fun acc p _ ->
          let d = (read p).dist in
          if d < max_int then min acc (d + 1) else acc)
        s.dist
    in
    ignore v;
    { dist = best; round = s.round + 1 }

  let alarm _ = false
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int (min s.dist 1000000) + Memory.of_nat s.round
  let corrupt _ _ _ s = s
  let corrupt_field _ _ _ s = s
  let field_names = [| "dist"; "round" |]
  let encode (s : state) = [| s.dist; s.round |]
end

module S = Synchronizer.Make (Sync_bfs)
module SNet = Network.Make (S)
module Plain = Network.Make (Sync_bfs)

let test_synchronizer_matches_sync () =
  let st = Gen.rng 2900 in
  let g = Gen.random_connected st 24 in
  (* reference: plain synchronous run *)
  let refnet = Plain.create g in
  Plain.run refnet Scheduler.Sync ~rounds:30;
  (* synchronized run under the adversarial daemon *)
  let net = SNet.create g in
  let daemon = Scheduler.Async_adversarial (Gen.rng 2901) in
  (* run until every pulse reaches 30 *)
  let _, reached =
    SNet.run_until net daemon ~max_rounds:2000 (fun net ->
        Array.for_all (fun s -> S.pulse s >= 30) (SNet.states net))
  in
  Alcotest.(check bool) "all pulses reached 30" true reached;
  (* states at pulse 30 must match the synchronous round-30 states *)
  Array.iteri
    (fun v (s : S.state) ->
      let expected = (Plain.state refnet v).Sync_bfs.dist in
      (* pulses may exceed 30; dist is monotone and stabilizes before 30
         rounds on a 24-node graph, so compare directly *)
      Alcotest.(check int) (Fmt.str "dist at node %d" v) expected (S.current s).Sync_bfs.dist)
    (SNet.states net)

let test_pulse_skew_bounded () =
  let st = Gen.rng 2902 in
  let g = Gen.random_connected st 20 in
  let net = SNet.create g in
  let daemon = Scheduler.Async_random (Gen.rng 2903) in
  for _ = 1 to 100 do
    SNet.round net daemon;
    (* neighbouring pulses never differ by more than 1 *)
    Graph.fold_edges
      (fun () u v _ ->
        let pu = S.pulse (SNet.state net u) and pv = S.pulse (SNet.state net v) in
        if abs (pu - pv) > 1 then
          Alcotest.failf "pulse skew %d-%d at edge (%d,%d)" pu pv u v)
      () g
  done

(* ---------------- the reset service ---------------- *)

(* an application that alarms once at a designated node, then behaves *)
module Alarmer = struct
  type state = { id : int; steps : int; alarmed : bool }

  let init g v = { id = Graph.id g v; steps = 0; alarmed = false }

  let step _ _ s _ = { s with steps = s.steps + 1; alarmed = s.alarmed }
  let alarm s = s.alarmed
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.id + Memory.of_nat s.steps + 1
  let corrupt _ _ _ s = { s with alarmed = true }
  let corrupt_field _ _ _ s = { s with alarmed = true }
  let field_names = [| "id"; "steps"; "alarmed" |]
  let encode (s : state) = [| s.id; s.steps; Bool.to_int s.alarmed |]
end

module R = Reset.Make (Alarmer)
module RNet = Network.Make (R)

let test_reset_on_request () =
  let st = Gen.rng 2910 in
  let g = Gen.random_connected st 20 in
  let net = RNet.create g in
  (* let the BFS tree stabilize *)
  RNet.run net Scheduler.Sync ~rounds:100;
  let epochs_before = Array.map R.epoch (RNet.states net) in
  Alcotest.(check bool) "epochs agree after stabilization" true
    (Array.for_all (( = ) epochs_before.(0)) epochs_before);
  let steps_before = Array.map (fun s -> (R.app s).Alarmer.steps) (RNet.states net) in
  (* raise an alarm at node 7 *)
  let s7 = RNet.state net 7 in
  RNet.set_state net 7 { s7 with R.app = { (R.app s7) with Alarmer.alarmed = true } };
  RNet.run net Scheduler.Sync ~rounds:100;
  let epochs_after = Array.map R.epoch (RNet.states net) in
  (* the leader may bump several times while the request burst drains (each
     re-initialization is idempotent); all nodes must converge on a strictly
     newer epoch *)
  Alcotest.(check bool) "epochs agree and advanced" true
    (Array.for_all (fun e -> e = epochs_after.(0) && e > epochs_before.(0)) epochs_after);
  (* application state was re-initialized: step counters restarted *)
  Array.iteri
    (fun v s ->
      Alcotest.(check bool)
        (Fmt.str "app restarted at %d" v)
        true
        ((R.app s).Alarmer.steps < steps_before.(v) + 100))
    (RNet.states net)

let test_reset_self_stabilizes () =
  let st = Gen.rng 2911 in
  let g = Gen.random_connected st 16 in
  let net = RNet.create g in
  ignore (RNet.inject_faults net (Gen.rng 2912) ~count:8);
  RNet.run net Scheduler.Sync ~rounds:300;
  (* some corrupt alarms may trigger resets; but eventually all epochs agree *)
  let epochs = Array.map R.epoch (RNet.states net) in
  Alcotest.(check bool) "epochs converge from arbitrary state" true
    (Array.for_all (( = ) epochs.(0)) epochs)

let test_reset_async () =
  let st = Gen.rng 2913 in
  let g = Gen.random_connected st 16 in
  let net = RNet.create g in
  RNet.run net (Scheduler.Async_random (Gen.rng 2914)) ~rounds:200;
  let s3 = RNet.state net 3 in
  RNet.set_state net 3 { s3 with R.app = { (R.app s3) with Alarmer.alarmed = true } };
  RNet.run net (Scheduler.Async_random (Gen.rng 2915)) ~rounds:300;
  let epochs = Array.map R.epoch (RNet.states net) in
  Alcotest.(check bool) "async reset completes" true (Array.for_all (( = ) epochs.(0)) epochs)

let suite =
  [
    Alcotest.test_case "synchronizer = synchronous semantics" `Quick test_synchronizer_matches_sync;
    Alcotest.test_case "synchronizer pulse skew <= 1" `Quick test_pulse_skew_bounded;
    Alcotest.test_case "reset on request" `Quick test_reset_on_request;
    Alcotest.test_case "reset self-stabilizes" `Quick test_reset_self_stabilizes;
    Alcotest.test_case "reset under async daemon" `Quick test_reset_async;
  ]
