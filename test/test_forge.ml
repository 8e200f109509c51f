open Ssmst_graph
open Ssmst_sim
open Ssmst_core

(* Marker.forge produces, for an arbitrary spanning tree, the labels an
   honest marker would compute if that tree were the MST.  The sharp
   property: every *structural* check passes on a forged instance (the
   hierarchy is well-formed, the strings legal, the partitions consistent)
   — only the minimality comparisons C1/C2 can tell truth from forgery.
   This isolates exactly where Lemma 8.4's power lives. *)

let non_mst_instance seed n =
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let flipped =
    Graph.of_edges ~n (List.map (fun (u, v, w) -> (u, v, 1_000_000 - w)) (Graph.edges g))
  in
  let bad = Mst.prim flipped (Graph.plain_weight_fn flipped) in
  let bad_on_g =
    Tree.of_parents g
      (Array.init n (fun v -> match Tree.parent bad v with None -> -1 | Some p -> p))
  in
  (g, bad_on_g)

let test_forged_structurally_clean () =
  let g, bad = non_mst_instance 3300 26 in
  let forged = Marker.forge g bad in
  (* the forged hierarchy is well-formed (P1 holds) but not minimal (P2
     fails): precisely the Lemma 5.1 split *)
  Alcotest.(check bool) "forged hierarchy well-formed" true
    (Fragment.well_formed forged.Marker.hierarchy);
  Alcotest.(check bool) "forged hierarchy NOT minimal" false
    (Fragment.minimal forged.Marker.hierarchy (Graph.plain_weight_fn g));
  (* the strings are RS/EPS-legal *)
  let strings = Array.map (fun (l : Marker.node_label) -> l.Marker.strings) forged.Marker.labels in
  let vw = Labels.view_of_tree forged.Marker.tree strings in
  Alcotest.(check bool) "forged strings legal" true
    (List.for_all (fun v -> Labels.check_view vw v = []) (List.init 26 Fun.id));
  (* the partitions satisfy their lemmas *)
  Alcotest.(check bool) "lemma 6.4 on forged" true
    (Partition.lemma_6_4 forged.Marker.assignment ~n:26);
  Alcotest.(check bool) "lemma 6.5 on forged" true (Partition.lemma_6_5 forged.Marker.assignment)

let test_forged_structural_checks_pass () =
  (* the verifier's 1-round structural checks accept the forged instance at
     every node; only the train-borne C1/C2 reject it later *)
  let g, bad = non_mst_instance 3301 24 in
  let forged = Marker.forge g bad in
  let module C = struct
    let marker = forged
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  for v = 0 to 23 do
    let bad_checks =
      P.diagnose g v (Net.state net v) (fun p -> Net.state net (Graph.peer_at g v p))
    in
    Alcotest.(check (list string)) (Fmt.str "structural checks at %d" v) [] bad_checks
  done;
  (* ... and yet the instance is rejected once the trains run *)
  let detected = Net.detection_time net Scheduler.Sync ~max_rounds:100000 in
  Alcotest.(check bool) "rejected by C1/C2" true (detected <> None)

let test_forge_of_true_mst_accepted () =
  (* forging the *actual* MST must produce an accepted instance *)
  let st = Gen.rng 3302 in
  let g = Gen.random_connected st 22 in
  let mst = Mst.prim g (Graph.plain_weight_fn g) in
  let forged = Marker.forge g mst in
  let module C = struct
    let marker = forged
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds:2000;
  Alcotest.(check bool) "true MST forge accepted" false (Net.any_alarm net)

let qcheck_forge_split =
  QCheck.Test.make ~name:"forgeries are always well-formed, minimal iff MST" ~count:20
    QCheck.(pair (int_range 4 28) (int_range 0 10000))
    (fun (n, seed) ->
      let g, bad = non_mst_instance seed n in
      let forged = Marker.forge g bad in
      let w = Graph.plain_weight_fn g in
      Fragment.well_formed forged.Marker.hierarchy
      && Fragment.minimal forged.Marker.hierarchy w = Mst.is_mst g w forged.Marker.tree)

let suite =
  [
    Alcotest.test_case "forged instances are structurally clean" `Quick test_forged_structurally_clean;
    Alcotest.test_case "1-round checks pass, C1/C2 reject" `Quick test_forged_structural_checks_pass;
    Alcotest.test_case "forging the true MST is accepted" `Quick test_forge_of_true_mst_accepted;
    QCheck_alcotest.to_alcotest qcheck_forge_split;
  ]
