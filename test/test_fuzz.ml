open Ssmst_graph
open Ssmst_sim
open Ssmst_core

(* Adversarial fuzzing of the verifier.

   The decisive one-sided oracles:
   - if the corrupted global state no longer represents the MST (or any
     spanning tree), some node must alarm within the detection budget
     (completeness, Lemma 8.4);
   - the honest marker output must never alarm (soundness) — re-checked
     here under the adversarial daemon. *)

let budget n = 400 * (Memory.of_nat n + 2) * (Memory.of_nat n + 2)

let ( ==> ) a b = (not a) || b

let qcheck_component_corruption =
  QCheck.Test.make ~name:"corrupted components: alarm iff the tree breaks" ~count:20
    QCheck.(pair (int_range 8 32) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Gen.rng seed in
      let g = Gen.random_connected st n in
      let m = Marker.run g in
      let module C = struct
        let marker = m
        let mode = Verifier.Passive
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let net = Net.create g in
      Net.run net Scheduler.Sync ~rounds:(4 * Verifier.window_bound m.labels.(0));
      if Net.any_alarm net then false
      else begin
        (* corrupt component pointers at up to 3 nodes *)
        let rng = Gen.rng (seed + 1) in
        let k = 1 + Random.State.int rng 3 in
        let victims = ref [] in
        for _ = 1 to k do
          let v = Random.State.int rng n in
          if not (List.mem v !victims) then begin
            victims := v :: !victims;
            let s = Net.state net v in
            let deg = Graph.degree g v in
            let comp_port =
              if Random.State.bool rng then None else Some (Random.State.int rng deg)
            in
            Net.set_state net v
              { s with Verifier.label = { s.Verifier.label with Marker.comp_port } }
          end
        done;
        (* ground truth: do the claimed components still represent the MST? *)
        let comp =
          Array.init n (fun v -> (Net.state net v).Verifier.label.Marker.comp_port)
        in
        let still_mst =
          match Tree.of_components g comp with
          | t -> Mst.is_mst g (Graph.plain_weight_fn g) t
          | exception Graph.Malformed _ -> false
        in
        let detected = Net.detection_time net Scheduler.Sync ~max_rounds:(budget n) <> None in
        (* completeness: broken structure must be detected.  (A corruption
           that happens to keep the same MST may or may not alarm: the
           labels can still disagree with the new rooting.) *)
        (not still_mst) ==> detected
      end)

(* Re-price one random edge of an honestly marked instance, then run the
   verifier.  The oracle is "the marked tree is still *a* minimum spanning
   tree": [Mst.is_mst] under the tree-favouring ω′ (footnote 1 — tree
   edges win ties), i.e. minimum total weight.  When the re-priced edge
   ties another, ω′ without the tree indicator picks one particular MST
   by identities, which the marked tree need not be; the verifier is right
   to accept it then. *)
let weight_drift_case (n, seed) =
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let m = Marker.run g in
  (* re-price one random edge *)
  let rng = Gen.rng (seed + 1) in
  let edges = Graph.edges g in
  let u0, v0, w0 = List.nth edges (Random.State.int rng (List.length edges)) in
  let delta = Random.State.int rng (2 * w0 + 2) - w0 in
  let g' =
    Graph.reweight g (fun u v w -> if (min u v, max u v) = (u0, v0) then max 0 (w + delta) else w)
  in
  let tree = m.Marker.tree in
  let still_mst =
    Mst.is_mst g' (Graph.weight_fn g' ~in_tree:(fun u v -> Tree.is_tree_edge tree u v)) tree
  in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g' in
  let detected = Net.detection_time net Scheduler.Sync ~max_rounds:(budget n) <> None in
  if still_mst then true (* either verdict is legitimate for true statements *)
  else detected

let qcheck_weight_drift =
  QCheck.Test.make ~name:"re-priced edges: a stale MST is always detected" ~count:20
    QCheck.(pair (int_range 8 32) (int_range 0 10000))
    weight_drift_case

(* The cases QCHECK_SEED=331121714 and 761229281 drew, plus (20, 2413): in
   each the re-priced edge ties another edge's weight and the marked tree
   stays a minimum spanning tree, which the ID-tie-broken oracle used to
   reject. *)
let test_weight_drift_ties () =
  List.iter
    (fun case ->
      Alcotest.(check bool) (Fmt.str "case (%d, %d)" (fst case) (snd case)) true
        (weight_drift_case case))
    [ (8, 2340); (15, 5859); (20, 2413) ]

let qcheck_soundness_adversarial_daemon =
  QCheck.Test.make ~name:"soundness holds under the adversarial daemon" ~count:10
    QCheck.(pair (int_range 4 24) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Gen.rng seed in
      let g = Gen.random_connected st n in
      let m = Marker.run g in
      let module C = struct
        let marker = m
        let mode = Verifier.Handshake
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let net = Net.create g in
      Net.run net (Scheduler.Async_adversarial (Gen.rng (seed + 1))) ~rounds:600;
      not (Net.any_alarm net))

let qcheck_forged_trees_rejected =
  QCheck.Test.make ~name:"every forged non-MST spanning tree is rejected" ~count:12
    QCheck.(pair (int_range 6 24) (int_range 0 10000))
    (fun (n, seed) ->
      let st = Gen.rng seed in
      let g = Gen.random_connected st n in
      (* a random spanning tree via randomly-permuted Kruskal *)
      let shuffled =
        let a = Array.of_list (Graph.edges g) in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int st (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        Array.to_list a
      in
      let dsu = Dsu.create n in
      let parent = Array.make n (-1) in
      List.iter
        (fun (u, v, _) ->
          if Dsu.union dsu u v then begin
            let rec flip x prev =
              let p = parent.(x) in
              parent.(x) <- prev;
              if p >= 0 then flip p x
            in
            flip u v
          end)
        shuffled;
      let t = Tree.of_parents g parent in
      let w = Graph.plain_weight_fn g in
      if Mst.is_mst g w t then true (* got the real MST: nothing to reject *)
      else begin
        let forged = Marker.forge g t in
        let module C = struct
          let marker = forged
          let mode = Verifier.Passive
        end in
        let module P = Verifier.Make (C) in
        let module Net = Network.Make (P) in
        let net = Net.create g in
        Net.detection_time net Scheduler.Sync ~max_rounds:(budget n) <> None
      end)

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_component_corruption;
    QCheck_alcotest.to_alcotest qcheck_weight_drift;
    QCheck_alcotest.to_alcotest qcheck_soundness_adversarial_daemon;
    QCheck_alcotest.to_alcotest qcheck_forged_trees_rejected;
    Alcotest.test_case "re-priced edges: tied weights keep an MST" `Quick test_weight_drift_ties;
  ]
