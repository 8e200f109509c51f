(* Link-cost change: the deployed MST goes stale when an operator re-prices
   a link; the verification layer notices without any global recomputation
   being scheduled.

   We build an MST with its labels, then drop the cost of a non-tree link
   below the heaviest tree edge on its cycle.  The old labels are now a
   proof of a *wrong* statement: the verifier's C2 check rejects, and a
   reconstruction installs the new MST.

   Run with: dune exec examples/weight_change.exe *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let () =
  let st = Gen.rng 21 in
  let g = Gen.random_connected st 36 in
  let m = Marker.run g in
  Fmt.pr "initial MST weight: %d@." (Tree.total_base_weight m.tree);

  (* find a non-tree edge and make it the lightest link in the network *)
  let u0, v0, w0 =
    Graph.edges g |> List.find (fun (u, v, _) -> not (Tree.is_tree_edge m.tree u v))
  in
  let g' =
    Graph.reweight g (fun u v w -> if (min u v, max u v) = (u0, v0) then 0 else w)
  in
  Fmt.pr "link %d-%d re-priced: %d -> 0 (old tree now stale)@." u0 v0 w0;
  assert (
    not
      (Mst.is_mst g'
         (Graph.plain_weight_fn g')
         (Tree.of_parents g'
            (Array.init (Graph.n g) (fun v ->
                 match Tree.parent m.tree v with None -> -1 | Some p -> p)))));

  (* the old labels run against the new weights: verification must reject *)
  let module Net = Verifier_campaign.Net (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  let net = Net.create g' in
  (match Net.detection_time net Scheduler.Sync ~max_rounds:5000 with
  | Some rounds ->
      Fmt.pr "stale MST detected after %d rounds at node(s) %a@." rounds
        Fmt.(list ~sep:comma int)
        (Net.alarming_nodes net)
  | None -> failwith "BUG: stale MST not detected");

  (* reconstruction over the new weights *)
  let m' = Marker.run g' in
  Fmt.pr "reconstructed MST weight: %d (was %d)@."
    (Tree.total_base_weight m'.tree)
    (Tree.total_base_weight m.tree);
  assert (Mst.is_mst g' (Graph.plain_weight_fn g') m'.tree);
  Fmt.pr "new tree uses the re-priced link: %b@." (Tree.is_tree_edge m'.tree u0 v0)
