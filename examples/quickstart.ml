(* Quickstart: construct an MST with its proof labels, verify it with the
   compact self-stabilizing verifier, inject a fault, and watch a nearby
   node raise the alarm.

   Run with: dune exec examples/quickstart.exe *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let () =
  (* 1. a random connected weighted network of 48 nodes *)
  let st = Gen.rng 7 in
  let g = Gen.random_connected st 48 in
  Fmt.pr "network: %d nodes, %d edges, max degree %d@." (Graph.n g) (Graph.num_edges g)
    (Graph.max_degree g);

  (* 2. the marker: SYNC_MST + labels + partitions + trains, all O(n) time *)
  let m = Marker.run g in
  Fmt.pr "marker: MST of total weight %d, hierarchy height %d@."
    (Tree.total_base_weight m.tree) m.hierarchy.height;
  Fmt.pr "        construction charged %d rounds (%.1f per node)@." m.construction_rounds
    (float_of_int m.construction_rounds /. float_of_int (Graph.n g));
  Fmt.pr "        max label size %d bits (log2 n = %d)@." m.label_bits (Memory.of_nat (Graph.n g));
  assert (Mst.is_mst g (Graph.plain_weight_fn g) m.tree);

  (* 3. run the verifier: it must stay silent on a correct instance *)
  let module Net = Verifier_campaign.Net (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds:400;
  Fmt.pr "verifier: %d synchronous rounds, alarms: %b (expected: false)@." (Net.rounds net)
    (Net.any_alarm net);

  (* 4. corrupt one node's label and measure the detection *)
  let faults = Net.inject_faults net (Gen.rng 8) ~count:1 in
  Fmt.pr "fault injected at node %d@." (List.hd faults);
  (match Net.detection_time net Scheduler.Sync ~max_rounds:5000 with
  | Some rounds ->
      let dist = Net.detection_distance net ~faults in
      Fmt.pr "detected after %d rounds, %a hops from the fault@." rounds
        Fmt.(option ~none:(any "?") int)
        dist
  | None -> Fmt.pr "fault was semantically null (no observable corruption)@.");
  Fmt.pr "done.@."
