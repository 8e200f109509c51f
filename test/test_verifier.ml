open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let mk_verifier mode marker =
  let module C = struct
    let marker = marker
    let mode = mode
  end in
  (module Verifier.Make (C) : Protocol.S with type state = Verifier.state)

let run_net mode marker daemon ~rounds =
  let module P = (val mk_verifier mode marker) in
  let module Net = Network.Make (P) in
  let net = Net.create marker.Marker.graph in
  Net.run net daemon ~rounds;
  Net.any_alarm net

let marker_for seed n =
  let st = Gen.rng seed in
  Marker.run (Gen.random_connected st n)

(* soundness: the marker's own output is accepted forever *)
let test_accept_sync () =
  List.iter
    (fun n ->
      let m = marker_for (500 + n) n in
      Alcotest.(check bool) (Fmt.str "no alarm sync n=%d" n) false
        (run_net Verifier.Passive m Scheduler.Sync ~rounds:600))
    [ 2; 3; 5; 9; 16; 33; 64 ]

let test_accept_async () =
  List.iter
    (fun n ->
      let m = marker_for (600 + n) n in
      Alcotest.(check bool) (Fmt.str "no alarm async n=%d" n) false
        (run_net Verifier.Handshake m (Scheduler.Async_random (Gen.rng n)) ~rounds:800))
    [ 2; 5; 16; 40 ]

let test_accept_families () =
  let st = Gen.rng 601 in
  List.iter
    (fun g ->
      let m = Marker.run g in
      Alcotest.(check bool) "no alarm on family" false
        (run_net Verifier.Passive m Scheduler.Sync ~rounds:600))
    [ Gen.path st 24; Gen.star st 24; Gen.grid st 5 5; Gen.complete st 12; Gen.ring st 20 ]

(* completeness: injected label corruption is detected *)
let detection_rounds mode daemon marker seed ~count =
  let module P = (val mk_verifier mode marker) in
  let module Net = Network.Make (P) in
  let net = Net.create marker.Marker.graph in
  (* let the verifier settle first, and make sure it accepts *)
  Net.run net daemon ~rounds:400;
  if Net.any_alarm net then Alcotest.fail "alarm before fault injection";
  let faults = Net.inject_faults net (Gen.rng seed) ~count in
  let dt = Net.detection_time net daemon ~max_rounds:4000 in
  (dt, faults, Net.detection_distance net ~faults)

let test_detect_corruption_sync () =
  let detected = ref 0 and total = 8 in
  for i = 1 to total do
    let m = marker_for (700 + i) 32 in
    match detection_rounds Verifier.Passive Scheduler.Sync m (900 + i) ~count:1 with
    | Some _, _, _ -> incr detected
    | None, _, _ -> ()
  done;
  (* random corruptions can be semantically null (e.g. a train-register
     perturbation absorbed by self-stabilization); the persistent-label
     corruptions must overwhelmingly be caught *)
  Alcotest.(check bool) (Fmt.str "detected %d/%d" !detected total) true (!detected >= 6)

let test_detect_corruption_async () =
  let detected = ref 0 and total = 6 in
  for i = 1 to total do
    let m = marker_for (800 + i) 24 in
    match
      detection_rounds Verifier.Handshake
        (Scheduler.Async_random (Gen.rng (850 + i)))
        m (950 + i) ~count:1
    with
    | Some _, _, _ -> incr detected
    | None, _, _ -> ()
  done;
  Alcotest.(check bool) (Fmt.str "detected %d/%d" !detected total) true (!detected >= 4)

(* a tree that is NOT the MST, with labels crafted by running the honest
   marker pipeline on it, must be rejected (Lemma 8.4) *)
let test_detect_non_mst () =
  let st = Gen.rng 990 in
  let g = Gen.random_connected st 24 in
  let w = Graph.plain_weight_fn g in
  (* build a deliberately non-minimal spanning tree: maximum spanning tree *)
  let flipped =
    Graph.of_edges ~n:(Graph.n g)
      (List.map (fun (u, v, wt) -> (u, v, 1_000_000 - wt)) (Graph.edges g))
  in
  let bad_tree = Mst.prim flipped (Graph.plain_weight_fn flipped) in
  Alcotest.(check bool) "the flipped tree is not the MST" false
    (Mst.edge_set_of_tree bad_tree = List.sort compare (Mst.kruskal g w));
  (* strongest adversary: honest labels for the bad tree, real weights *)
  let bad_on_g =
    Tree.of_parents g
      (Array.init (Graph.n g) (fun v ->
           match Tree.parent bad_tree v with None -> -1 | Some p -> p))
  in
  let forged = Marker.forge g bad_on_g in
  let module C = struct
    let marker = forged
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module Net = Network.Make (P) in
  let net = Net.create g in
  let _, detected = Net.run_until net Scheduler.Sync ~max_rounds:4000 Net.any_alarm in
  Alcotest.(check bool) "non-MST rejected" true detected

(* detection distance: alarms appear near the faults (O(f log n) locality) *)
let test_detection_distance () =
  let m = marker_for 1000 64 in
  match detection_rounds Verifier.Passive Scheduler.Sync m 1001 ~count:1 with
  | Some _, _faults, Some d ->
      let bound = 8 * (Memory.of_nat 64 + 1) in
      Alcotest.(check bool) (Fmt.str "distance %d within O(log n)=%d" d bound) true (d <= bound)
  | Some _, _, None -> Alcotest.fail "no alarming node"
  | None, _, _ -> () (* corruption semantically null; nothing to measure *)

(* memory: the verifier state is O(log n) bits per node *)
let test_memory () =
  List.iter
    (fun n ->
      let m = marker_for (1100 + n) n in
      let module P = (val mk_verifier Verifier.Passive m) in
      let module Net = Network.Make (P) in
      let net = Net.create m.Marker.graph in
      Net.run net Scheduler.Sync ~rounds:100;
      let bits = Net.peak_bits net in
      let logn = Memory.of_nat n in
      Alcotest.(check bool)
        (Fmt.str "bits=%d vs c*logn (n=%d)" bits n)
        true
        (bits <= 160 * logn + 400))
    [ 16; 64; 256 ]

let qcheck_accept =
  QCheck.Test.make ~name:"verifier accepts honest marker output" ~count:15
    QCheck.(pair (int_range 2 48) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Gen.rng seed in
      let m = Marker.run (Gen.random_connected st n) in
      not (run_net Verifier.Passive m Scheduler.Sync ~rounds:500))

(* One activation reads each port exactly once — in both modes, from the
   marker's labels, with the trains running, and after faults. *)
let test_one_read_per_port () =
  let m = marker_for 731 48 in
  let g = m.Marker.graph in
  List.iter
    (fun (mode, daemon) ->
      let module C = struct
        let marker = m
        let mode = mode
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let net = Net.create g in
      let check what =
        for v = 0 to Graph.n g - 1 do
          let counts = Array.make (Graph.degree g v) 0 in
          let read p =
            counts.(p) <- counts.(p) + 1;
            Net.state net (Graph.peer_at g v p)
          in
          ignore (P.step g v (Net.state net v) read);
          Array.iteri
            (fun p c ->
              if c <> 1 then Alcotest.failf "%s: node %d read port %d %d times" what v p c)
            counts
        done
      in
      check "initial";
      Net.run net daemon ~rounds:60;
      check "running";
      ignore (Net.inject_faults net (Gen.rng 732) ~count:4);
      check "after faults")
    [
      (Verifier.Passive, Scheduler.Sync);
      (Verifier.Handshake, Scheduler.Async_random (Gen.rng 733));
    ]

(* [step]'s structural alarm (the fast sink, stopping at the first failed
   check) and [diagnose]'s names (the collecting sink) come from one pass:
   on corrupted registers one fires iff the other is non-empty, and a
   structural alarm always reaches the stepped register. *)
let qcheck_structural_alarm_iff_diagnosed =
  QCheck.Test.make ~name:"structural alarm iff diagnose names a check" ~count:12
    QCheck.(triple (oneofl [ 16; 64 ]) (int_range 0 10000) bool)
    (fun (n, seed, field) ->
      let m = marker_for seed n in
      let g = m.Marker.graph in
      let module C = struct
        let marker = m
        let mode = Verifier.Passive
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let net = Net.create g in
      Net.run net Scheduler.Sync ~rounds:20;
      let st = Gen.rng (seed + 1) in
      for _ = 1 to 1 + (n / 8) do
        let v = Random.State.int st n in
        let corrupt = if field then P.corrupt_field else P.corrupt in
        Net.set_state net v (corrupt st g v (Net.state net v))
      done;
      List.for_all
        (fun v ->
          let s = Net.state net v and read p = Net.state net (Graph.peer_at g v p) in
          let structural = P.structural_alarm g v s read in
          structural = (P.diagnose g v s read <> [])
          && ((not structural) || (P.step g v s read).Verifier.alarm))
        (List.init n Fun.id))

(* ---------------- the label-derived view table ----------------

   [step] takes a node's derived view from a per-marker table when every
   label around the node is physically the marker's, and derives it on the
   spot otherwise.  The key is physical identity, which is sound only if
   no fault ever edits a marker label in place. *)

let table_instances () =
  [
    ("random", Marker.run (Gen.random_connected (Gen.rng 1201) 48));
    ("grid", Marker.run (Gen.grid (Gen.rng 1202) 6 6));
  ]

(* (a) every fault path leaves the marker's label records as they were *)
let test_faults_never_edit_marker_labels () =
  List.iter
    (fun (family, m) ->
      let g = m.Marker.graph in
      let module C = struct
        let marker = m
        let mode = Verifier.Passive
      end in
      let module P = Verifier.Make (C) in
      let module Net = Network.Make (P) in
      let records = Array.copy m.Marker.labels in
      let contents : Marker.node_label array =
        Marshal.from_string (Marshal.to_string m.Marker.labels []) 0
      in
      let net = Net.create g in
      Net.run net Scheduler.Sync ~rounds:(2 * Verifier.window_bound m.Marker.labels.(0));
      let st = Gen.rng 1203 in
      (* every corruption function on every node's settled register *)
      for v = 0 to Graph.n g - 1 do
        let s = Net.state net v in
        ignore (P.corrupt st g v s);
        ignore (P.corrupt_field st g v s);
        ignore (P.corrupt_piece_weight st s)
      done;
      (* every severity under every placement, with rounds in between *)
      let placements =
        [
          Fault.Uniform;
          Fault.Clustered { center = None; radius = 2 };
          Fault.Near_root { root = Tree.root m.Marker.tree };
          Fault.Targeted [ 0; Graph.n g - 1 ];
        ]
      in
      List.iter
        (fun placement ->
          List.iter
            (fun severity ->
              ignore (Net.inject net st (Fault.make ~placement ~severity ~count:4 ()));
              Net.run net Scheduler.Sync ~rounds:20)
            [ Fault.Corrupt_random; Fault.Crash_reset; Fault.Bit_flip ])
        placements;
      Array.iteri
        (fun v (l : Marker.node_label) ->
          if l != records.(v) || l <> contents.(v) then
            Alcotest.failf "%s: marker label %d changed" family v)
        m.Marker.labels)
    (table_instances ())

(* (b) the derived-on-the-spot view steps exactly like the table's: swap
   every label around a node for an equal copy and the step must not
   change *)
let test_table_and_derived_views_agree () =
  let copy (s : Verifier.state) =
    { s with Verifier.label = { s.Verifier.label with Marker.sp_root = s.Verifier.label.sp_root } }
  in
  List.iter
    (fun (family, m) ->
      let g = m.Marker.graph in
      List.iter
        (fun (mode, daemon) ->
          let module C = struct
            let marker = m
            let mode = mode
          end in
          let module P = Verifier.Make (C) in
          let module Net = Network.Make (P) in
          let net = Net.create g in
          (* from the initial registers, then settled *)
          for checkpoint = 0 to 4 do
            for v = 0 to Graph.n g - 1 do
              let s = Net.state net v and read p = Net.state net (Graph.peer_at g v p) in
              if P.structural_alarm g v s read then
                Alcotest.failf "%s: settled node %d alarms" family v;
              let from_table = P.step g v s read in
              let derived = P.step g v (copy s) (fun p -> copy (read p)) in
              if not (P.equal from_table derived) then
                Alcotest.failf "%s, checkpoint %d: node %d steps differently on copied labels"
                  family checkpoint v
            done;
            Net.run net daemon
              ~rounds:(if checkpoint = 0 then 2 * Verifier.window_bound m.Marker.labels.(0) else 37)
          done)
        [
          (Verifier.Passive, Scheduler.Sync);
          (Verifier.Handshake, Scheduler.Async_random (Gen.rng 1204));
        ])
    (table_instances ())

(* (c) the write path's size is the register's own: [P.bits] equals
   the sum of its fields counted from scratch, whether the label is the
   marker's record (whose count the table keeps), a fault's fresh record,
   a copy rebuilt outside, or an image unpacked from the flat store *)
let reference_bits (s : Verifier.state) =
  let c = s.Verifier.cmp in
  Marker.label_bits s.Verifier.label
  + Train.bits s.Verifier.train_top + Train.bits s.Verifier.train_bot
  + Memory.of_int c.Verifier.ask_level
  + Memory.of_option Pieces.bits c.Verifier.ask
  + Memory.of_nat c.Verifier.port
  + Memory.of_option (fun (srv, lvl) -> Memory.of_int srv + Memory.of_nat lvl) c.Verifier.want
  + Memory.of_nat c.Verifier.window + 1

let test_bits_match_reference () =
  List.iter
    (fun (family, m) ->
      let g = m.Marker.graph in
      List.iter
        (fun (mode, daemon) ->
          let module C = struct
            let marker = m
            let mode = mode
          end in
          let module P = Verifier.Make (C) in
          let module Net = Network.Make (P) in
          let module Flat = Network.Flat (P) in
          let check what v s =
            let got = P.bits g v s and want = reference_bits s in
            if got <> want then Alcotest.failf "%s, %s: node %d counts %d bits, not %d" family what v got want
          in
          let n = Graph.n g in
          for v = 0 to n - 1 do
            check "marker register" v (P.init g v)
          done;
          let net = Net.create g and flat = Flat.create g in
          let settle = 2 * Verifier.window_bound m.Marker.labels.(0) in
          Net.run net daemon ~rounds:settle;
          Flat.run flat daemon ~rounds:settle;
          let st = Gen.rng 1205 in
          for v = 0 to n - 1 do
            let s = Net.state net v in
            let l = s.Verifier.label in
            check "settled register" v s;
            check "flat register" v (Flat.state flat v);
            check "corrupt" v (P.corrupt st g v s);
            check "corrupt_field" v (P.corrupt_field st g v s);
            Option.iter (check "corrupt_piece_weight" v) (P.corrupt_piece_weight st s);
            check "equal label copy" v { s with label = { l with Marker.sp_root = l.Marker.sp_root } };
            check "changed label copy" v
              { s with label = { l with Marker.nk_sub = l.Marker.nk_sub + 1000 } }
          done;
          (* and every register of a run that is recovering from a burst *)
          ignore (Net.inject net st (Fault.make ~severity:Fault.Corrupt_random ~count:4 ()));
          Net.run net daemon ~rounds:5;
          for v = 0 to n - 1 do
            check "after a burst" v (Net.state net v)
          done)
        [
          (Verifier.Passive, Scheduler.Sync);
          (Verifier.Handshake, Scheduler.Async_random (Gen.rng 1206));
        ])
    (table_instances ())

let suite =
  [
    Alcotest.test_case "accepts correct instances (sync)" `Quick test_accept_sync;
    Alcotest.test_case "accepts correct instances (async)" `Quick test_accept_async;
    Alcotest.test_case "accepts across families" `Quick test_accept_families;
    Alcotest.test_case "detects corruption (sync)" `Quick test_detect_corruption_sync;
    Alcotest.test_case "detects corruption (async)" `Quick test_detect_corruption_async;
    Alcotest.test_case "rejects a non-MST with forged labels" `Quick test_detect_non_mst;
    Alcotest.test_case "detection distance is local" `Quick test_detection_distance;
    Alcotest.test_case "memory is O(log n)" `Quick test_memory;
    QCheck_alcotest.to_alcotest qcheck_accept;
    Alcotest.test_case "one read per port per activation" `Quick test_one_read_per_port;
    QCheck_alcotest.to_alcotest qcheck_structural_alarm_iff_diagnosed;
    Alcotest.test_case "no fault edits a marker label in place" `Quick
      test_faults_never_edit_marker_labels;
    Alcotest.test_case "table and derived views step alike" `Quick
      test_table_and_derived_views_agree;
    Alcotest.test_case "register bits = the fields counted afresh" `Quick
      test_bits_match_reference;
  ]
