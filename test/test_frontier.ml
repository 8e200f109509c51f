open Ssmst_graph
open Ssmst_sim
open Ssmst_protocols

(* The dense frontier's contract, made executable:

   1. model equivalence — under random mark/unmark/drain/compact
      interleavings, a {!Frontier.t} behaves exactly like a bool array:
      drains return the live set in strictly ascending node id, compact
      keeps flags while dropping stale entries, and the entry count never
      diverges from the live count at a quiescent point;
   2. compact regression — a node dirty-marked k times within one round
      contributes exactly one live entry after compaction, in the
      structure itself and through both engines' async rounds (stale
      entries must not accumulate across rounds);
   3. golden traces — the per-round event order of both engines is
      byte-identical to the list-frontier engine this structure replaced:
      the (round, node) register-write sequences of a fixed faulted-grid
      scenario under all three daemons, traced on {!Network.Make} and
      {!Network.Flat} at -d 1 and -d 2, match digests captured on the
      pre-dense-frontier engine;
   4. accounting parity — [wasted_steps]/[skipped_activations] are
      identical between the sequential and domain-parallel branches of
      [sync_round], read directly off the counters (not just through the
      metrics CSV). *)

(* ---------------- 1. model-based QCheck ---------------- *)

let qcheck_frontier_model =
  QCheck.Test.make ~count:500 ~name:"Frontier = bool-array model; drains strictly ascending"
    QCheck.(pair (int_range 1 40) (small_list (pair (int_bound 3) (int_bound 1000))))
    (fun (n, raw_ops) ->
      let f = Frontier.create ~all_dirty:false n in
      let model = Array.make n false in
      let ok = ref true in
      let check_flags () =
        for v = 0 to n - 1 do
          if Frontier.mem f v <> model.(v) then ok := false
        done;
        let live = Array.fold_left (fun acc d -> if d then acc + 1 else acc) 0 model in
        if Frontier.live f <> live then ok := false
      in
      List.iter
        (fun (kind, x) ->
          let v = x mod n in
          (match kind with
          | 0 ->
              Frontier.mark f v;
              model.(v) <- true
          | 1 ->
              Frontier.unmark f v;
              model.(v) <- false
          | 2 ->
              let expected = List.filter (fun v -> model.(v)) (List.init n Fun.id) in
              let members, m = Frontier.drain f in
              let got = List.init m (Array.get members) in
              (* [expected] is ascending by construction, so equality is
                 both the set check and the strict-ascent check *)
              if got <> expected then ok := false;
              if not (Frontier.is_empty f) then ok := false;
              Array.fill model 0 n false
          | _ ->
              Frontier.compact f;
              (* after compact every entry is live, exactly once *)
              if Frontier.length f <> Frontier.live f then ok := false);
          check_flags ())
        raw_ops;
      !ok)

(* the drain's two internal paths (sorted sparse collection vs ordered
   dense flag scan) must be unobservable: same members, same order *)
let qcheck_drain_paths_agree =
  QCheck.Test.make ~count:200 ~name:"Frontier: sparse-sort and dense-scan drains agree"
    QCheck.(pair (int_range 8 200) (small_list (int_bound 10_000)))
    (fun (n, marks) ->
      let sparse = Frontier.create ~all_dirty:false n in
      (* force the dense path by padding with stale entries: mark+unmark
         churn bloats [length] without changing the live set *)
      let dense = Frontier.create ~all_dirty:false n in
      for v = 0 to n - 1 do
        Frontier.mark dense v;
        Frontier.unmark dense v
      done;
      List.iter
        (fun x ->
          let v = x mod n in
          Frontier.mark sparse v;
          Frontier.mark dense v)
        marks;
      let ms, s = Frontier.drain sparse in
      let md, d = Frontier.drain dense in
      List.init s (Array.get ms) = List.init d (Array.get md))

let test_sort () =
  let check a =
    let m = Array.length a in
    let expected = Array.copy a in
    Array.sort compare expected;
    Frontier.sort a m;
    Alcotest.(check bool) "sorted prefix" true (a = expected)
  in
  check [||];
  check [| 3 |];
  check [| 5; 1; 4; 2; 3 |];
  check (Array.init 1000 (fun i -> (i * 7919) mod 10007));
  check (Array.init 100 (fun i -> 99 - i));
  check (Array.init 100 Fun.id)

(* ---------------- 2. compact regression ---------------- *)

let test_compact_dedup () =
  let f = Frontier.create ~all_dirty:false 8 in
  (* dirty-mark node 3 five times within one round, each but the last
     followed by the firing that clears its flag *)
  for _ = 1 to 4 do
    Frontier.mark f 3;
    Frontier.unmark f 3
  done;
  Frontier.mark f 3;
  Alcotest.(check int) "five buffered entries before compaction" 5 (Frontier.length f);
  Alcotest.(check int) "one live node" 1 (Frontier.live f);
  Frontier.compact f;
  Alcotest.(check int) "exactly one live entry after compaction" 1 (Frontier.length f);
  Alcotest.(check bool) "the node is still dirty" true (Frontier.mem f 3);
  Frontier.compact f;
  Alcotest.(check int) "compaction is idempotent" 1 (Frontier.length f);
  let members, m = Frontier.drain f in
  Alcotest.(check int) "drains once" 1 m;
  Alcotest.(check int) "drains the right node" 3 members.(0)

module E = Network.Make (Ss_bfs.P)
module F = Network.Flat (Ss_bfs.P)

(* Across many adversarial async rounds (nodes fire several times per
   round, so flags churn within the round), the engines' frontiers must
   end every round fully compacted: every buffered entry live, and the
   entry count bounded by n — stale entries cannot accumulate. *)
let test_async_rounds_stay_compact () =
  let g = Gen.grid (Gen.rng 8800) 6 6 in
  let n = Graph.n g in
  let eng = E.create g and flat = F.create g in
  let daemon_e = Scheduler.Async_adversarial (Gen.rng 881) in
  let daemon_f = Scheduler.Async_adversarial (Gen.rng 881) in
  for r = 1 to 30 do
    if r mod 5 = 1 then begin
      ignore (E.inject eng (Gen.rng (8800 + r)) (Fault.uniform ~count:3));
      ignore (F.inject flat (Gen.rng (8800 + r)) (Fault.uniform ~count:3))
    end;
    E.round eng daemon_e;
    F.round flat daemon_f;
    List.iter
      (fun (name, fr) ->
        let len = Frontier.length fr and live = Frontier.live fr in
        if len <> live then
          Alcotest.failf "%s round %d: %d entries but %d live (stale survived compact)" name r
            len live;
        if len > n then Alcotest.failf "%s round %d: %d entries > n=%d" name r len n)
      [ ("make", eng.E.frontier); ("flat", flat.F.frontier) ]
  done

(* ---------------- 3. golden traces vs the list frontier ---------------- *)

(* (round, node) write sequences folded into an order-sensitive digest.
   The expected values were captured by running this exact scenario on the
   pre-PR-10 engine (int-list frontier, List.filter + List.sort compare):
   the dense frontier must reproduce the event order byte for byte. *)
let digest l =
  List.fold_left (fun h (r, v) -> ((h * 1000003) + (r * 65599) + v) land 0x3FFFFFFF) 17 l

let golden =
  [
    ("sync", (fun () -> Scheduler.Sync), 295, 871490833);
    ("async_random", (fun () -> Scheduler.Async_random (Gen.rng 777)), 173, 712610458);
    ( "async_adversarial",
      (fun () -> Scheduler.Async_adversarial (Gen.rng 778)),
      285,
      1051043249 );
  ]

(* Each scenario runs on both engines, traced, sequentially and at -d 2:
   the traced parallel sync round must reproduce the same digests. *)
let golden_runs =
  let g = Gen.grid (Gen.rng 6600) 5 5 in
  let make d tr daemon =
    let net = E.create ~trace:tr ~domains:d g in
    for r = 1 to 12 do
      if r mod 4 = 1 then
        ignore (E.inject net (Gen.rng (6600 + r)) (Fault.uniform ~count:3));
      E.round net daemon
    done
  and flat d tr daemon =
    let net = F.create ~trace:tr ~domains:d g in
    for r = 1 to 12 do
      if r mod 4 = 1 then
        ignore (F.inject net (Gen.rng (6600 + r)) (Fault.uniform ~count:3));
      F.round net daemon
    done
  in
  List.concat_map
    (fun d -> [ (Fmt.str "make -d %d" d, make d); (Fmt.str "flat -d %d" d, flat d) ])
    [ 1; 2 ]

let test_golden_traces () =
  List.iter
    (fun (name, daemon_of, expect_len, expect_digest) ->
      List.iter
        (fun (engine, run) ->
          let tr = Trace.create ~capacity:200_000 () in
          run tr (daemon_of ());
          let acc = ref [] in
          Trace.iter
            (function
              | Trace.Register_write { round; node; _ } -> acc := (round, node) :: !acc
              | _ -> ())
            tr;
          let l = List.rev !acc in
          let ctx = Fmt.str "%s, %s" name engine in
          Alcotest.(check int) (ctx ^ ": write count matches the list frontier") expect_len
            (List.length l);
          Alcotest.(check int) (ctx ^ ": write order matches the list frontier") expect_digest
            (digest l))
        golden_runs)
    golden

(* Sync-round activations must come out strictly ascending within every
   round, whatever interleaving of async rounds, fault injections (which
   mark neighbourhoods in arbitrary order) and sync rounds preceded it. *)
let qcheck_sync_activations_ascend =
  QCheck.Test.make ~count:60 ~name:"sync activations strictly ascend after random mark churn"
    QCheck.(int_bound 100_000)
    (fun seed ->
      let g = Gen.random_connected (Gen.rng seed) 24 in
      let tr = Trace.create ~capacity:200_000 () in
      let net = E.create ~trace:tr g in
      let st = Gen.rng (seed + 1) in
      for r = 1 to 16 do
        if r mod 3 = 0 then ignore (E.inject net (Gen.rng (seed + r)) (Fault.uniform ~count:2));
        (* async rounds churn the flags and leave stale entries behind *)
        let daemon =
          match Random.State.int st 3 with
          | 0 -> Scheduler.Sync
          | 1 -> Scheduler.Async_random (Gen.rng (seed + (100 * r)))
          | _ -> Scheduler.Async_adversarial (Gen.rng (seed + (100 * r)))
        in
        E.round net daemon
      done;
      (* one final churn + sync round, then audit every sync round seen *)
      ignore (E.inject net (Gen.rng (seed + 999)) (Fault.uniform ~count:3));
      E.round net Scheduler.Sync;
      (* activations are emitted per (round, node); within a sync round
         the node ids must strictly increase.  Async rounds follow the
         daemon's schedule, so only audit rounds with >= 2 activations
         whose order claims to be canonical: collect per-round sequences
         and check the sync ones.  Sync rounds are exactly those where
         the engine drained the frontier — conservatively, audit every
         round that is strictly ascending in the reference semantics:
         here we re-run the same seeds and compare against Naive order
         would be circular, so instead assert the *final* sync round
         (known sync by construction) ascends. *)
      let final_round = E.rounds net in
      let seq = ref [] in
      Trace.iter
        (function
          | Trace.Activation { round; node } when round = final_round ->
              seq := node :: !seq
          | _ -> ())
        tr;
      let seq = List.rev !seq in
      let rec ascends = function
        | a :: (b :: _ as rest) -> a < b && ascends rest
        | _ -> true
      in
      seq <> [] && ascends seq)

(* ---------------- 4. accounting parity across sync branches ------------- *)

(* wasted_steps / skipped_activations must not depend on which branch of
   sync_round ran.  Forcing the domain-parallel branch needs a multicore
   runtime; on a sequential backend both runs take the k = 1 path and the
   check degenerates to determinism — still worth asserting. *)
let test_accounting_parity () =
  let g = Gen.grid (Gen.rng 9100) 8 8 in
  let run_flat d =
    let net = F.create ~domains:d g in
    for r = 1 to 14 do
      if r mod 4 = 1 then ignore (F.inject net (Gen.rng (9100 + r)) (Fault.uniform ~count:4));
      F.round net Scheduler.Sync
    done;
    let m = F.metrics net in
    (m.Metrics.wasted_steps, m.Metrics.skipped_activations, m.Metrics.activations)
  in
  let run_make d =
    let net = E.create ~domains:d g in
    for r = 1 to 14 do
      if r mod 4 = 1 then ignore (E.inject net (Gen.rng (9100 + r)) (Fault.uniform ~count:4));
      E.round net Scheduler.Sync
    done;
    let m = E.metrics net in
    (m.Metrics.wasted_steps, m.Metrics.skipped_activations, m.Metrics.activations)
  in
  let fw, fs, fa = run_flat 1 and mw, ms, ma = run_make 1 in
  List.iter
    (fun d ->
      let w, s, a = run_flat d in
      Alcotest.(check int) (Fmt.str "flat -d %d: wasted_steps" d) fw w;
      Alcotest.(check int) (Fmt.str "flat -d %d: skipped_activations" d) fs s;
      Alcotest.(check int) (Fmt.str "flat -d %d: activations" d) fa a;
      let w, s, a = run_make d in
      Alcotest.(check int) (Fmt.str "make -d %d: wasted_steps" d) mw w;
      Alcotest.(check int) (Fmt.str "make -d %d: skipped_activations" d) ms s;
      Alcotest.(check int) (Fmt.str "make -d %d: activations" d) ma a)
    [ 2; 4 ];
  (* the two engines also agree with each other on the sequential branch *)
  Alcotest.(check int) "flat = make: wasted_steps" mw fw;
  Alcotest.(check int) "flat = make: skipped_activations" ms fs;
  Alcotest.(check int) "flat = make: activations" ma fa

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_frontier_model;
    QCheck_alcotest.to_alcotest qcheck_drain_paths_agree;
    Alcotest.test_case "monomorphic prefix sort" `Quick test_sort;
    Alcotest.test_case "compact: k marks -> one live entry" `Quick test_compact_dedup;
    Alcotest.test_case "async rounds leave no stale entries (both engines)" `Quick
      test_async_rounds_stay_compact;
    Alcotest.test_case "golden traces: event order = list frontier" `Quick test_golden_traces;
    QCheck_alcotest.to_alcotest qcheck_sync_activations_ascend;
    Alcotest.test_case "wasted/skipped parity across sync branches" `Quick
      test_accounting_parity;
  ]
