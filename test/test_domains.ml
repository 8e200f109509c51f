open Ssmst_graph
open Ssmst_sim
open Ssmst_parallel
open Ssmst_protocols

(* The domain-parallel contract, made executable:

   1. the pool itself — [Domain_pool.map] is [List.map] for every domain
      count (content, order, exceptions), and [slice] tiles [0..n-1]
      exactly with balanced contiguous ranges;
   2. byte-identity — a {!Network.Flat} run at -d 2/4 produces the same
      register file, metrics CSV row, last-write stamps, alarm set and
      write-hook event sequence as -d 1, across grid/random/hypertree
      instances under repeated fault bursts; {!Network.Make} at -d k stays
      state-identical to {!Ssmst_oracle.Naive};
   3. canonical write order — the (round, node) sequence of Flat's write
      hook matches {!Network.Make}'s [Register_write] trace events exactly
      on a faulted grid, at -d 1 and -d 2 alike, and a trace attached to
      Flat records the very event stream Make's does (causes and field
      deltas included). *)

(* ---------------- the pool ---------------- *)

let qcheck_map_matches =
  QCheck.Test.make ~count:200 ~name:"Domain_pool.map = List.map at every domain count"
    QCheck.(pair (list small_int) (int_range 1 6))
    (fun (xs, d) ->
      let f x = (x * 7) - 3 in
      Domain_pool.map ~domains:d f xs = List.map f xs)

exception Boom of int

let test_map_exception () =
  match
    Domain_pool.map ~domains:3 (fun x -> if x >= 10 then raise (Boom x) else x)
      [ 1; 2; 10; 3; 11 ]
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom x ->
      (* worker slots re-raise in ascending order: element 10 (worker 1)
         beats element 11 (worker 2); the sequential fallback raises at
         the first offending element — 10 either way *)
      Alcotest.(check int) "first offender propagates" 10 x

let test_run_exception_order () =
  match Domain_pool.run ~domains:4 (fun w -> if w = 1 || w = 3 then raise (Boom w)) with
  | () -> Alcotest.fail "expected Boom"
  | exception Boom w -> Alcotest.(check int) "ascending worker wins" 1 w

let test_slice () =
  for n = 0 to 40 do
    for k = 1 to 8 do
      let parts = List.init k (Domain_pool.slice ~domains:k n) in
      let cursor = ref 0 in
      List.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !cursor lo;
          Alcotest.(check bool) "non-negative length" true (hi >= lo);
          cursor := hi)
        parts;
      Alcotest.(check int) "tiles 0..n-1 exactly" n !cursor;
      let sizes = List.map (fun (lo, hi) -> hi - lo) parts in
      let mn = List.fold_left min max_int sizes and mx = List.fold_left max 0 sizes in
      if n > 0 && k > 1 && mx - mn > 1 then
        Alcotest.failf "unbalanced slices at n=%d k=%d (min %d, max %d)" n k mn mx
    done
  done

let test_run_covers_all_workers () =
  let hits = Array.make 6 0 in
  Domain_pool.run ~domains:6 (fun w -> hits.(w) <- hits.(w) + 1);
  Array.iteri (fun w c -> Alcotest.(check int) (Fmt.str "worker %d ran once" w) 1 c) hits

(* ---------------- Flat byte-identity at -d 1/2/4 ---------------- *)

module F = Network.Flat (Ss_bfs.P)
module E = Network.Make (Ss_bfs.P)
module N = Ssmst_oracle.Naive (Ss_bfs.P)

(* Two interleaved fault cadences keep the frontier wide and the alarm
   flags churning while the election re-converges between bursts. *)
let drive_flat ~domains ~seed g =
  let net = F.create ~domains g in
  let hooks = ref [] in
  (* the causes come from per-worker read marks: they too must not depend
     on the domain count *)
  F.set_write_hook net (fun ~round ~node ~old:_ _ cause ->
      hooks := (round, node, Trace.cause_to_string cause) :: !hooks);
  for r = 1 to 18 do
    if r mod 5 = 1 then ignore (F.inject net (Gen.rng (seed + r)) (Fault.uniform ~count:3));
    if r mod 7 = 0 then
      ignore (F.inject net (Gen.rng (seed + 50 + r)) (Fault.make ~severity:Bit_flip ~count:2 ()));
    F.round net Scheduler.Sync
  done;
  let m = F.metrics net in
  ( F.registers net,
    Metrics.to_csv_row m,
    F.rounds net,
    F.peak_bits net,
    List.sort compare (F.alarming_nodes net),
    Array.init (Graph.n g) (F.last_write_round net),
    List.rev !hooks,
    (* named, not only via the CSV row: the sequential and parallel
       branches of sync_round must account wasted/skipped identically *)
    (m.Metrics.wasted_steps, m.Metrics.skipped_activations) )

let flat_families seed =
  [
    ("grid", Gen.grid (Gen.rng seed) 6 6);
    ("random", Gen.random_connected (Gen.rng (seed + 1)) 40);
    ("hypertree", fst (Gen.hypertree_like (Gen.rng (seed + 2)) 4));
  ]

let test_flat_identity () =
  List.iter
    (fun (family, g) ->
      let regs1, csv1, rounds1, peak1, alarms1, lw1, hooks1, acct1 =
        drive_flat ~domains:1 ~seed:4400 g
      in
      List.iter
        (fun d ->
          let regs, csv, rounds, peak, alarms, lw, hooks, acct =
            drive_flat ~domains:d ~seed:4400 g
          in
          let ctx what = Fmt.str "%s, -d %d: %s identical" family d what in
          Alcotest.(check bool) (ctx "register file") true (regs = regs1);
          Alcotest.(check string) (ctx "metrics CSV row") csv1 csv;
          Alcotest.(check int) (ctx "round count") rounds1 rounds;
          Alcotest.(check int) (ctx "peak bits") peak1 peak;
          Alcotest.(check bool) (ctx "alarm set") true (alarms = alarms1);
          Alcotest.(check bool) (ctx "last-write stamps") true (lw = lw1);
          Alcotest.(check bool) (ctx "write-hook sequence") true (hooks = hooks1);
          Alcotest.(check (pair int int)) (ctx "wasted/skipped accounting") acct1 acct)
        [ 2; 4 ])
    (flat_families 4400)

(* Telemetry is specified strictly out-of-band: attaching a live profiler
   (real clock, real GC sampler) must leave every observable of the run —
   registers, metrics CSV, rounds, peak bits, alarms, last-write stamps,
   hook sequence — byte-identical to the unprofiled -d 1 baseline, at
   every domain count.  Same seven observables as test_flat_identity,
   with the probes actually firing. *)
let test_flat_identity_with_telemetry () =
  List.iter
    (fun (family, g) ->
      let baseline = drive_flat ~domains:1 ~seed:4400 g in
      List.iter
        (fun d ->
          let tel = Ssmst_obs.Telemetry.create () in
          Ssmst_obs.Telemetry.install tel;
          let profiled =
            Fun.protect ~finally:Ssmst_obs.Telemetry.uninstall (fun () ->
                drive_flat ~domains:d ~seed:4400 g)
          in
          Alcotest.(check bool)
            (Fmt.str "%s, -d %d: observables unchanged under telemetry" family d)
            true (profiled = baseline);
          Alcotest.(check bool)
            (Fmt.str "%s, -d %d: the profiler actually saw the run" family d)
            true
            (Ssmst_obs.Telemetry.phases tel <> []))
        [ 1; 2; 4 ])
    (flat_families 4400)

(* ---------------- Make(-d k) = Naive ---------------- *)

let qcheck_make_domains =
  QCheck.Test.make ~count:60 ~name:"Make(-d k) = Naive: sync rounds with fault bursts"
    QCheck.(pair (int_bound 100_000) (int_range 2 4))
    (fun (seed, d) ->
      let g = Gen.random_connected (Gen.rng seed) 24 in
      let naive = N.create g and eng = E.create ~domains:d g in
      for r = 1 to 20 do
        if r mod 6 = 1 then begin
          let a = N.inject_faults naive (Gen.rng (seed + r)) ~count:2 in
          let b = E.inject_faults eng (Gen.rng (seed + r)) ~count:2 in
          if a <> b then failwith "fault sets diverge"
        end;
        N.round naive Scheduler.Sync;
        E.round eng Scheduler.Sync
      done;
      let ok = ref (N.rounds naive = E.rounds eng && N.any_alarm naive = E.any_alarm eng) in
      Array.iteri
        (fun v s -> if not (Ss_bfs.P.equal s (E.state eng v)) then ok := false)
        (N.states naive);
      !ok)

(* ---------------- canonical write order vs Make's trace ---------------- *)

let writes_of tr =
  let acc = ref [] in
  Trace.iter
    (function
      | Trace.Register_write { round; node; _ } -> acc := (round, node) :: !acc
      | _ -> ())
    tr;
  List.rev !acc

let drive_make_trace ~seed g =
  let tr = Trace.create ~capacity:200_000 () in
  let net = E.create ~trace:tr g in
  for r = 1 to 15 do
    if r mod 4 = 1 then ignore (E.inject net (Gen.rng (seed + r)) (Fault.uniform ~count:3));
    E.round net Scheduler.Sync
  done;
  tr

(* Flat with both listeners attached: the write hook's (round, node)
   sequence and the full traced event stream *)
let drive_flat_order ~domains ~seed g =
  let tr = Trace.create ~capacity:200_000 () in
  let net = F.create ~trace:tr ~domains g in
  let acc = ref [] in
  F.set_write_hook net (fun ~round ~node ~old:_ _ _ -> acc := (round, node) :: !acc);
  for r = 1 to 15 do
    if r mod 4 = 1 then ignore (F.inject net (Gen.rng (seed + r)) (Fault.uniform ~count:3));
    F.round net Scheduler.Sync
  done;
  (List.rev !acc, tr)

let test_write_order_matches_make () =
  let g = Gen.grid (Gen.rng 4500) 6 6 in
  let make_trace = drive_make_trace ~seed:4500 g in
  let reference = writes_of make_trace in
  Alcotest.(check bool) "the faulted grid produces writes" true (List.length reference > 0);
  List.iter
    (fun d ->
      let hooked, flat_trace = drive_flat_order ~domains:d ~seed:4500 g in
      if hooked <> reference then
        Alcotest.failf
          "write order diverges from Make's trace at -d %d (%d flat writes, %d traced)" d
          (List.length hooked) (List.length reference);
      if writes_of flat_trace <> reference then
        Alcotest.failf "Flat's traced Register_write stream diverges from Make's at -d %d" d;
      if Trace.to_list flat_trace <> Trace.to_list make_trace then
        Alcotest.failf "Flat's traced event stream diverges from Make's at -d %d" d)
    [ 1; 2 ]

let suite =
  [
    QCheck_alcotest.to_alcotest qcheck_map_matches;
    Alcotest.test_case "pool: exception propagation through map" `Quick test_map_exception;
    Alcotest.test_case "pool: run re-raises ascending" `Quick test_run_exception_order;
    Alcotest.test_case "pool: slices tile and balance" `Quick test_slice;
    Alcotest.test_case "pool: run covers every worker exactly once" `Quick
      test_run_covers_all_workers;
    Alcotest.test_case "flat: -d 1/2/4 byte-identical across families" `Quick
      test_flat_identity;
    Alcotest.test_case "flat: telemetry attached changes no observable" `Quick
      test_flat_identity_with_telemetry;
    QCheck_alcotest.to_alcotest qcheck_make_domains;
    Alcotest.test_case "write order: flat hook = Make trace on a faulted grid" `Quick
      test_write_order_matches_make;
  ]
