open Ssmst_graph
open Ssmst_sim
open Ssmst_core
open Ssmst_pls
open Ssmst_protocols

(* The flat-core contract, made executable:

   1. codec round trips — [unpack (pack s)] is [P.equal]-identical to [s]
      for every engine-reachable state (init, stepped, corrupted under both
      severities), [pack] is deterministic, writes every word of its slice
      and stays inside it;
   2. layout descriptors — [field_offsets] is aligned index-for-index with
      [field_names], monotone and within the word budget;
   3. the three-way differential — {!Network.Flat} stays bit-identical to
      {!Network.Make} and {!Ssmst_oracle.Naive} under every daemon and every
      fault model, which is the soundness argument for running the scale
      experiments on the packed engine. *)

(* ---------------- codec round trips ---------------- *)

module Codec_check (P : Protocol.PACKED) = struct
  let check_layout g =
    let w = P.words g in
    let offs = P.field_offsets g in
    Alcotest.(check int)
      "field_offsets aligned with field_names"
      (Array.length P.field_names) (Array.length offs);
    Alcotest.(check bool) "budget positive" true (w > 0);
    Alcotest.(check int) "first field at word 0" 0 offs.(0);
    for i = 1 to Array.length offs - 1 do
      if offs.(i) < offs.(i - 1) then Alcotest.fail "field offsets not monotone";
      if offs.(i) >= w then Alcotest.fail "field offset outside the budget"
    done

  (* Pack at a non-zero offset into a sentinel-filled buffer: catches both
     failed round trips and out-of-slice writes.  Packing the same state
     over a second sentinel must give the same slice, so [pack] writes
     every word of it: the packed store stages into an unseeded slice. *)
  let round_trip g v s =
    let w = P.words g in
    let off = 2 + (v mod 3) in
    let buf = Array.make (off + w + 2) (-77) in
    P.pack g v s buf off;
    for j = 0 to off - 1 do
      if buf.(j) <> -77 then Alcotest.fail "pack wrote below its slice"
    done;
    if buf.(off + w) <> -77 || buf.(off + w + 1) <> -77 then
      Alcotest.fail "pack wrote past its slice";
    let other = Array.make (off + w + 2) 0x5eed in
    P.pack g v s other off;
    if Array.sub buf off w <> Array.sub other off w then
      Alcotest.failf "pack left a word of its slice unwritten at node %d" v;
    let s' = P.unpack g v buf off in
    if not (P.equal s s') then Alcotest.failf "round trip not identity at node %d" v;
    let buf2 = Array.make (off + w + 2) (-77) in
    P.pack g v s' buf2 off;
    if buf <> buf2 then Alcotest.failf "pack not deterministic at node %d" v

  (* Sweep the engine-reachable state space: clean runs, then alternating
     scrambling and targeted-field faults. *)
  let exhaustive ?(rounds = 10) ?(fault_bursts = 6) g seed =
    check_layout g;
    let module Net = Network.Make (P) in
    let net = Net.create g in
    let n = Graph.n g in
    let check_all () =
      for v = 0 to n - 1 do
        round_trip g v (Net.state net v)
      done
    in
    check_all ();
    for _ = 1 to rounds do
      Net.sync_round net;
      check_all ()
    done;
    let st = Gen.rng (seed + 1) in
    for _ = 1 to fault_bursts do
      ignore (Net.inject net st (Fault.uniform ~count:2));
      check_all ();
      ignore (Net.inject net st (Fault.make ~severity:Bit_flip ~count:2 ()));
      check_all ();
      Net.sync_round net;
      check_all ()
    done
end

module Bfs_codec = Codec_check (Ss_bfs.P)

let test_bfs_round_trip () =
  List.iter
    (fun n -> Bfs_codec.exhaustive (Gen.random_connected (Gen.rng (100 + n)) n) (100 + n))
    [ 2; 9; 24; 50 ]

let qcheck_bfs_round_trip =
  QCheck.Test.make ~count:60 ~name:"flat codec: ss-bfs round trips on random instances"
    QCheck.(pair (int_range 2 40) (int_bound 100_000))
    (fun (n, seed) ->
      Bfs_codec.exhaustive ~rounds:6 ~fault_bursts:3
        (Gen.random_connected (Gen.rng seed) n)
        seed;
      true)

let test_kkp_round_trip () =
  List.iter
    (fun n ->
      let scheme = Kkp_pls.mark (Marker.run (Gen.random_connected (Gen.rng (300 + n)) n)) in
      let module C = struct
        let scheme = scheme
      end in
      let module K = Codec_check (Kkp_protocol.Make (C)) in
      K.exhaustive scheme.Kkp_pls.marker.Marker.graph (300 + n))
    [ 2; 8; 24; 48 ]

let test_verifier_round_trip () =
  List.iter
    (fun (n, mode) ->
      let g = Gen.random_connected (Gen.rng (500 + n)) n in
      let module C = struct
        let marker = Marker.run g
        let mode = mode
      end in
      let module V = Codec_check (Verifier.Make (C)) in
      V.exhaustive ~rounds:25 g (500 + n))
    [ (2, Verifier.Passive); (12, Verifier.Passive); (16, Verifier.Handshake); (24, Verifier.Passive) ]

(* ---------------- measured word budgets ---------------- *)

(* The packed budgets realize the paper's memory claims in 64-bit words:
   O(log n) words for the verifier (label + trains + comparison module are
   all O(log n) bits) and O(1) words for ss-bfs. *)
let test_word_budgets () =
  List.iter
    (fun n ->
      let g = Gen.random_connected (Gen.rng (700 + n)) n in
      Alcotest.(check int) "ss-bfs budget is constant" 3 (Ss_bfs.P.words g);
      Alcotest.(check bool) "ss-bfs within 64 * ceil(log n) bits" true
        (Memory.within_log_budget ~c:64 ~n ~words:(Ss_bfs.P.words g));
      let module C = struct
        let marker = Marker.run g
        let mode = Verifier.Passive
      end in
      let module V = Verifier.Make (C) in
      (* O(log n) words = O(log² n) bits measured; the modeled count is
         O(log n · log W) bits, so gate words against c · ⌈log n⌉ *)
      Alcotest.(check bool)
        (Fmt.str "verifier words O(log n) at n=%d" n)
        true
        (V.words g <= 40 * Memory.log2_ceil n))
    [ 8; 16; 64 ]

(* ---------------- the three-way engine differential ---------------- *)

module Diff3 (P : Protocol.PACKED) = struct
  module N = Ssmst_oracle.Naive (P)
  module E = Network.Make (P)
  module F = Network.Flat (P)

  (* CI's multicore job sets MSST_TEST_DOMAINS=2: every differential below
     then drives the domain-parallel sync rounds of both the event-driven
     and the flat engine against the sequential naive oracle.  Unset (the
     default), everything runs sequentially as before. *)
  let test_domains =
    Ssmst_parallel.Domain_pool.domains_from_env ~var:"MSST_TEST_DOMAINS" ~default:1 ()

  let daemon_of kind seed =
    match kind with
    | 0 -> Scheduler.Sync
    | 1 -> Scheduler.Async_random (Gen.rng seed)
    | _ -> Scheduler.Async_adversarial (Gen.rng seed)

  let check ~ctx naive engine flat =
    if N.rounds naive <> E.rounds engine || N.rounds naive <> F.rounds flat then
      failwith
        (Fmt.str "%s: round counts diverge (naive %d, engine %d, flat %d)" ctx
           (N.rounds naive) (E.rounds engine) (F.rounds flat));
    if N.any_alarm naive <> E.any_alarm engine || N.any_alarm naive <> F.any_alarm flat then
      failwith (Fmt.str "%s: alarm predicates diverge" ctx);
    Array.iteri
      (fun v s ->
        if not (P.equal s (E.state engine v)) then
          failwith (Fmt.str "%s: naive/engine states diverge at node %d" ctx v);
        if not (P.equal s (F.state flat v)) then
          failwith (Fmt.str "%s: naive/flat states diverge at node %d" ctx v))
      (N.states naive)

  let run_one ?g ?(n = 20) ?(rounds = 25) ?(faults = 2) ?(domains = test_domains) ~seed ~kind
      () =
    let g = match g with Some g -> g | None -> Gen.random_connected (Gen.rng seed) n in
    let naive = N.create g
    and engine = E.create ~domains g
    and flat = F.create ~domains g in
    let dn = daemon_of kind (seed + 1)
    and de = daemon_of kind (seed + 1)
    and df = daemon_of kind (seed + 1) in
    check ~ctx:"init" naive engine flat;
    for r = 1 to rounds do
      N.round naive dn;
      E.round engine de;
      F.round flat df;
      check ~ctx:(Fmt.str "round %d (daemon %d, seed %d)" r kind seed) naive engine flat
    done;
    if faults > 0 then begin
      let fn = N.inject_faults naive (Gen.rng (seed + 2)) ~count:faults in
      let fe = E.inject_faults engine (Gen.rng (seed + 2)) ~count:faults in
      let ff = F.inject_faults flat (Gen.rng (seed + 2)) ~count:faults in
      if fn <> fe || fn <> ff then failwith (Fmt.str "fault sets diverge (seed %d)" seed);
      check ~ctx:"post-injection" naive engine flat;
      for r = 1 to rounds do
        N.round naive dn;
        E.round engine de;
        F.round flat df;
        check
          ~ctx:(Fmt.str "post-fault round %d (daemon %d, seed %d)" r kind seed)
          naive engine flat
      done
    end

  (* Every placement x severity combination, as in the two-way suite. *)
  let all_models n root =
    [
      Fault.uniform ~count:2;
      Fault.make ~placement:(Clustered { center = Some root; radius = 2 }) ~count:3 ();
      Fault.make ~placement:(Clustered { center = None; radius = 1 }) ~count:2 ();
      Fault.make ~placement:(Near_root { root }) ~count:2 ();
      Fault.make ~placement:(Targeted [ 0; n / 2; n - 1 ]) ~count:3 ();
      Fault.make ~severity:Crash_reset ~count:3 ();
      Fault.make ~severity:Bit_flip ~count:3 ();
      Fault.make ~severity:Bit_flip
        ~cadence:(Intermittent { period = 5; repeats = 2 })
        ~count:2 ();
    ]

  let run_models ?g ?(n = 20) ?(rounds = 15) ?(domains = test_domains) ~seed ~kind () =
    let g = match g with Some g -> g | None -> Gen.random_connected (Gen.rng seed) n in
    let naive = N.create g
    and engine = E.create ~domains g
    and flat = F.create ~domains g in
    let dn = daemon_of kind (seed + 1)
    and de = daemon_of kind (seed + 1)
    and df = daemon_of kind (seed + 1) in
    for r = 1 to rounds do
      N.round naive dn;
      E.round engine de;
      F.round flat df;
      check ~ctx:(Fmt.str "warmup round %d (seed %d)" r seed) naive engine flat
    done;
    List.iteri
      (fun i model ->
        let ctx = Fmt.str "model %s (daemon %d, seed %d)" (Fault.to_string model) kind seed in
        let fn = N.inject naive (Gen.rng (seed + 100 + i)) model in
        let fe = E.inject engine (Gen.rng (seed + 100 + i)) model in
        let ff = F.inject flat (Gen.rng (seed + 100 + i)) model in
        if fn <> fe || fn <> ff then failwith (Fmt.str "%s: fault sets diverge" ctx);
        check ~ctx:(ctx ^ " post-injection") naive engine flat;
        for r = 1 to 5 do
          N.round naive dn;
          E.round engine de;
          F.round flat df;
          check ~ctx:(Fmt.str "%s round %d" ctx r) naive engine flat
        done)
      (all_models (Graph.n g) (seed mod n))
end

module Diff3_bfs = Diff3 (Ss_bfs.P)

let bfs_diff3 =
  QCheck.Test.make ~count:100 ~name:"flat = engine = naive: ss-bfs"
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      Diff3_bfs.run_one ~rounds:30 ~faults:3 ~seed ~kind ();
      true)

let bfs_models3 =
  QCheck.Test.make ~count:25 ~name:"flat = engine = naive: every fault model (ss-bfs)"
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      Diff3_bfs.run_models ~seed ~kind ();
      true)

let kkp_diff3 () =
  List.iter
    (fun (seed, kind) ->
      let scheme =
        Kkp_pls.mark (Marker.run (Gen.random_connected (Gen.rng seed) 18))
      in
      let module C = struct
        let scheme = scheme
      end in
      let module D = Diff3 (Kkp_protocol.Make (C)) in
      D.run_one ~g:scheme.Kkp_pls.marker.Marker.graph ~rounds:20 ~faults:2 ~seed ~kind ())
    [ (4100, 0); (4200, 1); (4300, 2) ]

let verifier_diff3 kind () =
  let n = 16 in
  List.iter
    (fun seed ->
      let g = Gen.random_connected (Gen.rng (8600 + seed)) n in
      let mode = if kind = 0 then Verifier.Passive else Verifier.Handshake in
      let module C = struct
        let marker = Marker.run g
        let mode = mode
      end in
      let module D = Diff3 (Verifier.Make (C)) in
      D.run_one ~g ~rounds:120 ~faults:1 ~seed:(8600 + seed) ~kind ())
    [ 0; 1 ]

let verifier_models3 () =
  let n = 16 and seed = 9400 in
  let g = Gen.random_connected (Gen.rng seed) n in
  let module C = struct
    let marker = Marker.run g
    let mode = Verifier.Passive
  end in
  let module D = Diff3 (Verifier.Make (C)) in
  List.iter (fun kind -> D.run_models ~g ~rounds:60 ~seed ~kind ()) [ 0; 1 ]

let suite =
  [
    Alcotest.test_case "flat codec: ss-bfs round trips" `Quick test_bfs_round_trip;
    QCheck_alcotest.to_alcotest qcheck_bfs_round_trip;
    Alcotest.test_case "flat codec: kkp round trips" `Quick test_kkp_round_trip;
    Alcotest.test_case "flat codec: verifier round trips" `Quick test_verifier_round_trip;
    Alcotest.test_case "flat codec: word budgets" `Quick test_word_budgets;
    QCheck_alcotest.to_alcotest bfs_diff3;
    QCheck_alcotest.to_alcotest bfs_models3;
    Alcotest.test_case "flat = engine = naive: kkp checker" `Quick kkp_diff3;
    Alcotest.test_case "flat = engine = naive: verifier, synchronous" `Quick (verifier_diff3 0);
    Alcotest.test_case "flat = engine = naive: verifier, async daemon" `Quick (verifier_diff3 1);
    Alcotest.test_case "flat = engine = naive: verifier, every fault model" `Quick
      verifier_models3;
  ]
