open Ssmst_graph
open Ssmst_sim
open Ssmst_protocols
open Ssmst_core

(* Differential testing of the event-driven engine ({!Network.Make})
   against the naive reference engine ({!Ssmst_oracle.Naive}): on the same
   graph, daemon (twin RNGs) and fault schedule, states and round counts
   must be identical after every round.  This is the soundness argument for
   the dirty-set rule made executable. *)

(* a silent protocol with plenty of churn before quiescence *)
module Flood = struct
  type state = { best : int; hops : int }

  let init g v = { best = Graph.id g v; hops = 0 }

  let step g v (s : state) read =
    Graph.fold_ports g v
      (fun acc p _ ->
        let su = read p in
        if su.best > acc.best then { best = su.best; hops = su.hops + 1 } else acc)
      s

  let alarm _ = false
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Ssmst_sim.Memory.of_int s.best + Ssmst_sim.Memory.of_nat s.hops
  let corrupt st _ _ (s : state) = { s with best = Random.State.int st 4096 }

  let corrupt_field st _ _ (s : state) =
    if Random.State.bool st then { s with best = Random.State.int st 4096 }
    else { s with hops = Random.State.int st 64 }

  let field_names = [| "best"; "hops" |]
  let encode (s : state) = [| s.best; s.hops |]
end

module Diff (P : Protocol.S) = struct
  module N = Ssmst_oracle.Naive (P)
  module E = Network.Make (P)

  let daemon_of kind seed =
    match kind with
    | 0 -> Scheduler.Sync
    | 1 -> Scheduler.Async_random (Gen.rng seed)
    | _ -> Scheduler.Async_adversarial (Gen.rng seed)

  let check ~ctx naive engine =
    if N.rounds naive <> E.rounds engine then
      failwith
        (Fmt.str "%s: round counts diverge (naive %d, engine %d)" ctx (N.rounds naive)
           (E.rounds engine));
    if N.any_alarm naive <> E.any_alarm engine then
      failwith (Fmt.str "%s: alarm predicates diverge" ctx);
    Array.iteri
      (fun v s ->
        if not (P.equal s (E.state engine v)) then
          failwith (Fmt.str "%s: states diverge at node %d" ctx v))
      (N.states naive)

  (* Run both engines in lock-step for [rounds], inject [faults] identical
     faults, run again; compare after every round. *)
  let run_one ?(n = 20) ?(rounds = 25) ?(faults = 2) ~seed ~kind () =
    let g = Gen.random_connected (Gen.rng seed) n in
    let naive = N.create g and engine = E.create g in
    let dn = daemon_of kind (seed + 1) and de = daemon_of kind (seed + 1) in
    check ~ctx:"init" naive engine;
    for r = 1 to rounds do
      N.round naive dn;
      E.round engine de;
      check ~ctx:(Fmt.str "round %d (daemon %d, seed %d)" r kind seed) naive engine
    done;
    if faults > 0 then begin
      let fn = N.inject_faults naive (Gen.rng (seed + 2)) ~count:faults in
      let fe = E.inject_faults engine (Gen.rng (seed + 2)) ~count:faults in
      if fn <> fe then failwith (Fmt.str "fault sets diverge (seed %d)" seed);
      if fn <> List.sort compare fn then
        failwith (Fmt.str "fault set not sorted (seed %d)" seed);
      check ~ctx:"post-injection" naive engine;
      for r = 1 to rounds do
        N.round naive dn;
        E.round engine de;
        check
          ~ctx:(Fmt.str "post-fault round %d (daemon %d, seed %d)" r kind seed)
          naive engine
      done
    end

  (* Every placement x severity combination the fault subsystem offers:
     after each injection the engines must stay bit-identical (this is
     what guards the dirty-marking of the event-driven engine on the
     fault path). *)
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

  let run_models ?(n = 20) ?(rounds = 15) ~seed ~kind () =
    let g = Gen.random_connected (Gen.rng seed) n in
    let naive = N.create g and engine = E.create g in
    let dn = daemon_of kind (seed + 1) and de = daemon_of kind (seed + 1) in
    for r = 1 to rounds do
      N.round naive dn;
      E.round engine de;
      check ~ctx:(Fmt.str "warmup round %d (seed %d)" r seed) naive engine
    done;
    List.iteri
      (fun i model ->
        let ctx = Fmt.str "model %s (daemon %d, seed %d)" (Fault.to_string model) kind seed in
        let fn = N.inject naive (Gen.rng (seed + 100 + i)) model in
        let fe = E.inject engine (Gen.rng (seed + 100 + i)) model in
        if fn <> fe then failwith (Fmt.str "%s: fault sets diverge" ctx);
        if fn <> List.sort compare fn then failwith (Fmt.str "%s: fault set not sorted" ctx);
        check ~ctx:(ctx ^ " post-injection") naive engine;
        for r = 1 to 5 do
          N.round naive dn;
          E.round engine de;
          check ~ctx:(Fmt.str "%s round %d" ctx r) naive engine
        done)
      (all_models (Graph.n g) (seed mod n))
end

module Diff_flood = Diff (Flood)
module Diff_bfs = Diff (Ss_bfs.P)

(* ---------------- QCheck sweeps: >= 100 random instances ---------------- *)

let qcheck_diff name (run : seed:int -> kind:int -> unit) =
  QCheck.Test.make ~count:120 ~name
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      run ~seed ~kind;
      true)

let flood_diff =
  qcheck_diff "engine = naive: max-id flood" (fun ~seed ~kind ->
      Diff_flood.run_one ~seed ~kind ())

let bfs_diff =
  qcheck_diff "engine = naive: ss-bfs leader election" (fun ~seed ~kind ->
      Diff_bfs.run_one ~rounds:30 ~faults:3 ~seed ~kind ())

let qcheck_models name count (run : seed:int -> kind:int -> unit) =
  QCheck.Test.make ~count ~name
    QCheck.(pair (int_bound 1_000_000) (int_bound 2))
    (fun (seed, kind) ->
      run ~seed ~kind;
      true)

let flood_models =
  qcheck_models "engine = naive: every fault model (flood)" 40 (fun ~seed ~kind ->
      Diff_flood.run_models ~seed ~kind ())

let bfs_models =
  qcheck_models "engine = naive: every fault model (ss-bfs)" 25 (fun ~seed ~kind ->
      Diff_bfs.run_models ~seed ~kind ())

(* ---------------- the real verifier, sync and async ---------------- *)

let verifier_diff kind () =
  let n = 16 in
  List.iter
    (fun seed ->
      let g = Gen.random_connected (Gen.rng (8200 + seed)) n in
      let m = Marker.run g in
      let mode = if kind = 0 then Verifier.Passive else Verifier.Handshake in
      let module C = struct
        let marker = m
        let mode = mode
      end in
      let module P = Verifier.Make (C) in
      let module D = Diff (P) in
      D.run_one ~n ~rounds:120 ~faults:1 ~seed:(8200 + seed) ~kind ())
    [ 0; 1 ]

(* the real verifier under every fault model *)
let verifier_models () =
  let n = 16 and seed = 9100 in
  let g = Gen.random_connected (Gen.rng seed) n in
  let m = Marker.run g in
  let module C = struct
    let marker = m
    let mode = Verifier.Passive
  end in
  let module P = Verifier.Make (C) in
  let module D = Diff (P) in
  List.iter (fun kind -> D.run_models ~n ~rounds:60 ~seed ~kind ()) [ 0; 1 ]

let suite =
  [
    QCheck_alcotest.to_alcotest flood_diff;
    QCheck_alcotest.to_alcotest bfs_diff;
    QCheck_alcotest.to_alcotest flood_models;
    QCheck_alcotest.to_alcotest bfs_models;
    Alcotest.test_case "engine = naive: verifier, synchronous" `Quick (verifier_diff 0);
    Alcotest.test_case "engine = naive: verifier, async daemon" `Quick (verifier_diff 1);
    Alcotest.test_case "engine = naive: verifier, every fault model" `Quick verifier_models;
  ]
