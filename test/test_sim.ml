open Ssmst_graph
open Ssmst_sim

(* A toy protocol for exercising the simulator: flooding the maximum
   identity.  Stabilizes in diameter rounds synchronously. *)
module Flood = struct
  type state = { best : int; alarmed : bool }

  let init g v = { best = Graph.id g v; alarmed = false }

  let step g v (s : state) read =
    let best = Graph.fold_ports g v (fun acc p _ -> max acc (read p).best) s.best in
    { s with best }

  let alarm s = s.alarmed
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.best + Memory.of_bool
  let corrupt st _ _ s = { s with best = Random.State.int st 1000 }
  let corrupt_field st _ _ s = { s with best = Random.State.int st 1000 }
  let field_names = [| "best"; "alarmed" |]
  let encode (s : state) = [| s.best; Bool.to_int s.alarmed |]
end

module Net = Network.Make (Flood)

let all_agree net g =
  let target = Array.fold_left max 0 (Array.init (Graph.n g) (Graph.id g)) in
  Array.for_all (fun (s : Flood.state) -> s.best = target) (Net.states net)

let test_sync_convergence () =
  let st = Gen.rng 10 in
  let g = Gen.path st 16 in
  let net = Net.create g in
  let d = Dist.diameter g in
  Net.run net Scheduler.Sync ~rounds:d;
  Alcotest.(check bool) "max id flooded in diameter rounds" true (all_agree net g);
  Alcotest.(check int) "rounds counted" d (Net.rounds net)

let test_async_convergence () =
  let st = Gen.rng 11 in
  let g = Gen.random_connected st 24 in
  let daemon = Scheduler.Async_random (Gen.rng 12) in
  let net = Net.create g in
  let executed, reached = Net.run_until net daemon ~max_rounds:200 (fun n -> all_agree n g) in
  Alcotest.(check bool) "converged under async daemon" true reached;
  Alcotest.(check bool) "within fair bound" true (executed <= Dist.diameter g + 1)

let test_adversarial_convergence () =
  let st = Gen.rng 13 in
  let g = Gen.random_connected st 24 in
  let daemon = Scheduler.Async_adversarial (Gen.rng 14) in
  let net = Net.create g in
  let _, reached = Net.run_until net daemon ~max_rounds:200 (fun n -> all_agree n g) in
  Alcotest.(check bool) "converged under adversarial daemon" true reached

(* reading a port the node does not have must be rejected by the harness,
   on both register stores, past either end of the row *)
module Bad_reader (Port : sig
  val port : Graph.t -> int -> int
end) =
struct
  include Flood

  let step g v (s : state) read =
    ignore (read (Port.port g v));
    s

  let words _ = 2
  let field_offsets _ = [| 0; 1 |]

  let pack _ _ (s : state) buf off =
    buf.(off) <- s.best;
    buf.(off + 1) <- Bool.to_int s.alarmed

  let unpack _ _ buf off = { best = buf.(off); alarmed = buf.(off + 1) <> 0 }
end

let test_neighbour_read_guard () =
  let guard name port =
    let module Bad = Bad_reader (struct
      let port = port
    end) in
    let module Boxed = Network.Make (Bad) in
    let module Packed = Network.Flat (Bad) in
    let g = Gen.path (Gen.rng 15) 8 in
    let raises = Invalid_argument "Network.step: reading a non-neighbour" in
    Alcotest.check_raises (name ^ " on Make") raises (fun () ->
        Boxed.sync_round (Boxed.create g));
    Alcotest.check_raises (name ^ " on Flat") raises (fun () ->
        Packed.sync_round (Packed.create g))
  in
  guard "port (v + 2) mod n" (fun g v -> (v + 2) mod Graph.n g);
  guard "port -1" (fun _ _ -> -1)

let test_fault_injection () =
  let st = Gen.rng 16 in
  let g = Gen.path st 12 in
  let net = Net.create g in
  Net.run net Scheduler.Sync ~rounds:12;
  let faults = Net.inject_faults net (Gen.rng 17) ~count:3 in
  Alcotest.(check int) "three distinct faults" 3 (List.length faults);
  Alcotest.(check int) "distinct" 3 (List.length (List.sort_uniq compare faults))

let test_detection_distance () =
  let st = Gen.rng 18 in
  let g = Gen.path st 10 in
  let net = Net.create g in
  (* plant an alarm manually at node 9 and a fault at node 0 *)
  Net.set_state net 9 { Flood.best = 0; alarmed = true };
  match Net.detection_distance net ~faults:[ 0 ] with
  | Some d -> Alcotest.(check int) "distance measured along hops" 9 d
  | None -> Alcotest.fail "expected an alarming node"

let test_memory_accounting () =
  let st = Gen.rng 19 in
  let g = Gen.path st 6 in
  let net = Net.create g in
  Alcotest.(check bool) "peak bits positive" true (Net.peak_bits net > 0)

let suite =
  [
    Alcotest.test_case "sync convergence in diameter rounds" `Quick test_sync_convergence;
    Alcotest.test_case "async fair daemon converges" `Quick test_async_convergence;
    Alcotest.test_case "adversarial daemon converges" `Quick test_adversarial_convergence;
    Alcotest.test_case "non-neighbour reads rejected" `Quick test_neighbour_read_guard;
    Alcotest.test_case "fault injection" `Quick test_fault_injection;
    Alcotest.test_case "detection distance" `Quick test_detection_distance;
    Alcotest.test_case "memory accounting" `Quick test_memory_accounting;
  ]
