open Ssmst_graph
open Ssmst_protocols

(* ------------------------------ Wave&Echo ------------------------------ *)

(* star with centre 0: children of 0 are 1..4 *)
let star_children v = if v = 0 then [ 1; 2; 3; 4 ] else []

(* path rooted at 0 *)
let path_children n v = if v + 1 < n then [ v + 1 ] else []

let test_count () =
  let r = Wave_echo.count ~children:star_children 0 in
  Alcotest.(check int) "count star" 5 r.value;
  Alcotest.(check int) "rounds = 2*height" 2 r.rounds;
  Alcotest.(check bool) "not truncated" false r.truncated;
  let r = Wave_echo.count ~children:(path_children 8) 0 in
  Alcotest.(check int) "count path" 8 r.value;
  Alcotest.(check int) "rounds path" 14 r.rounds

let test_ttl () =
  let r = Wave_echo.count ~children:(path_children 8) ~ttl:3 0 in
  Alcotest.(check int) "counts within ttl" 4 r.value;
  Alcotest.(check bool) "truncated" true r.truncated;
  let r = Wave_echo.count ~children:(path_children 4) ~ttl:3 0 in
  Alcotest.(check bool) "exact fit not truncated" false r.truncated;
  Alcotest.(check int) "exact fit counts all" 4 r.value

let test_sum_or_min () =
  let s = Wave_echo.sum ~children:star_children ~value:(fun v -> v) 0 in
  Alcotest.(check int) "sum" 10 s.value;
  let o = Wave_echo.logical_or ~children:star_children ~value:(fun v -> v = 3) 0 in
  Alcotest.(check bool) "or" true o.value;
  let m =
    Wave_echo.minimum ~children:star_children
      ~candidate:(fun v -> if v = 0 then None else Some (10 - v))
      ~compare:Int.compare 0
  in
  Alcotest.(check (option int)) "min skips None" (Some 6) m.value

let test_visited_preorder () =
  let r = Wave_echo.count ~children:(fun v -> if v = 0 then [ 1; 4 ] else if v = 1 then [ 2; 3 ] else []) 0 in
  Alcotest.(check (list int)) "preorder" [ 0; 1; 2; 3; 4 ] r.visited

(* ------------------------------ Data link ------------------------------ *)

let test_datalink_exactly_once () =
  let s = Datalink.sender () and r = Datalink.receiver () in
  Datalink.send s "a";
  Datalink.send s "b";
  Datalink.send s "c";
  (* interleave steps; receiver may run more often than the sender *)
  for _ = 1 to 20 do
    Datalink.sender_step s ~receiver_ack:r.ack;
    Datalink.receiver_step r ~sender_outbox:s.outbox ~sender_toggle:s.tog;
    Datalink.receiver_step r ~sender_outbox:s.outbox ~sender_toggle:s.tog
  done;
  Alcotest.(check (list string)) "no duplication, order kept" [ "a"; "b"; "c" ]
    (Datalink.delivered r)

let test_datalink_arbitrary_start () =
  (* arbitrary initial toggle states: at most one spurious delivery *)
  let s = Datalink.sender () and r = Datalink.receiver () in
  s.tog <- Datalink.T2;
  r.ack <- Datalink.T1;
  s.outbox <- Some "garbage";
  Datalink.send s "x";
  for _ = 1 to 20 do
    Datalink.receiver_step r ~sender_outbox:s.outbox ~sender_toggle:s.tog;
    Datalink.sender_step s ~receiver_ack:r.ack
  done;
  let d = Datalink.delivered r in
  Alcotest.(check bool) "x delivered exactly once" true
    (List.length (List.filter (( = ) "x") d) = 1);
  Alcotest.(check bool) "at most one spurious" true (List.length d <= 2)

(* ------------------------------ SS BFS tree ---------------------------- *)

let test_ss_bfs_sync () =
  let st = Gen.rng 20 in
  let g = Gen.random_connected st 24 in
  let net = Ss_bfs.Net.create g in
  (match Ss_bfs.stabilization_time net Ssmst_sim.Scheduler.Sync ~max_rounds:200 with
  | Some t -> Alcotest.(check bool) "stabilizes within O(n)" true (t <= 2 * 24)
  | None -> Alcotest.fail "did not stabilize");
  let t = Ss_bfs.tree net in
  Alcotest.(check int) "rooted at max id" 23
    (Graph.id g (Tree.root t))

(* one activation reads each port exactly once, from a fresh start, while
   converging and after faults *)
let test_ss_bfs_one_read_per_port () =
  let g = Gen.random_connected (Gen.rng 741) 40 in
  let net = Ss_bfs.Net.create g in
  let check what =
    for v = 0 to Graph.n g - 1 do
      let counts = Array.make (Graph.degree g v) 0 in
      let read p =
        counts.(p) <- counts.(p) + 1;
        Ss_bfs.Net.state net (Graph.peer_at g v p)
      in
      ignore (Ss_bfs.P.step g v (Ss_bfs.Net.state net v) read);
      Array.iteri
        (fun p c -> if c <> 1 then Alcotest.failf "%s: node %d read port %d %d times" what v p c)
        counts
    done
  in
  check "initial";
  Ss_bfs.Net.run net Ssmst_sim.Scheduler.Sync ~rounds:5;
  check "converging";
  ignore (Ss_bfs.Net.inject_faults net (Gen.rng 742) ~count:6);
  check "after faults"

let test_ss_bfs_recovers_from_faults () =
  let st = Gen.rng 21 in
  let g = Gen.random_connected st 20 in
  let net = Ss_bfs.Net.create g in
  ignore (Ss_bfs.stabilization_time net Ssmst_sim.Scheduler.Sync ~max_rounds:200);
  (* corrupt states: fake leaders with huge ids must be flushed *)
  ignore (Ss_bfs.Net.inject_faults net (Gen.rng 22) ~count:5);
  match Ss_bfs.stabilization_time net Ssmst_sim.Scheduler.Sync ~max_rounds:400 with
  | Some _ -> ()
  | None -> Alcotest.fail "did not re-stabilize after faults"

let test_ss_bfs_async () =
  let st = Gen.rng 23 in
  let g = Gen.random_connected st 16 in
  let net = Ss_bfs.Net.create g in
  ignore (Ss_bfs.Net.inject_faults net (Gen.rng 24) ~count:4);
  match
    Ss_bfs.stabilization_time net (Ssmst_sim.Scheduler.Async_random (Gen.rng 25)) ~max_rounds:400
  with
  | Some _ -> ()
  | None -> Alcotest.fail "did not stabilize under the async daemon"

let qcheck_ss_bfs =
  QCheck.Test.make ~name:"ss-bfs stabilizes from arbitrary states" ~count:25
    QCheck.(pair (int_range 3 20) (int_range 0 1000))
    (fun (n, seed) ->
      let st = Gen.rng seed in
      let g = Gen.random_connected st n in
      let net = Ss_bfs.Net.create g in
      ignore (Ss_bfs.Net.inject_faults net st ~count:n);
      Ss_bfs.stabilization_time net Ssmst_sim.Scheduler.Sync ~max_rounds:(20 * n + 50) <> None)

let suite =
  [
    Alcotest.test_case "wave&echo count" `Quick test_count;
    Alcotest.test_case "wave&echo ttl truncation" `Quick test_ttl;
    Alcotest.test_case "wave&echo sum/or/min" `Quick test_sum_or_min;
    Alcotest.test_case "wave&echo preorder" `Quick test_visited_preorder;
    Alcotest.test_case "datalink delivers exactly once" `Quick test_datalink_exactly_once;
    Alcotest.test_case "datalink self-stabilizes" `Quick test_datalink_arbitrary_start;
    Alcotest.test_case "ss-bfs stabilizes (sync)" `Quick test_ss_bfs_sync;
    Alcotest.test_case "ss-bfs recovers from faults" `Quick test_ss_bfs_recovers_from_faults;
    Alcotest.test_case "ss-bfs reads each port once" `Quick test_ss_bfs_one_read_per_port;
    Alcotest.test_case "ss-bfs stabilizes (async)" `Quick test_ss_bfs_async;
    QCheck_alcotest.to_alcotest qcheck_ss_bfs;
  ]
