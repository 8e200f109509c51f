open Ssmst_graph

let triangle () = Graph.of_edges ~n:3 [ (0, 1, 5); (1, 2, 3); (0, 2, 7) ]

let test_basic () =
  let g = triangle () in
  Alcotest.(check int) "n" 3 (Graph.n g);
  Alcotest.(check int) "m" 3 (Graph.num_edges g);
  Alcotest.(check int) "degree" 2 (Graph.degree g 0);
  Alcotest.(check int) "max degree" 2 (Graph.max_degree g);
  Alcotest.(check int) "weight 0-1" 5 (Graph.base_weight g 0 1);
  Alcotest.(check int) "weight symmetric" 5 (Graph.base_weight g 1 0);
  Alcotest.(check bool) "has edge" true (Graph.has_edge g 1 2);
  Alcotest.(check bool) "connected" true (Graph.is_connected g)

let test_ports () =
  let g = triangle () in
  let p = Graph.port_to g 0 2 in
  Alcotest.(check int) "port round trip" 2 (Graph.peer_at g 0 p);
  (* ports at the two endpoints are independent *)
  let p01 = Graph.port_to g 0 1 and p10 = Graph.port_to g 1 0 in
  Alcotest.(check int) "peer via port" 1 (Graph.peer_at g 0 p01);
  Alcotest.(check int) "peer via reverse port" 0 (Graph.peer_at g 1 p10)

(* a port outside [0, degree) names no edge, at either end of the row *)
let test_port_range () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 5); (1, 2, 3); (0, 2, 7); (2, 3, 1) ] in
  let raises = Invalid_argument "Graph.port: port out of range" in
  for v = 0 to Graph.n g - 1 do
    List.iter
      (fun p ->
        Alcotest.check_raises (Fmt.str "peer_at %d %d" v p) raises (fun () ->
            ignore (Graph.peer_at g v p));
        Alcotest.check_raises (Fmt.str "weight_at %d %d" v p) raises (fun () ->
            ignore (Graph.weight_at g v p)))
      [ -1; Graph.degree g v ]
  done;
  Alcotest.(check int) "last port of node 2" 3 (Graph.peer_at g 2 (Graph.degree g 2 - 1));
  Alcotest.(check int) "last weight of node 2" 1 (Graph.weight_at g 2 (Graph.degree g 2 - 1))

let test_malformed () =
  let raises f = try ignore (f ()); false with Graph.Malformed _ -> true in
  Alcotest.(check bool) "self loop" true (raises (fun () -> Graph.of_edges ~n:2 [ (0, 0, 1) ]));
  Alcotest.(check bool) "parallel" true
    (raises (fun () -> Graph.of_edges ~n:2 [ (0, 1, 1); (1, 0, 2) ]));
  Alcotest.(check bool) "out of range" true
    (raises (fun () -> Graph.of_edges ~n:2 [ (0, 5, 1) ]));
  Alcotest.(check bool) "duplicate ids" true
    (raises (fun () -> Graph.of_edges ~ids:[| 4; 4 |] ~n:2 [ (0, 1, 1) ]))

let test_ids () =
  let g = Graph.of_edges ~ids:[| 10; 20; 30 |] ~n:3 [ (0, 1, 1); (1, 2, 2) ] in
  Alcotest.(check int) "identity" 20 (Graph.id g 1);
  Alcotest.(check int) "node_of_id" 2 (Graph.node_of_id g 30)

let test_disconnected () =
  let g = Graph.of_edges ~n:4 [ (0, 1, 1); (2, 3, 2) ] in
  Alcotest.(check bool) "disconnected" false (Graph.is_connected g)

let test_weight_fn () =
  let g = triangle () in
  let wt = Graph.weight_fn g ~in_tree:(fun u v -> (min u v, max u v) = (0, 1)) in
  let wp = Graph.plain_weight_fn g in
  Alcotest.(check bool) "tree edge lighter than same-base non-tree" true
    (Weight.compare (wt 0 1) (wp 0 1) < 0);
  Alcotest.(check bool) "distinct under plain fn" false (Weight.equal (wp 0 1) (wp 1 2))

let qcheck_fold_edges =
  QCheck.Test.make ~name:"fold_edges counts each edge once" ~count:100
    QCheck.(int_range 2 40)
    (fun n ->
      let st = Gen.rng n in
      let g = Gen.random_connected st n in
      Graph.num_edges g = List.length (Graph.edges g))

let suite =
  [
    Alcotest.test_case "basic accessors" `Quick test_basic;
    Alcotest.test_case "port numbering" `Quick test_ports;
    Alcotest.test_case "ports out of range rejected" `Quick test_port_range;
    Alcotest.test_case "malformed inputs rejected" `Quick test_malformed;
    Alcotest.test_case "custom identities" `Quick test_ids;
    Alcotest.test_case "disconnected detection" `Quick test_disconnected;
    Alcotest.test_case "weight functions" `Quick test_weight_fn;
    QCheck_alcotest.to_alcotest qcheck_fold_edges;
  ]
