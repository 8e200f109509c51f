open Ssmst_graph

let check = Alcotest.(check bool)

let test_order () =
  let w1 = Weight.make ~base:3 ~in_tree:true ~id_u:1 ~id_v:2 in
  let w2 = Weight.make ~base:3 ~in_tree:false ~id_u:1 ~id_v:2 in
  let w3 = Weight.make ~base:4 ~in_tree:true ~id_u:0 ~id_v:1 in
  check "tree edge wins ties" true Weight.(w1 < w2);
  check "base weight dominates" true Weight.(w2 < w3);
  check "irreflexive" false Weight.(w1 < w1);
  check "equal" true (Weight.equal w1 w1)

let test_id_tiebreak () =
  let a = Weight.make ~base:5 ~in_tree:false ~id_u:1 ~id_v:9 in
  let b = Weight.make ~base:5 ~in_tree:false ~id_u:2 ~id_v:3 in
  check "id_min breaks ties" true Weight.(a < b);
  let c = Weight.make ~base:5 ~in_tree:false ~id_u:1 ~id_v:4 in
  check "id_max breaks remaining ties" true Weight.(c < a)

let test_infinity () =
  let w = Weight.make ~base:1000000 ~in_tree:false ~id_u:5 ~id_v:6 in
  check "finite < infinity" true Weight.(w < Weight.infinity);
  check "is_infinity" true (Weight.is_infinity Weight.infinity);
  check "not is_infinity" false (Weight.is_infinity w)

let test_bits () =
  let small = Weight.make ~base:2 ~in_tree:true ~id_u:3 ~id_v:7 in
  let big = Weight.make ~base:(1 lsl 40) ~in_tree:true ~id_u:3 ~id_v:7 in
  Alcotest.(check bool) "bits positive" true (Weight.bits small > 0);
  Alcotest.(check bool) "bits grows with magnitude" true (Weight.bits big > Weight.bits small)

(* [bits] once used 1 + floor(log2 x) in floating point; the integer bit
   length must agree with it on every value a register can hold, so that
   bits and peak_bits stay what they were *)
let test_bit_length_matches_float () =
  let float_len x = if x <= 0 then 1 else succ (int_of_float (log (float_of_int x) /. log 2.)) in
  let agree x =
    if Weight.bit_length x <> float_len x then
      Alcotest.failf "bit_length %d = %d, float formula %d" x (Weight.bit_length x) (float_len x)
  in
  for x = 0 to 1 lsl 20 do
    agree x
  done;
  for k = 1 to 40 do
    List.iter agree [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1 ]
  done;
  (* beyond the float formula's range: the count of binary digits *)
  let digits x =
    let rec go n x = if x = 0 then n else go (n + 1) (x lsr 1) in
    if x <= 0 then 1 else go 0 x
  in
  for k = 0 to 61 do
    List.iter
      (fun x -> Alcotest.(check int) (Fmt.str "bit_length %d" x) (digits x) (Weight.bit_length x))
      [ (1 lsl k) - 1; 1 lsl k; (1 lsl k) + 1; (1 lsl (k + 1)) - 1 ]
  done;
  List.iter
    (fun x -> Alcotest.(check int) (Fmt.str "bit_length %d" x) (digits x) (Weight.bit_length x))
    [ max_int; min_int; -1 ];
  let w = Weight.make ~base:((1 lsl 33) + 5) ~in_tree:false ~id_u:1023 ~id_v:1024 in
  Alcotest.(check int) "bits sums the components" (34 + 1 + 10 + 11) (Weight.bits w)

let qcheck_total_order =
  QCheck.Test.make ~name:"weight compare is a total order (antisymmetry + transitivity)"
    ~count:500
    QCheck.(triple (pair small_nat small_nat) (pair small_nat small_nat) (pair small_nat small_nat))
    (fun ((b1, i1), (b2, i2), (b3, i3)) ->
      let mk b i = Weight.make ~base:b ~in_tree:(i mod 2 = 0) ~id_u:i ~id_v:(i + 1) in
      let w1 = mk b1 i1 and w2 = mk b2 i2 and w3 = mk b3 i3 in
      let c12 = Weight.compare w1 w2 and c21 = Weight.compare w2 w1 in
      let anti = compare c12 0 = compare 0 c21 in
      let trans =
        if Weight.compare w1 w2 <= 0 && Weight.compare w2 w3 <= 0 then
          Weight.compare w1 w3 <= 0
        else true
      in
      anti && trans)

(* [compare_edge] is [compare] against the edge [make] would build, with
   small components so that every tie-break level is reached *)
let qcheck_compare_edge =
  QCheck.Test.make ~name:"compare_edge = compare against make" ~count:1000
    QCheck.(
      pair
        (quad (int_range 0 3) bool (int_range 0 3) (int_range 0 3))
        (quad (int_range 0 3) bool (int_range 0 3) (int_range 0 3)))
    (fun ((b1, t1, u1, v1), (base, in_tree, id_u, id_v)) ->
      let a = Weight.make ~base:b1 ~in_tree:t1 ~id_u:u1 ~id_v:v1 in
      compare (Weight.compare_edge a ~base ~in_tree ~id_u ~id_v) 0
      = compare (Weight.compare a (Weight.make ~base ~in_tree ~id_u ~id_v)) 0)

let suite =
  [
    Alcotest.test_case "lexicographic order" `Quick test_order;
    Alcotest.test_case "identity tie-break" `Quick test_id_tiebreak;
    Alcotest.test_case "infinity" `Quick test_infinity;
    Alcotest.test_case "bit accounting" `Quick test_bits;
    Alcotest.test_case "integer bit length = float formula" `Quick test_bit_length_matches_float;
    QCheck_alcotest.to_alcotest qcheck_total_order;
    QCheck_alcotest.to_alcotest qcheck_compare_edge;
  ]
