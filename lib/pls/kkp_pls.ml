open Ssmst_graph
open Ssmst_core

(* The Korman-Kutten 1-proof labeling scheme for MST ([54, 55]), the
   baseline this paper improves on: detection time exactly 1, memory
   Θ(log² n) bits per node.

   Each node stores, for *every* level j, the full piece I(F_j(v)) of the
   fragment containing it — Θ(log n) pieces of Θ(log n) bits — next to the
   Section 5 strings.  The verifier is a single-round check: structural
   legality (as in the compact scheme) plus, per level and per neighbour,
   the agreement and minimality conditions C1/C2, all answerable instantly
   because the pieces sit in the labels rather than on trains. *)

type label = {
  base : Marker.node_label;  (* strings, SP, NumK; part labels unused here *)
  pieces : Pieces.t option array;  (* pieces.(j) = I(F_j(v)), per level *)
}

type t = { marker : Marker.t; labels : label array }

let bits (l : label) =
  Labels.bits l.base.Marker.strings
  + Ssmst_sim.Memory.of_option Ssmst_sim.Memory.of_nat l.base.Marker.comp_port
  + Ssmst_sim.Memory.of_int l.base.Marker.sp_root
  + Ssmst_sim.Memory.of_nat l.base.Marker.sp_depth
  + Ssmst_sim.Memory.of_nat l.base.Marker.nk_n
  + Ssmst_sim.Memory.of_nat l.base.Marker.nk_sub
  + Ssmst_sim.Memory.of_array (Ssmst_sim.Memory.of_option Pieces.bits) l.pieces

let max_bits (t : t) = Array.fold_left (fun acc l -> max acc (bits l)) 0 t.labels

(* Marker: every node keeps all its pieces. *)
let mark (m : Marker.t) =
  let g = m.graph in
  let h = m.hierarchy in
  let weight_fn = Graph.weight_fn g ~in_tree:(fun u v -> Tree.is_tree_edge m.tree u v) in
  let len = h.height + 1 in
  let labels =
    Array.init (Graph.n g) (fun v ->
        let pieces = Array.make len None in
        List.iter
          (fun fi ->
            let f = h.frags.(fi) in
            pieces.(f.level) <- Pieces.of_fragment g ~weight_fn f)
          h.of_node.(v);
        { base = m.labels.(v); pieces })
  in
  { marker = m; labels }

(* One-round verifier at node [v] with label [l], against the neighbour
   labels [at p] returns by port (each port is read once); returns the
   violated checks. *)
let check_node_with (m : Marker.t) ~own:(l : label) (at : int -> label) v =
  let g = m.graph in
  let deg = Graph.degree g v in
  let nbr = Array.init deg at in
  let bad = ref [] in
  let fail name = bad := name :: !bad in
  let strings = l.base.Marker.strings in
  (* the claimed parent's port, and the ports claiming v as parent *)
  let parent =
    match l.base.Marker.comp_port with Some p when p >= 0 && p < deg -> p | Some _ | None -> -1
  in
  let children =
    List.filter
      (fun p ->
        let u = Graph.peer_at g v p in
        match nbr.(p).base.Marker.comp_port with
        | Some q -> q >= 0 && q < Graph.degree g u && Graph.peer_at g u q = v
        | None -> false)
      (List.init deg Fun.id)
  in
  let is_root = l.base.Marker.sp_depth = 0 in
  (* structural: SP + strings *)
  (if is_root then begin
     if l.base.Marker.sp_root <> Graph.id g v then fail "sp"
   end
   else if parent < 0 then fail "sp"
   else if nbr.(parent).base.Marker.sp_depth <> l.base.Marker.sp_depth - 1 then fail "sp");
  if
    Labels.check_node strings
      ~parent:(if parent < 0 then None else Some nbr.(parent).base.Marker.strings)
      ~children:(Array.of_list (List.map (fun p -> nbr.(p).base.Marker.strings) children))
      ~is_root
    <> []
  then fail "rs-eps";
  (* pieces present exactly where the strings say *)
  if Array.length l.pieces <> strings.Labels.len then fail "pieces-len"
  else
    for j = 0 to strings.Labels.len - 1 do
      let belongs = strings.Labels.roots.(j) <> Labels.RStar in
      let has = l.pieces.(j) <> None in
      let is_top_level = j = strings.Labels.len - 1 in
      if belongs && (not is_top_level) && not has then fail "piece-missing";
      if (not belongs) && has then fail "piece-spurious";
      (* root identity (Claim 8.3 analogue, instant here) *)
      match l.pieces.(j) with
      | Some pc ->
          if pc.Pieces.level <> j then fail "piece-level";
          if strings.Labels.roots.(j) = Labels.R1 && pc.Pieces.root_id <> Graph.id g v then
            fail "piece-root"
      | None -> ()
    done;
  (* per level: agreement, C1 and C2 against every neighbour, instantly *)
  let ell = strings.Labels.len - 1 in
  for j = 0 to ell - 1 do
    match (if j < Array.length l.pieces then l.pieces.(j) else None) with
    | None -> ()
    | Some ask ->
        (* C1 *)
        let endp = strings.Labels.endp.(j) in
        (match endp with
        | Labels.Up | Labels.Down -> (
            let target =
              match endp with
              | Labels.Up -> if parent < 0 then None else Some parent
              | Labels.Down ->
                  List.find_opt
                    (fun c ->
                      let sc = nbr.(c).base.Marker.strings in
                      j < sc.Labels.len && sc.Labels.parents.(j))
                    children
              | Labels.ENone | Labels.EStar -> None
            in
            match target with
            | None -> fail "c1-endpoint"
            | Some p ->
                let w =
                  Weight.make ~base:(Graph.weight_at g v p) ~in_tree:true
                    ~id_u:(Graph.id g v) ~id_v:(Graph.id g (Graph.peer_at g v p))
                in
                if not (Weight.equal ask.Pieces.weight w) then fail "c1-weight";
                let lu = nbr.(p) in
                let same =
                  match lu.pieces.(j) with
                  | exception Invalid_argument _ -> false
                  | Some pu -> pu.Pieces.root_id = ask.Pieces.root_id
                  | None -> false
                in
                if same then fail "c1-not-outgoing")
        | Labels.ENone | Labels.EStar -> ());
        (* C2 + agreement with every neighbour *)
        Graph.iter_ports g v (fun p u ->
            let lu = nbr.(p) in
            let pu = if j < Array.length lu.pieces then lu.pieces.(j) else None in
            let in_tree = p = parent || List.mem p children in
            match pu with
            | Some pu when pu.Pieces.root_id = ask.Pieces.root_id ->
                if not (Pieces.equal pu ask) then fail "agreement"
            | Some _ | None ->
                let w =
                  Weight.make ~base:(Graph.weight_at g v p) ~in_tree
                    ~id_u:(Graph.id g v) ~id_v:(Graph.id g u)
                in
                if not Weight.(ask.Pieces.weight <= w) then fail "c2")
  done;
  List.rev !bad

let check_node (t : t) v =
  let g = t.marker.graph in
  check_node_with t.marker ~own:t.labels.(v) (fun p -> t.labels.(Graph.peer_at g v p)) v

let accepts t =
  let n = Graph.n t.marker.graph in
  let rec go v = v >= n || (check_node t v = [] && go (v + 1)) in
  go 0

let rejecting_nodes t =
  let n = Graph.n t.marker.graph in
  List.filter (fun v -> check_node t v <> []) (List.init n Fun.id)

(* The KKP side of the Section 9 trade-off experiment: label bits Θ(log² n),
   detection time 1 (a single round suffices on negative instances). *)
let measure_lower_bound ~seed ~h ~tau ~positive =
  let g, _, m = Lower_bound.instance ~seed ~h ~tau ~positive in
  let kkp = mark m in
  let rejected = not (accepts kkp) in
  ( {
      Lower_bound.h;
      tau;
      n = Graph.n g;
      label_bits = max_bits kkp;
      detection_rounds = (if positive then None else if rejected then Some 1 else None);
    },
    rejected )
