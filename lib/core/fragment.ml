open Ssmst_graph

(* Fragments and fragment hierarchies (Definitions 5.1 and 5.2).

   A fragment is a connected subtree of the spanning tree T.  A hierarchy H
   for T is a laminar family of fragments containing T and every singleton;
   it forms a rooted tree (the hierarchy-tree) under inclusion.  Each
   non-whole fragment carries a *candidate* edge; a candidate function is
   one where every fragment's edge set is exactly the candidates of its
   strict descendants.  Lemma 5.1: if additionally every candidate is a
   minimum outgoing edge, T is an MST. *)

type t = {
  index : int;  (* position in the hierarchy array *)
  level : int;  (* the phase at which SYNC_MST had the fragment active; T gets the top level *)
  root : int;  (* node index of the fragment root (closest to the root of T) *)
  members : int array;  (* sorted node indices *)
  candidate : (int * int) option;  (* (w, x): w inside, the selected outgoing edge; None for T *)
  parent : int;  (* hierarchy-tree parent index, -1 for T *)
  children : int list;  (* hierarchy-tree children indices *)
}

type hierarchy = {
  tree : Tree.t;
  frags : t array;
  whole : int;  (* index of the fragment equal to T *)
  height : int;  (* ell: the level of T; strings have height+1 entries *)
  of_node : int list array;  (* per node: containing fragment indices, by increasing level *)
}

let size f = Array.length f.members
let mem f v =
  let rec bin lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if f.members.(mid) = v then true else if f.members.(mid) < v then bin (mid + 1) hi else bin lo mid
  in
  bin 0 (Array.length f.members)

(* The fragment identity of Section 6: ID(F) = ID(r(F)) composed with
   lev(F). *)
let ident (g : Graph.t) f = (Graph.id g f.root, f.level)

(* Fragment of level [j] containing node [v], if any. *)
let at h v j = List.find_opt (fun i -> h.frags.(i).level = j) h.of_node.(v) |> Option.map (fun i -> h.frags.(i))

(* Levels at which [v] belongs to a fragment: the set J(v) of Section 8. *)
let levels_of h v = List.map (fun i -> h.frags.(i).level) h.of_node.(v)

(* Build a hierarchy from raw records [(level, root, members, candidate)].
   Computes hierarchy-tree parents as minimal strict containers, validates
   laminarity, presence of T and all singletons, strictly increasing levels
   along containment chains, and candidate edges being outgoing tree
   edges. *)
let build (tree : Tree.t) records =
  let g = Tree.graph tree in
  let n = Graph.n g in
  let records =
    List.map
      (fun (level, _operational_root, members, candidate) ->
        let members = Array.of_list (List.sort_uniq Int.compare members) in
        (* The fragment root in the sense of Section 5.1 is the member
           closest to the root of T.  SYNC_MST's operational root may differ
           after later phases re-orient edges inside the fragment. *)
        let root =
          Array.fold_left
            (fun best v -> if Tree.depth tree v < Tree.depth tree best then v else best)
            members.(0) members
        in
        (level, root, members, candidate))
      records
    |> List.sort (fun (l1, _, m1, _) (l2, _, m2, _) ->
           let c = Int.compare (Array.length m1) (Array.length m2) in
           if c <> 0 then c else Int.compare l1 l2)
  in
  let count = List.length records in
  let arr =
    Array.of_list
      (List.mapi
         (fun index (level, root, members, candidate) ->
           { index; level; root; members; candidate; parent = -1; children = [] })
         records)
  in
  (* whole fragment: the unique one with all n members *)
  let whole =
    match Array.to_list arr |> List.filter (fun f -> size f = n) with
    | [ f ] -> f.index
    | _ -> raise (Graph.Malformed "hierarchy: no unique whole fragment")
  in
  (* singletons for every node *)
  let single = Array.make n false in
  Array.iter (fun f -> if size f = 1 then single.(f.members.(0)) <- true) arr;
  if not (Array.for_all Fun.id single) then
    raise (Graph.Malformed "hierarchy: missing singleton fragment");
  (* laminarity + parents: since sorted by size, the parent of f is the
     first later fragment containing f's first member and all of f *)
  let subset a b = Array.for_all (fun x -> mem b x) a.members in
  let arr =
    Array.map
      (fun f ->
        if f.index = whole then f
        else begin
          let rec seek i =
            if i >= count then raise (Graph.Malformed "hierarchy: fragment with no container")
            else if arr.(i) != f && size arr.(i) > size f && mem arr.(i) f.members.(0) then
              if subset f arr.(i) then i
              else raise (Graph.Malformed "hierarchy: not laminar")
            else seek (i + 1)
          in
          { f with parent = seek (f.index + 1) }
        end)
      arr
  in
  (* strictness of levels along containment *)
  Array.iter
    (fun f ->
      if f.parent >= 0 && arr.(f.parent).level <= f.level then
        raise (Graph.Malformed "hierarchy: level not increasing"))
    arr;
  let children = Array.make count [] in
  Array.iter (fun f -> if f.parent >= 0 then children.(f.parent) <- f.index :: children.(f.parent)) arr;
  let arr = Array.map (fun f -> { f with children = List.rev children.(f.index) }) arr in
  (* candidate edges must be outgoing tree edges (except for T) *)
  Array.iter
    (fun f ->
      match f.candidate with
      | None -> if f.index <> whole then raise (Graph.Malformed "hierarchy: missing candidate")
      | Some (w, x) ->
          if f.index = whole then raise (Graph.Malformed "hierarchy: candidate on T");
          if not (mem f w) || mem f x then raise (Graph.Malformed "hierarchy: candidate not outgoing");
          if not (Tree.is_tree_edge tree w x) then
            raise (Graph.Malformed "hierarchy: candidate not a tree edge"))
    arr;
  let of_node = Array.make n [] in
  Array.iter (fun f -> Array.iter (fun v -> of_node.(v) <- f.index :: of_node.(v)) f.members) arr;
  Array.iteri
    (fun v l ->
      of_node.(v) <- List.sort (fun a b -> Int.compare arr.(a).level arr.(b).level) l)
    of_node;
  (* verify connectivity of every fragment within T *)
  Array.iter
    (fun f ->
      let inside = Array.make n false in
      Array.iter (fun v -> inside.(v) <- true) f.members;
      let seen = Array.make n false in
      let rec go v =
        seen.(v) <- true;
        List.iter (fun c -> if inside.(c) && not seen.(c) then go c) (Tree.children tree v);
        match Tree.parent tree v with
        | Some p when inside.(p) && not seen.(p) -> go p
        | _ -> ()
      in
      go f.root;
      Array.iter (fun v -> if not seen.(v) then raise (Graph.Malformed "hierarchy: fragment not connected"))
        f.members)
    arr;
  { tree; frags = arr; whole; height = arr.(whole).level; of_node }

(* The Well-Forming property P1 plus candidate-function validity
   (Definition 5.2): every fragment's edges are exactly the candidates of
   its strict descendants. *)
let well_formed h =
  try
    let ok = ref true in
    Array.iter
      (fun f ->
        (* candidates of all strict descendants of f in the hierarchy-tree *)
        let rec descend acc i =
          let fr = h.frags.(i) in
          let acc = List.fold_left descend acc fr.children in
          if i <> f.index then
            match fr.candidate with
            | Some (w, x) -> (min w x, max w x) :: acc
            | None ->
                ok := false;
                acc
          else acc
        in
        let cands = descend [] f.index |> List.sort_uniq compare in
        let edges =
          Array.to_list f.members
          |> List.filter_map (fun v ->
                 match Tree.parent h.tree v with
                 | Some p when mem f p -> Some (min v p, max v p)
                 | _ -> None)
          |> List.sort_uniq compare
        in
        if cands <> edges then ok := false)
      h.frags;
    !ok
  with Graph.Malformed _ -> false

(* The Minimality property P2: every candidate is a minimum outgoing edge of
   its fragment under [w]. *)
let minimal h (w : Mst.weight_fn) =
  let g = Tree.graph h.tree in
  Array.for_all
    (fun f ->
      match f.candidate with
      | None -> f.index = h.whole
      | Some (a, b) -> (
          match Mst.min_outgoing g w ~in_set:(mem f) with
          | Some (_, _, best) -> Weight.equal (w a b) best
          | None -> false))
    h.frags

(* Lemma 5.1 in executable form. *)
let implies_mst h w = well_formed h && minimal h w
