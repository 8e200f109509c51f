(* Rooted spanning trees represented distributively by *components* (Section
   2.1): each node stores at most one pointer (a port number) to its chosen
   neighbour.  The induced subgraph H(G) contains an edge iff at least one
   endpoint points at the other.

   A [t] value is the *validated* rooted-tree view: parent array with
   [parent.(root) = -1], children lists, depths, and traversal orders.  The
   raw component array is the on-network representation that verification
   algorithms must not trust. *)

type component = int option array
(* component.(v) = Some p: node v points through its port p; None: no pointer *)

type t = {
  graph : Graph.t;
  root : int;
  parent : int array;  (* parent.(root) = -1 *)
  children : int list array;  (* in increasing port order at the parent *)
  depth : int array;
}

let graph t = t.graph
let root t = t.root
let parent t v = if t.parent.(v) < 0 then None else Some t.parent.(v)
let children t v = t.children.(v)
let depth t v = t.depth.(v)
let n t = Graph.n t.graph

let is_tree_edge t u v = t.parent.(u) = v || t.parent.(v) = u

let height t = Array.fold_left max 0 t.depth

(* Build the rooted view from a parent array.  Checks that the parent
   pointers form a single tree spanning the graph and follow graph edges. *)
let of_parents graph parent =
  let n = Graph.n graph in
  if Array.length parent <> n then invalid_arg "Tree.of_parents: length";
  let root = ref (-1) in
  Array.iteri
    (fun v p ->
      if p < 0 then begin
        if !root >= 0 then raise (Graph.Malformed "two roots");
        root := v
      end
      else if not (Graph.has_edge graph v p) then raise (Graph.Malformed "parent not a neighbour"))
    parent;
  if !root < 0 then raise (Graph.Malformed "no root");
  let root = !root in
  let children = Array.make n [] in
  Array.iteri (fun v p -> if p >= 0 then children.(p) <- v :: children.(p)) parent;
  (* order children by the port number at the parent, for deterministic DFS *)
  Array.iteri
    (fun v cs ->
      children.(v) <- List.sort (fun a b -> Int.compare (Graph.port_to graph v a) (Graph.port_to graph v b)) cs)
    children;
  let depth = Array.make n (-1) in
  let count = ref 0 in
  let rec dfs v d =
    if depth.(v) >= 0 then raise (Graph.Malformed "cycle in parents");
    depth.(v) <- d;
    incr count;
    List.iter (fun c -> dfs c (d + 1)) children.(v)
  in
  dfs root 0;
  if !count <> n then raise (Graph.Malformed "parents do not span the graph");
  { graph; root; parent; children; depth }

(* Interpret a raw component array per the paper: H(G) has edge (u,v) iff u
   points at v or v points at u.  Returns the rooted tree if H(G) is a
   spanning tree (rooting rule of Example SP: the pointerless node is the
   root; otherwise one of the two mutually-pointing nodes, the higher ID). *)
let of_components graph (c : component) =
  let n = Graph.n graph in
  let target v = Option.map (fun p -> Graph.peer_at graph v p) c.(v) in
  (* Find the root per Example SP. *)
  let root =
    let no_ptr = ref [] in
    for v = n - 1 downto 0 do
      if c.(v) = None then no_ptr := v :: !no_ptr
    done;
    match !no_ptr with
    | [ v ] -> v
    | _ :: _ :: _ -> raise (Graph.Malformed "several pointerless nodes")
    | [] ->
        (* look for a mutually-pointing pair; root at the higher-ID end *)
        let found = ref (-1) in
        for v = 0 to n - 1 do
          match target v with
          | Some u when target u = Some v && !found < 0 ->
              found := if Graph.id graph v >= Graph.id graph u then v else u
          | _ -> ()
        done;
        if !found < 0 then raise (Graph.Malformed "no root candidate") else !found
  in
  let parent = Array.make n (-1) in
  Array.iteri
    (fun v _ -> if v <> root then
      match target v with
      | Some u -> parent.(v) <- u
      | None -> raise (Graph.Malformed "non-root without pointer"))
    c;
  of_parents graph parent

(* The distributive representation of this tree: every non-root node points
   at its parent through the corresponding port. *)
let to_components t : component =
  Array.init (n t) (fun v ->
      if t.parent.(v) < 0 then None else Some (Graph.port_to t.graph v t.parent.(v)))

let tree_edges t =
  let acc = ref [] in
  Array.iteri (fun v p -> if p >= 0 then acc := (v, p) :: !acc) t.parent;
  !acc

(* Pre-order DFS numbering (children in port order), as used for placing
   train pieces (Section 6.2). *)
let dfs_order t =
  let order = ref [] in
  let rec go v =
    order := v :: !order;
    List.iter go t.children.(v)
  in
  go t.root;
  List.rev !order

let subtree_sizes t =
  let size = Array.make (n t) 1 in
  let rec go v =
    List.iter
      (fun c ->
        go c;
        size.(v) <- size.(v) + size.(c))
      t.children.(v);
  in
  go t.root;
  size

let total_base_weight t =
  List.fold_left (fun acc (v, p) -> acc + Graph.base_weight t.graph v p) 0 (tree_edges t)

let pp ppf t =
  Fmt.pf ppf "tree root=%d" t.root;
  List.iter (fun (v, p) -> Fmt.pf ppf "@ %d->%d" v p) (tree_edges t)
