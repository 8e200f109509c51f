(* Weighted undirected graphs in the paper's model (Section 2.1):

   - nodes are indexed [0 .. n-1]; each node [v] carries a unique identity
     [ids.(v)] encodable in O(log n) bits;
   - each node numbers its incident edges with local *port numbers*: port [p]
     of node [v] is position [off.(v) + p] in the flat adjacency; port
     numbers at the two endpoints of an edge are independent;
   - edge weights are integers polynomial in n.  Distinct weights are not
     assumed; the lexicographic transform lives in {!weight_fn}.

   The representation is CSR (compressed sparse row): three flat int arrays
   hold every half-edge, so a million-node graph costs a handful of words
   per half-edge instead of a boxed record, two array headers and a Hashtbl
   per node.  Ports keep construction order (the observable numbering is
   unchanged from the edge-list days); a fourth flat array stores each row's
   ports sorted by peer id, which turns [port_to] / [has_edge] /
   [base_weight] into binary searches over the row — O(log deg), cache-warm,
   and allocation-free. *)

type t = {
  n : int;
  ids : int array;
  off : int array;  (* n+1 row offsets: node v's ports live at [off.(v), off.(v+1)) *)
  peers : int array;  (* 2m peer ids, port order *)
  wts : int array;  (* 2m base weights, aligned with [peers] *)
  (* per-row port permutation sorted by peer id: [srt.(off.(v) + k)] is the
     port of v's k-th smallest neighbour — the flat replacement for the
     per-node peer->port Hashtbl *)
  srt : int array;
}

let n t = t.n
let id t v = t.ids.(v)
let degree t v = t.off.(v + 1) - t.off.(v)
let neighbours t v = Array.sub t.peers t.off.(v) (degree t v)

(* Port [p] of [v] is half-edge [off.(v) + p]: one range check against the
   row, then one array load. *)
let peer_at t v p =
  let base = t.off.(v) in
  if p < 0 || p >= t.off.(v + 1) - base then invalid_arg "Graph.port: port out of range";
  t.peers.(base + p)

let weight_at t v p =
  let base = t.off.(v) in
  if p < 0 || p >= t.off.(v + 1) - base then invalid_arg "Graph.port: port out of range";
  t.wts.(base + p)

let csr t = (t.off, t.peers)

(* Zero-allocation iteration over a node's ports: [f port peer] in port
   order.  This is the hot read path of every protocol step. *)
let iter_ports t v f =
  let base = t.off.(v) in
  for p = 0 to t.off.(v + 1) - base - 1 do
    f p t.peers.(base + p)
  done

let fold_ports t v f acc =
  let base = t.off.(v) in
  let acc = ref acc in
  for p = 0 to t.off.(v + 1) - base - 1 do
    acc := f !acc p t.peers.(base + p)
  done;
  !acc

let exists_ports t v pred =
  let base = t.off.(v) in
  let d = t.off.(v + 1) - base in
  let rec go p = p < d && (pred p t.peers.(base + p) || go (p + 1)) in
  go 0

let for_all_ports t v pred =
  let base = t.off.(v) in
  let d = t.off.(v + 1) - base in
  let rec go p = p >= d || (pred p t.peers.(base + p) && go (p + 1)) in
  go 0

let max_degree t =
  let d = ref 0 in
  for v = 0 to t.n - 1 do
    if degree t v > !d then d := degree t v
  done;
  !d

let fold_edges f acc t =
  let acc = ref acc in
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      if u < t.peers.(i) then acc := f !acc u t.peers.(i) t.wts.(i)
    done
  done;
  !acc

let edges t = fold_edges (fun l u v w -> (u, v, w) :: l) [] t |> List.rev
let num_edges t = Array.length t.peers / 2

exception Malformed of string

(* Binary search over the sorted-port row of [u]: the port leading to [v],
   or -1 when the edge does not exist. *)
let port_opt t u v =
  let base = t.off.(u) in
  let lo = ref 0 and hi = ref (t.off.(u + 1) - base - 1) in
  let found = ref (-1) in
  while !found < 0 && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let p = t.srt.(base + mid) in
    let w = t.peers.(base + p) in
    if w = v then found := p else if w < v then lo := mid + 1 else hi := mid - 1
  done;
  !found

let has_edge t u v = port_opt t u v >= 0

let base_weight t u v =
  let p = port_opt t u v in
  if p < 0 then invalid_arg "Graph.base_weight: no such edge";
  t.wts.(t.off.(u) + p)

(* Port number at [u] of the edge leading to [v]. *)
let port_to t u v =
  let p = port_opt t u v in
  if p < 0 then invalid_arg "Graph.port_to: no such edge";
  p

let check_ids ~n = function
  | None -> Array.init n Fun.id
  | Some a ->
      if Array.length a <> n then raise (Malformed "ids length mismatch");
      let sorted = Array.copy a in
      Array.sort Int.compare sorted;
      for i = 1 to n - 1 do
        if sorted.(i) = sorted.(i - 1) then raise (Malformed "duplicate identity")
      done;
      Array.copy a

(* Build from a repeatable edge stream: [emit f] must call [f u v w] once
   per undirected edge, identically on every invocation.  Two passes — a
   degree count and a CSR fill — so million-edge instances are constructed
   with O(m) total memory and no intermediate edge list.  Parallel edges
   are caught after the per-row peer sort (two equal adjacent peers), which
   replaces the global (min,max)->unit Hashtbl of the old edge-list
   builder. *)
let of_stream ?ids ~n emit =
  if n <= 0 then raise (Malformed "empty graph");
  let ids = check_ids ~n ids in
  let deg = Array.make n 0 in
  let m = ref 0 in
  emit (fun u v _w ->
      if u = v then raise (Malformed "self-loop");
      if u < 0 || u >= n || v < 0 || v >= n then raise (Malformed "endpoint out of range");
      deg.(u) <- deg.(u) + 1;
      deg.(v) <- deg.(v) + 1;
      incr m);
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + deg.(v)
  done;
  let half = 2 * !m in
  let peers = Array.make (max 1 half) (-1) and wts = Array.make (max 1 half) 0 in
  let fill = Array.sub off 0 n in
  let seen = ref 0 in
  emit (fun u v w ->
      if
        u = v || u < 0 || u >= n || v < 0 || v >= n
        || !seen >= !m
        || fill.(u) >= off.(u + 1)
        || fill.(v) >= off.(v + 1)
      then raise (Malformed "edge stream changed between passes");
      incr seen;
      peers.(fill.(u)) <- v;
      wts.(fill.(u)) <- w;
      fill.(u) <- fill.(u) + 1;
      peers.(fill.(v)) <- u;
      wts.(fill.(v)) <- w;
      fill.(v) <- fill.(v) + 1);
  if !seen <> !m then raise (Malformed "edge stream changed between passes");
  let srt = Array.make (max 1 half) 0 in
  for v = 0 to n - 1 do
    let base = off.(v) and d = deg.(v) in
    let tmp = Array.init d Fun.id in
    Array.sort (fun a b -> Int.compare peers.(base + a) peers.(base + b)) tmp;
    Array.blit tmp 0 srt base d;
    for k = 1 to d - 1 do
      if peers.(base + tmp.(k)) = peers.(base + tmp.(k - 1)) then
        raise (Malformed "parallel edge")
    done
  done;
  { n; ids; off; peers; wts; srt }

(* Build from an edge list.  Rejects self-loops, parallel edges and
   out-of-range endpoints.  Default identities are the node indices. *)
let of_edges ?ids ~n edge_list =
  of_stream ?ids ~n (fun f -> List.iter (fun (u, v, w) -> f u v w) edge_list)

(* Same topology, identities and port numbers, new weights: the operation a
   link re-pricing performs.  [f u v w] gives the new weight of edge (u,v)
   with current weight [w].  Offsets, peers and the sorted index are shared:
   they only depend on the topology. *)
let reweight t f =
  let wts = Array.make (Array.length t.wts) 0 in
  for u = 0 to t.n - 1 do
    for i = t.off.(u) to t.off.(u + 1) - 1 do
      wts.(i) <- f u t.peers.(i) t.wts.(i)
    done
  done;
  { t with wts }

(* The flat footprint in 64-bit words: ids + offsets + three half-edge
   arrays.  The measured side of the scale experiments' memory story. *)
let storage_words t =
  Array.length t.ids + Array.length t.off + Array.length t.peers + Array.length t.wts
  + Array.length t.srt

(* The distinct-weight function ω′ for a candidate subgraph: [in_tree u v]
   says whether the (undirected) edge (u,v) is claimed to be in the candidate
   tree.  See {!Weight}. *)
let weight_fn t ~in_tree u v =
  Weight.make ~base:(base_weight t u v) ~in_tree:(in_tree u v) ~id_u:t.ids.(u)
    ~id_v:t.ids.(v)

(* ω′ ignoring the tree indicator: used when constructing from scratch, where
   tie-breaking on identities alone already yields a unique MST. *)
let plain_weight_fn t u v =
  Weight.make ~base:(base_weight t u v) ~in_tree:false ~id_u:t.ids.(u) ~id_v:t.ids.(v)

(* Iterative DFS: the recursive version overflows the stack on million-node
   path-like graphs. *)
let is_connected t =
  let seen = Array.make t.n false in
  let stack = ref [ 0 ] in
  seen.(0) <- true;
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | v :: rest ->
        stack := rest;
        for i = t.off.(v) to t.off.(v + 1) - 1 do
          let u = t.peers.(i) in
          if not seen.(u) then begin
            seen.(u) <- true;
            stack := u :: !stack
          end
        done
  done;
  Array.for_all Fun.id seen

(* Index of the node carrying a given identity. *)
let node_of_id t ident =
  let rec go v =
    if v >= t.n then raise Not_found else if t.ids.(v) = ident then v else go (v + 1)
  in
  go 0

let pp ppf t =
  Fmt.pf ppf "graph n=%d m=%d" t.n (num_edges t);
  fold_edges (fun () u v w -> Fmt.pf ppf "@ %d-%d(%d)" u v w) () t
