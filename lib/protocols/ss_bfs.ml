open Ssmst_graph
open Ssmst_sim

(* Self-stabilizing leader election + BFS spanning tree (the [1, 28]-style
   module used by the enhanced transformer, Section 10).

   Every node maintains (leader, dist, parent).  A node whose identity beats
   every neighbour's leader claims leadership; otherwise it adopts the best
   (max leader, min dist) neighbour as parent.  Fake leader identities left
   over from an arbitrary initial state are flushed by the distance bound
   [n]: a chain supporting a non-existent leader must keep growing its
   distance and dies when it exceeds the bound.  The bound is supplied by
   the network-size module of the transformer (the paper's [1, 28] obtain it
   without an a-priori bound; we pass the true n, which those modules
   compute).  Stabilizes in O(n) rounds with O(log n) bits per node. *)

type state = {
  leader : int;  (* identity of the believed leader *)
  dist : int;  (* hop distance to that leader *)
  parent : int;  (* node index of the parent, -1 for the root *)
}

module P = struct
  type nonrec state = state

  let init g v = { leader = Graph.id g v; dist = 0; parent = -1 }

  let step g v (_self : state) read =
    let n = Graph.n g in
    let my_id = Graph.id g v in
    (* best (leader, dist) among neighbours with a legal distance, the
       first port winning ties; one read per port, [bp < 0] while none *)
    let bl = ref 0 and bd = ref 0 and bp = ref (-1) in
    for p = 0 to Graph.degree g v - 1 do
      let s = read p in
      if s.dist < n && (!bp < 0 || s.leader > !bl || (s.leader = !bl && s.dist < !bd)) then begin
        bl := s.leader;
        bd := s.dist;
        bp := p
      end
    done;
    if !bp >= 0 && !bl > my_id then
      { leader = !bl; dist = !bd + 1; parent = Graph.peer_at g v !bp }
    else { leader = my_id; dist = 0; parent = -1 }

  let alarm _ = false

  let equal (a : state) (b : state) =
    a.leader = b.leader && a.dist = b.dist && a.parent = b.parent

  let bits _g _v s = Memory.of_int s.leader + Memory.of_int s.dist + Memory.of_int s.parent

  let corrupt st g _v _s =
    {
      leader = Random.State.int st (4 * Graph.n g);
      dist = Random.State.int st (2 * Graph.n g);
      parent = Random.State.int st (Graph.n g) - 1;
    }

  let corrupt_field st g _v s =
    match Random.State.int st 3 with
    | 0 -> { s with leader = Random.State.int st (4 * Graph.n g) }
    | 1 -> { s with dist = Random.State.int st (2 * Graph.n g) }
    | _ -> { s with parent = Random.State.int st (Graph.n g) - 1 }

  let field_names = [| "leader"; "dist"; "parent" |]
  let encode s = [| s.leader; s.dist; s.parent |]

  (* packed codec: one word per field *)
  let words _ = 3
  let field_offsets _ = [| 0; 1; 2 |]

  let pack _ _ (s : state) buf off =
    buf.(off) <- s.leader;
    buf.(off + 1) <- s.dist;
    buf.(off + 2) <- s.parent

  let unpack _ _ buf off =
    { leader = buf.(off); dist = buf.(off + 1); parent = buf.(off + 2) }
end

module Net = Network.Make (P)

(* Whether the current global state is a correct BFS tree rooted at the
   maximum identity. *)
let stabilized (net : Net.t) =
  let g = Net.graph net in
  let n = Graph.n g in
  let max_id = ref (Graph.id g 0) and max_v = ref 0 in
  for v = 1 to n - 1 do
    if Graph.id g v > !max_id then begin
      max_id := Graph.id g v;
      max_v := v
    end
  done;
  let dist = Dist.bfs g !max_v in
  let ok = ref true in
  for v = 0 to n - 1 do
    let s = Net.state net v in
    if s.leader <> !max_id || s.dist <> dist.(v) then ok := false;
    if v <> !max_v && s.parent >= 0 then
      if not (Graph.has_edge g v s.parent) || dist.(s.parent) <> dist.(v) - 1 then ok := false;
    if v = !max_v && s.parent >= 0 then ok := false;
    if v <> !max_v && s.parent < 0 then ok := false
  done;
  !ok

(* Rounds until stabilization from the current state. *)
let stabilization_time net daemon ~max_rounds =
  let executed, reached = Net.run_until net daemon ~max_rounds (fun n -> stabilized n) in
  if reached then Some executed else None

(* The stabilized output as a rooted tree. *)
let tree (net : Net.t) =
  let g = Net.graph net in
  let parent = Array.init (Graph.n g) (fun v -> (Net.state net v).parent) in
  Tree.of_parents g parent
