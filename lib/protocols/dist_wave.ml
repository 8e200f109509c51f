open Ssmst_graph
open Ssmst_sim

(* Register-level Wave&Echo, per the shared-memory implementation notes of
   Section 4.2.

   A node does not store its children list: it finds its children by
   scanning its neighbours for nodes whose parent pointer names it, and it
   reads their ECHO variables directly.  The paper's precaution is
   implemented literally: before posting a wave, the initiator posts a
   reset request (a new sequence number), and a node joins wave [q] only
   after its own children have adopted [q], so stale ECHO values are never
   aggregated.

   The protocol computes, for the root of every tree of the forest, the
   aggregate of a command over its tree: each node combines its own value
   with its children's echoes.  Used to validate the functional
   {!Wave_echo} cost model against a genuine protocol execution. *)

type phase = Idle | Waving | Echoed

type state = {
  parent : int;  (* node index of the parent; -1 at a root; fixed *)
  seq : int;  (* wave sequence the node is participating in *)
  phase : phase;
  echo : int;  (* the ECHO variable: valid when phase = Echoed *)
  value : int;  (* this node's own contribution; fixed *)
  result : int option;  (* at roots: aggregate of the completed wave *)
}

module type CONFIG = sig
  val parent : int array  (* the forest; -1 at roots *)
  val value : int -> int  (* per-node contribution *)
  val combine : int -> int -> int  (* associative-commutative aggregation *)
end

module Make (C : CONFIG) = struct
  type nonrec state = state

  let init _g v =
    {
      parent = C.parent.(v);
      (* roots start wave 1 so that idle nodes (at seq 0) join it *)
      seq = (if C.parent.(v) < 0 then 1 else 0);
      phase = (if C.parent.(v) < 0 then Waving else Idle);
      echo = 0;
      value = C.value v;
      result = None;
    }

  (* the ports of the neighbours whose parent pointer names [v] *)
  let children g v read =
    Graph.fold_ports g v (fun acc p _ -> if (read p).parent = v then p :: acc else acc) []
    |> List.rev

  (* the port of the parent edge, or -1 at a root or off-graph parent *)
  let parent_port g v (s : state) =
    if s.parent >= 0 && Graph.has_edge g v s.parent then Graph.port_to g v s.parent else -1

  let step g v (s : state) read =
    let kids = children g v read in
    let is_root = s.parent < 0 in
    let pp = parent_port g v s in
    match s.phase with
    | Idle ->
        (* join the parent's wave once it is ahead of us *)
        if (not is_root) && pp >= 0 then begin
          let p = read pp in
          if p.phase = Waving && p.seq > s.seq then { s with seq = p.seq; phase = Waving }
          else s
        end
        else s
    | Waving ->
        (* aggregate once every child has echoed this wave *)
        let all_echoed =
          List.for_all
            (fun c ->
              let sc = read c in
              sc.seq = s.seq && sc.phase = Echoed)
            kids
        in
        if all_echoed then begin
          let agg =
            List.fold_left (fun acc c -> C.combine acc (read c).echo) s.value kids
          in
          if is_root then
            (* wave complete: record the result, reset for the next wave *)
            { s with phase = Waving; seq = s.seq + 1; result = Some agg }
          else { s with phase = Echoed; echo = agg }
        end
        else s
    | Echoed ->
        (* wait for the parent to start the next wave *)
        if (not is_root) && pp >= 0 then begin
          let p = read pp in
          if p.seq > s.seq then { s with seq = p.seq; phase = Waving } else s
        end
        else s

  let alarm _ = false

  let equal (a : state) (b : state) = a = b

  let bits _g _v s =
    Memory.of_int s.parent + Memory.of_nat s.seq + 2 + Memory.of_int s.echo
    + Memory.of_int s.value
    + Memory.of_option Memory.of_int s.result

  let corrupt st _ _ s =
    { s with seq = Random.State.int st 16; echo = Random.State.int st 1024 }

  let corrupt_field st _ _ s =
    if Random.State.bool st then { s with seq = Random.State.int st 16 }
    else { s with echo = Random.State.int st 1024 }

  let field_names = [| "parent"; "seq"; "phase"; "echo"; "value"; "result" |]

  let encode s =
    [|
      s.parent;
      s.seq;
      (match s.phase with Idle -> 0 | Waving -> 1 | Echoed -> 2);
      s.echo;
      s.value;
      Protocol.hash_field s.result;
    |]
end
