open Ssmst_graph
open Ssmst_sim

(* The causal-explain walk: from an alarm-raising register write backwards
   through the provenance DAG to the fault injection that seeded it.

   Vertices are recorded writes; the in-edges of a write are the writes
   that produced the registers its activation read (one per read port,
   resolved to the *last* write of that neighbour visible to the read) plus
   the last write to the node's own register.  Edge cost is 1 when the
   edge crosses to a different node and 0 along the same node, so the
   shortest-path cost from an alarm back to a fault is exactly the number
   of graph hops the corruption travelled — the quantity the paper bounds
   by O(f log n) (Section 2.4), which makes the path a checkable witness
   for the detection-distance monitor.  A 0/1-BFS (deque Dijkstra) finds
   it in O(|writes| + edges). *)

type write = {
  seq : int;  (* position in recording order *)
  round : int;
  node : int;
  cause : Trace.cause;
  changes : Trace.change list;
}

type hop = { round : int; node : int; fields : string list }
(* one write on the witness path, oldest (the fault) printed first *)

type path = {
  fault : Fault.id;  (* the injection the chain terminates at *)
  hops : hop list;  (* fault first, alarm write last *)
  node_changes : int;  (* graph hops travelled: the monitored distance *)
}

type error =
  | No_such_write  (* target (node, round) matches no recorded write *)
  | Broken_chain of { reached : int }
      (* backward closure exhausted after visiting [reached] writes without
         meeting a [Fault] cause: deltas were dropped, or the alarm
         predates recording *)

let error_to_string = function
  | No_such_write -> "no recorded write matches the requested alarm"
  | Broken_chain { reached } ->
      Fmt.str "provenance chain broken: %d ancestor writes reach no fault injection" reached

(* [explain g writes ~target] walks backwards from [writes.(target)].
   A read is resolved under the synchronous rule: an activation of round
   r reads the round r-1 snapshot, so its ancestors satisfy [round < r]. *)
let explain g (writes : write array) ~target =
  let nw = Array.length writes in
  if target < 0 || target >= nw then Error No_such_write
  else begin
    (* per-node write sequence, ascending seq *)
    let by_node = Hashtbl.create 64 in
    Array.iter
      (fun (w : write) ->
        let l = try Hashtbl.find by_node w.node with Not_found -> [] in
        Hashtbl.replace by_node w.node (w.seq :: l))
      writes;
    let seqs_of v =
      match Hashtbl.find_opt by_node v with
      | None -> [||]
      | Some l -> Array.of_list (List.rev l)
    in
    let node_seqs = Hashtbl.create 64 in
    let seqs v =
      match Hashtbl.find_opt node_seqs v with
      | Some a -> a
      | None ->
          let a = seqs_of v in
          Hashtbl.add node_seqs v a;
          a
    in
    (* the last write to [v] the reader of [w] could have seen *)
    let visible_ancestor v ~reader_round =
      let a = seqs v in
      let ok s = writes.(s).round < reader_round in
      (* binary search for the last ok entry *)
      let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        if ok a.(mid) then begin
          best := a.(mid);
          lo := mid + 1
        end
        else hi := mid - 1
      done;
      if !best < 0 then None else Some !best
    in
    (* 0/1-BFS backwards: dist.(s) = graph hops from the target write *)
    let dist = Array.make nw max_int in
    let next = Array.make nw (-1) in  (* towards the target, i.e. the successor *)
    let deque = ref [ target ] and back = ref [] in
    dist.(target) <- 0;
    let pop () =
      match !deque with
      | x :: rest ->
          deque := rest;
          Some x
      | [] -> (
          match List.rev !back with
          | [] -> None
          | x :: rest ->
              deque := rest;
              back := [];
              Some x)
    in
    let push_front s = deque := s :: !deque in
    let push_back s = back := s :: !back in
    let found = ref None in
    let visited = ref 0 in
    let rec loop () =
      match pop () with
      | None -> ()
      | Some s when !found <> None && dist.(s) > dist.(Option.get !found) -> loop ()
      | Some s ->
          incr visited;
          let w = writes.(s) in
          (match w.cause with
          | Trace.Fault _ ->
              (match !found with
              | Some f when dist.(f) <= dist.(s) -> ()
              | _ -> found := Some s)
          | Trace.Init -> ()  (* a non-fault terminal: stop this branch *)
          | Trace.Neighbor_read ports ->
              let relax v cost =
                match visible_ancestor v ~reader_round:w.round with
                | None -> ()
                | Some a ->
                    if dist.(s) + cost < dist.(a) then begin
                      dist.(a) <- dist.(s) + cost;
                      next.(a) <- s;
                      if cost = 0 then push_front a else push_back a
                    end
              in
              relax w.node 0;
              List.iter (fun p -> relax (Graph.peer_at g w.node p) 1) ports);
          loop ()
    in
    loop ();
    match !found with
    | None -> Error (Broken_chain { reached = !visited })
    | Some f ->
        let fault =
          match writes.(f).cause with Trace.Fault id -> id | _ -> assert false
        in
        (* walk forward from the fault to the alarm write *)
        let rec collect s acc =
          let w = writes.(s) in
          let hop =
            { round = w.round; node = w.node; fields = List.map (fun c -> c.Trace.field) w.changes }
          in
          if s = target then List.rev (hop :: acc)
          else collect next.(s) (hop :: acc)
        in
        Ok { fault; hops = collect f []; node_changes = dist.(f) }
  end
