open Ssmst_graph
open Ssmst_core

(* Direct unit tests of the train protocol (Section 7.1), driven by hand
   over single parts extracted from marked instances. *)

let marked seed n =
  let st = Gen.rng seed in
  Marker.run (Gen.random_connected st n)

(* A standalone synchronous executor for one part's train. *)
type sim = {
  part : Partition.part;
  labels : (int -> Partition.node_part_label);
  tree : Tree.t;
  mutable states : (int * Train.state) list;  (* node -> state *)
}

let mk_sim (m : Marker.t) (part : Partition.part) =
  let which = part.Partition.kind in
  let labels v =
    if which = `Top then m.assignment.Partition.top_label.(v)
    else m.assignment.Partition.bot_label.(v)
  in
  {
    part;
    labels;
    tree = m.tree;
    states = List.map (fun v -> (v, Train.init)) part.Partition.members;
  }

let state_of sim v = List.assoc v sim.states

let sync_round (m : Marker.t) sim ~member_flags =
  let in_part v = List.mem_assoc v sim.states in
  let snapshot = sim.states in
  let read v = List.assoc v snapshot in
  let g = m.graph in
  (* the context of a node's step is the node itself *)
  let side =
    {
      Train.part = sim.labels;
      train = read;
      flag_rule =
        (fun v (pc : Pieces.t) ~parent_flag ->
          let strings = m.labels.(v).Marker.strings in
          if pc.Pieces.level >= strings.Labels.len then false
          else
            match strings.Labels.roots.(pc.Pieces.level) with
            | Labels.R1 -> Graph.id g v = pc.Pieces.root_id
            | Labels.R0 -> parent_flag
            | Labels.RStar -> false);
      member = (fun _ (pc : Pieces.t) ~flag -> if member_flags then flag else pc.Pieces.level >= 0);
      ordered = false;
    }
  in
  let new_states =
    List.map
      (fun (v, st) ->
        let lbl = sim.labels v in
        let nbr =
          match Tree.parent sim.tree v with Some p when in_part p -> [| p |] | Some _ | None -> [||]
        in
        let children = Array.of_list (List.filter in_part (Tree.children sim.tree v)) in
        ( v,
          Train.step side v ~lbl ~required:0 ~nbr ~pport:(Array.length nbr - 1) ~children
            ~hold:false st ))
      sim.states
  in
  sim.states <- new_states

(* every node of the part sees every piece index within O(k + D) rounds *)
let test_full_delivery () =
  let m = marked 2200 48 in
  Array.iter
    (fun (part : Partition.part) ->
      let k = Array.length part.Partition.pieces in
      if k > 0 then begin
        let sim = mk_sim m part in
        let seen = Hashtbl.create 16 in
        let budget = 6 * (k + part.Partition.diameter + 4) in
        for _ = 1 to budget do
          sync_round m sim ~member_flags:false;
          List.iter
            (fun (v, (st : Train.state)) ->
              match st.Train.bc with
              | Some c -> Hashtbl.replace seen (v, c.Train.idx) ()
              | None -> ())
            sim.states
        done;
        List.iter
          (fun v ->
            for i = 0 to k - 1 do
              if not (Hashtbl.mem seen (v, i)) then
                Alcotest.failf "part %d: node %d never saw piece %d of %d (budget %d)"
                  part.Partition.id v i k budget
            done)
          part.Partition.members
      end)
    m.assignment.Partition.parts

(* pieces arrive at every node in cyclic index order once warmed up *)
let test_cyclic_order () =
  let m = marked 2201 32 in
  let part =
    Array.to_list m.assignment.Partition.parts
    |> List.filter (fun (p : Partition.part) -> Array.length p.Partition.pieces >= 3)
    |> List.hd
  in
  let k = Array.length part.Partition.pieces in
  let sim = mk_sim m part in
  (* warm up one full cycle, then record transitions *)
  for _ = 1 to 4 * (k + part.Partition.diameter + 4) do
    sync_round m sim ~member_flags:false
  done;
  let last = Hashtbl.create 8 in
  for _ = 1 to 4 * (k + part.Partition.diameter + 4) do
    sync_round m sim ~member_flags:false;
    List.iter
      (fun (v, (st : Train.state)) ->
        match st.Train.bc with
        | Some c ->
            (match Hashtbl.find_opt last v with
            | Some prev when prev <> c.Train.idx ->
                Alcotest.(check int)
                  (Fmt.str "node %d: consecutive delivery" v)
                  ((prev + 1) mod k) c.Train.idx
            | _ -> ());
            Hashtbl.replace last v c.Train.idx
        | None -> ())
      sim.states
  done

(* membership flags: flagged deliveries at a node happen exactly for the
   bottom fragments containing it *)
let test_flags () =
  let m = marked 2202 40 in
  let g = m.graph in
  Array.iter
    (fun (part : Partition.part) ->
      if part.Partition.kind = `Bottom && Array.length part.Partition.pieces > 0 then begin
        let sim = mk_sim m part in
        let flagged = Hashtbl.create 16 in
        for _ = 1 to 8 * (Array.length part.Partition.pieces + part.Partition.diameter + 4) do
          sync_round m sim ~member_flags:true;
          List.iter
            (fun (v, (st : Train.state)) ->
              match st.Train.bc with
              | Some c when c.Train.flag ->
                  Hashtbl.replace flagged (v, c.Train.piece.Pieces.root_id, c.Train.piece.Pieces.level) ()
              | _ -> ())
            sim.states
        done;
        (* expected: v gets flag for piece of F iff v in F *)
        List.iter
          (fun v ->
            Array.iter
              (fun (pc : Pieces.t) ->
                let f =
                  Array.to_list m.hierarchy.Fragment.frags
                  |> List.find_opt (fun (f : Fragment.t) ->
                         f.Fragment.level = pc.Pieces.level
                         && Graph.id g f.Fragment.root = pc.Pieces.root_id)
                in
                match f with
                | Some f ->
                    let expected = Fragment.mem f v in
                    let got = Hashtbl.mem flagged (v, pc.Pieces.root_id, pc.Pieces.level) in
                    Alcotest.(check bool)
                      (Fmt.str "flag for F@%d at node %d" pc.Pieces.level v)
                      expected got
                | None -> Alcotest.fail "piece without fragment")
              part.Partition.pieces)
          part.Partition.members
      end)
    m.assignment.Partition.parts

(* cycle time is O(k + D): measure rounds per full cycle at the root *)
let test_cycle_time () =
  let m = marked 2203 64 in
  Array.iter
    (fun (part : Partition.part) ->
      let k = Array.length part.Partition.pieces in
      if k >= 2 then begin
        let sim = mk_sim m part in
        (* warm up *)
        for _ = 1 to 4 * (k + part.Partition.diameter + 4) do
          sync_round m sim ~member_flags:false
        done;
        (* time wraps at the root *)
        let root = part.Partition.root in
        let wraps = ref 0 and rounds = ref 0 in
        let budget = 20 * (k + part.Partition.diameter + 4) in
        let last = ref (-1) in
        while !wraps < 3 && !rounds < budget do
          sync_round m sim ~member_flags:false;
          incr rounds;
          (match (state_of sim root).Train.bc with
          | Some c ->
              if c.Train.idx = 0 && !last <> 0 then incr wraps;
              last := c.Train.idx
          | None -> ())
        done;
        Alcotest.(check bool)
          (Fmt.str "part %d: 3 cycles within %d rounds (k=%d D=%d)" part.Partition.id budget k
             part.Partition.diameter)
          true (!wraps >= 3)
      end)
    m.assignment.Partition.parts

(* self-stabilization: garbage train state is flushed and delivery resumes *)
let test_recovers_from_garbage () =
  let m = marked 2204 32 in
  let part =
    Array.to_list m.assignment.Partition.parts
    |> List.filter (fun (p : Partition.part) -> Array.length p.Partition.pieces >= 2)
    |> List.hd
  in
  let k = Array.length part.Partition.pieces in
  let sim = mk_sim m part in
  for _ = 1 to 2 * (k + part.Partition.diameter + 4) do
    sync_round m sim ~member_flags:false
  done;
  (* corrupt every node's train state *)
  let rng = Gen.rng 2205 in
  sim.states <- List.map (fun (v, st) -> (v, Train.corrupt rng st)) sim.states;
  let seen = Hashtbl.create 16 in
  for _ = 1 to 8 * (k + part.Partition.diameter + 4) do
    sync_round m sim ~member_flags:false;
    List.iter
      (fun (v, (st : Train.state)) ->
        match st.Train.bc with
        | Some c when c.Train.idx < k && Pieces.equal c.Train.piece part.Partition.pieces.(c.Train.idx) ->
            Hashtbl.replace seen (v, c.Train.idx) ()
        | _ -> ())
      sim.states
  done;
  List.iter
    (fun v ->
      for i = 0 to k - 1 do
        Alcotest.(check bool)
          (Fmt.str "node %d re-sees genuine piece %d after corruption" v i)
          true
          (Hashtbl.mem seen (v, i))
      done)
    part.Partition.members

let suite =
  [
    Alcotest.test_case "full delivery in O(k+D)" `Quick test_full_delivery;
    Alcotest.test_case "cyclic index order" `Quick test_cyclic_order;
    Alcotest.test_case "membership flags" `Quick test_flags;
    Alcotest.test_case "cycle time O(k+D)" `Quick test_cycle_time;
    Alcotest.test_case "recovers from garbage state" `Quick test_recovers_from_garbage;
  ]
