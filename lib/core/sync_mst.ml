open Ssmst_graph
open Ssmst_protocols

(* SYNC_MST (Section 4): the synchronous MST construction with O(log n) bits
   per node and O(n) ideal time.

   The engine follows the paper's exact phase timetable.  Phase i starts at
   round 11*2^i; Procedure Count_Size (a Wave&Echo with time-to-live
   2^{i+1}-1) decides activity: a root is active iff its count completed and
   |F| <= 2^{i+1}-1 (Definition 4.1).  At round (11+4)*2^i active fragments
   run Find_Min_Out_Edge (all edges tested simultaneously, fragment
   membership decided by comparing root-ID estimates); at round (11+8)*2^i
   active fragments re-orient towards the candidate endpoint and perform the
   pivot handshake; the hooking lands exactly at round (11+11)*2^i - 1.

   Intra-phase waves are executed as tree traversals over the per-node
   bounded state (parent pointer, root-ID estimate, level) and charged the
   rounds the timetable allocates, which is what the complexity experiments
   measure.  The per-node state never exceeds the O(log n)-bit record the
   paper specifies; [peak_bits] reports its actual size. *)

type result = {
  tree : Tree.t;
  hierarchy : Fragment.hierarchy;
  rounds : int;  (* ideal time per the paper's timetable *)
  phases : int;  (* number of phases executed (= final level) *)
  peak_bits : int;  (* max per-node state size in bits *)
}

(* Per-node bounded state: exactly the variables Section 4.2 lists. *)
type node_state = {
  mutable parent : int;  (* node index of the parent; -1 at a root *)
  mutable root_id : int;  (* estimate of the fragment root's identity *)
  mutable level : int;  (* estimate (lower bound) of the fragment level *)
}

let state_bits g s =
  Ssmst_sim.Memory.of_int s.parent
  + Ssmst_sim.Memory.of_int s.root_id
  + Ssmst_sim.Memory.of_int s.level
  + Ssmst_sim.Memory.of_int (Graph.max_degree g)  (* candidate-child pointer *)
  + 4 (* stage flags: counting / searching / wave / echoed *)

(* Profiler attribution: one ["fragment-level i"] frame per phase with
   ["wave-sweep"] sub-frames for Count_Size and Find_Min_Out_Edge, charged
   the rounds the timetable allocates and the nodes the waves visit.
   [prb] is read once per run; untraced, each call is one branch. *)
module Probe = Ssmst_parallel.Probe

let enter_level (prb : Probe.sink option) i =
  match prb with Some s -> s.enter (Printf.sprintf "fragment-level %d" i) | None -> ()

let charge (prb : Probe.sink option) ~rounds ~activations ~peak_bits =
  match prb with Some s -> s.charge ~rounds ~activations ~writes:0 ~peak_bits | None -> ()

let run (g : Graph.t) =
  let prb = Probe.get () in
  let n = Graph.n g in
  let w = Graph.plain_weight_fn g in
  let states = Array.init n (fun v -> { parent = -1; root_id = Graph.id g v; level = 0 }) in
  let peak_bits = ref 0 in
  let note_memory () =
    Array.iter (fun s -> peak_bits := max !peak_bits (state_bits g s)) states
  in
  let children_of v =
    let acc = ref [] in
    for u = n - 1 downto 0 do
      if states.(u).parent = v then acc := u :: !acc
    done;
    !acc
  in
  (* membership via the forest, equivalent at search time to comparing
     root-ID estimates (see Lemma 4.1's discussion) *)
  let root_of v =
    let rec go u = if states.(u).parent < 0 then u else go states.(u).parent in
    go v
  in
  let records = ref [] in
  let done_ = ref false in
  let phase = ref 0 in
  let final_round = ref 0 in
  note_memory ();
  while not !done_ do
    let i = !phase in
    let ttl = (1 lsl (i + 1)) - 1 in
    let roots = ref [] in
    for v = n - 1 downto 0 do
      if states.(v).parent < 0 then roots := v :: !roots
    done;
    enter_level prb i;
    (* --- Count_Size at round 11*2^i --- *)
    Probe.enter prb "wave-sweep";
    let wave_work = ref 0 in
    let active = ref [] in
    List.iter
      (fun r ->
        let cnt = Wave_echo.count ~children:children_of ~ttl r in
        wave_work := !wave_work + List.length cnt.visited;
        if (not cnt.truncated) && cnt.value <= ttl then begin
          (* active: refresh ID estimates and level through the wave *)
          List.iter
            (fun v ->
              states.(v).root_id <- Graph.id g r;
              states.(v).level <- i)
            cnt.visited;
          active := (r, cnt.visited) :: !active
        end
        else states.(r).level <- i + 1;
        (* spanning detection at the echo: complete count covering all *)
        if (not cnt.truncated) && cnt.value = n then begin
          done_ := true;
          final_round := ((11 + 4) * (1 lsl i));
          records := (i, r, cnt.visited, None) :: !records
        end)
      !roots;
    charge prb ~rounds:(4 * (1 lsl i)) ~activations:!wave_work ~peak_bits:0;
    Probe.leave prb "wave-sweep";
    if not !done_ then begin
      (* --- Find_Min_Out_Edge at round (11+4)*2^i --- *)
      Probe.enter prb "wave-sweep";
      let search_work = ref 0 in
      let plans = ref [] in
      List.iter
        (fun (r, members) ->
          let candidate v =
            let best = ref None in
            Graph.iter_ports g v (fun _ u ->
                if root_of u <> r then
                  let cand = w v u in
                  match !best with
                  | Some (_, _, bw) when Weight.(bw <= cand) -> ()
                  | _ -> best := Some (v, u, cand));
            !best
          in
          let cmp (_, _, a) (_, _, b) = Weight.compare a b in
          let search = Wave_echo.minimum ~children:children_of ~candidate ~compare:cmp r in
          search_work := !search_work + List.length search.visited;
          match search.value with
          | None ->
              (* no outgoing edge: the fragment spans the graph; it will be
                 recorded by the count of a later phase — cannot happen for
                 an active fragment that passed the spanning test above *)
              ()
          | Some (wv, x, _) ->
              records := (i, r, members, Some (wv, x)) :: !records;
              plans := (r, wv, x) :: !plans)
        !active;
      charge prb ~rounds:(4 * (1 lsl i)) ~activations:!search_work ~peak_bits:0;
      Probe.leave prb "wave-sweep";
      (* --- merging at round (11+8)*2^i: re-root at w, then hook --- *)
      let is_planned_pivot x wv =
        (* does x's fragment plan the same edge from the other side? *)
        List.exists (fun (_, w', x') -> w' = x && x' = wv) !plans
      in
      let hooks = ref [] in
      List.iter
        (fun (_, wv, x) ->
          (* re-root the fragment at wv: flip pointers on the root path *)
          let rec path v acc = if states.(v).parent < 0 then v :: acc else path states.(v).parent (v :: acc) in
          let chain = path wv [] in
          (* chain = [root; ...; wv]; flip so each points at its successor *)
          let rec flip = function
            | a :: (b :: _ as rest) ->
                states.(a).parent <- b;
                flip rest
            | [ last ] -> states.(last).parent <- -1
            | [] -> ()
          in
          flip chain;
          let same_edge_back = is_planned_pivot x wv in
          let keep_root = same_edge_back && Graph.id g x < Graph.id g wv in
          if not keep_root then hooks := (wv, x) :: !hooks)
        !plans;
      List.iter (fun (wv, x) -> states.(wv).parent <- x) !hooks;
      note_memory ();
      charge prb ~rounds:(3 * (1 lsl i)) ~activations:0 ~peak_bits:!peak_bits;
      final_round := 11 * (1 lsl (i + 1));
      incr phase;
      if !phase > 2 * Ssmst_sim.Memory.of_nat n + 4 then
        raise (Graph.Malformed "SYNC_MST: did not converge")
    end;
    Probe.leave prb "fragment-level" (* the phase's frame *)
  done;
  note_memory ();
  (* the timetable starts phase 0 at round 11; the per-phase charges sum to
     [final_round - 11], so settle the warm-up here *)
  charge prb ~rounds:11 ~activations:0 ~peak_bits:!peak_bits;
  let parent = Array.map (fun s -> s.parent) states in
  let tree = Tree.of_parents g parent in
  let records =
    List.map (fun (lvl, r, members, cand) -> (lvl, r, members, cand)) !records
  in
  let hierarchy = Fragment.build tree records in
  { tree; hierarchy; rounds = !final_round; phases = !phase; peak_bits = !peak_bits }
