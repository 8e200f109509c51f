open Ssmst_graph
open Ssmst_sim

(* The complete self-stabilizing MST verifier (Sections 7-8).

   Each node's register holds its (corruptible) marker label plus the
   verifier's working state: two trains (one per partition) and the
   comparison module.  One activation performs:

   1. the 1-round structural checks: Example SP (spanning tree), Example
      NumK (node count), conditions RS0-RS5 / EPS0-EPS5 on the strings, and
      the part-label consistency checks (DFS ranks, subtree sizes, k,
      EDIAM-style depth/diameter bounds);
   2. one step of each train (Section 7.1), including the cycle-set and
      ordering checks of Section 8;
   3. one step of the comparison module (Section 7.2): capture Ask pieces
      from the own trains, observe neighbours' broadcast buffers (their
      Show), and run the minimality checks C1 and C2 plus the fragment
      agreement check of Claim 8.3.

   In [Passive] mode (synchronous networks, Lemma 7.5) a node holds each Ask
   piece for a full train-cycle window and reads all neighbours every pulse.
   In [Handshake] mode (asynchronous networks, Lemma 7.6) it requests levels
   from one server at a time through its Want register, and servers delay
   their train while a requested piece is on display.  Detected faults latch
   the alarm bit. *)

type mode = Passive | Handshake

type cmp_state = {
  ask_level : int;  (* level currently verified; -1 before initialization *)
  ask : Pieces.t option;  (* captured I(F_j(v)) *)
  port : int;  (* handshake: server cursor *)
  want : (int * int) option;  (* handshake: (server identity, level) *)
  window : int;  (* rounds left for the current level / server *)
}

type state = {
  label : Marker.node_label;
  train_top : Train.state;
  train_bot : Train.state;
  cmp : cmp_state;
  alarm : bool;  (* latched *)
}

let cmp_init = { ask_level = -1; ask = None; port = 0; want = None; window = 0 }

module type CONFIG = sig
  val marker : Marker.t
  val mode : mode
end

(* The per-level window: a multiple of the worst train cycle (k + diameter),
   both O(log n); computable from the node's own label.  [window_factor] is
   the ablation knob: windows shorter than a full train cycle lose
   comparison opportunities (detection slows or is missed); longer ones only
   stretch the Ask cycle linearly. *)
let window_factor = ref 40

let window_bound (l : Marker.node_label) =
  let t = max 2 (Memory.of_nat (max 2 l.nk_n)) in
  (!window_factor * t) + !window_factor

(* The marker-free part of every [Make]'s register interface — the part
   the flight recorder reads ({!Ssmst_replay.Recorder.REGISTER}). *)
module Register = struct
  type nonrec state = state

  let alarm s = s.alarm

  let cmp_equal (a : cmp_state) (b : cmp_state) =
    a == b
    || a.ask_level = b.ask_level && a.port = b.port && a.window = b.window
       && (match (a.ask, b.ask) with
          | Some x, Some y -> x == y || Pieces.equal x y
          | None, None -> true
          | Some _, None | None, Some _ -> false)
       &&
       match (a.want, b.want) with
       | Some (srv, lvl), Some (srv', lvl') -> srv = srv' && lvl = lvl'
       | None, None -> true
       | Some _, None | None, Some _ -> false

  (* the register is pure data (label + trains + comparison module), so
     structural equality is register equality.  Compare the frequently
     changing working state first, field by field, and the large, almost
     always physically shared label last, with physical-equality fast
     paths (polymorphic [=] would deep-compare both trains and the whole
     label every activation). *)
  let equal (a : state) (b : state) =
    a == b
    || a.alarm = b.alarm && cmp_equal a.cmp b.cmp
       && Train.equal a.train_top b.train_top
       && Train.equal a.train_bot b.train_bot
       && (a.label == b.label || a.label = b.label)

  let field_names = [| "label"; "train_top"; "train_bot"; "cmp"; "alarm" |]

  (* compound fields are fingerprinted; the deep-sampling [hash_field]
     keeps single-piece label perturbations visible in the encoding *)
  let encode (s : state) =
    [|
      Protocol.hash_field s.label;
      Protocol.hash_field s.train_top;
      Protocol.hash_field s.train_bot;
      Protocol.hash_field s.cmp;
      Bool.to_int s.alarm;
    |]
end

module Make (C : CONFIG) = struct
  include Register

  let init _g v =
    {
      label = C.marker.labels.(v);
      train_top = Train.init;
      train_bot = Train.init;
      cmp = cmp_init;
      alarm = false;
    }

  (* ---------------- membership rules ---------------- *)

  let roots_at (l : Marker.node_label) j =
    if j >= 0 && j < l.strings.len then l.strings.roots.(j) else Labels.RStar

  let member_top (l : Marker.node_label) (pc : Pieces.t) ~flag:_ =
    pc.level >= l.delim && pc.level < l.strings.len && roots_at l pc.level <> Labels.RStar

  let member_bot (l : Marker.node_label) (pc : Pieces.t) ~flag =
    flag && pc.level < l.delim && roots_at l pc.level <> Labels.RStar

  let flag_rule g v (l : Marker.node_label) (pc : Pieces.t) ~parent_flag =
    match roots_at l pc.level with
    | Labels.R1 -> Graph.id g v = pc.root_id
    | Labels.R0 -> parent_flag
    | Labels.RStar -> false

  (* levels a node must see per train (excluding the top level ell) *)
  let required_levels (l : Marker.node_label) which =
    let ell = l.strings.len - 1 in
    let mask = ref 0 in
    for j = 0 to min (ell - 1) 60 do
      if roots_at l j <> Labels.RStar then
        let top = j >= l.delim in
        if (which = `Top) = top then mask := !mask lor (1 lsl j)
    done;
    !mask

  (* The levels the comparison module iterates: J(v) below ell, in
     increasing order.  [is_level], [level_after] and [first_level] walk
     them without materializing the list. *)
  let is_level (l : Marker.node_label) j =
    j >= 0 && j < l.strings.len - 1 && roots_at l j <> Labels.RStar

  (* the first level above [j]; -1 if there is none *)
  let level_after (l : Marker.node_label) j =
    let ell = l.strings.len - 1 and found = ref (-1) and x = ref (max 0 (j + 1)) in
    while !found < 0 && !x < ell do
      if roots_at l !x <> Labels.RStar then found := !x;
      incr x
    done;
    !found

  let first_level l = level_after l (-1)

  (* the level after [j], cyclically; -1 when J(v) is empty *)
  let next_level l j = match level_after l j with -1 -> first_level l | x -> x

  (* J(v) below ell as a list, for the fault model's draws *)
  let cmp_levels (l : Marker.node_label) =
    let ell = l.strings.len - 1 in
    List.filter (fun j -> roots_at l j <> Labels.RStar) (List.init (max 0 ell) Fun.id)

  (* ---------------- the claimed structure ----------------

     From [v]'s label and the label in each neighbour's register [nbr]
     (only labels are read): the parent's port and the children's ports,
     in port order. *)

  (* the claimed parent's port; -1 for none *)
  let parent_port (l : Marker.node_label) deg =
    match l.comp_port with Some p when p >= 0 && p < deg -> p | _ -> -1

  (* whether the neighbour behind port [p] claims [v] as its parent *)
  let points_back g v p (su : state) =
    match su.label.comp_port with
    | Some q ->
        let u = Graph.peer_at g v p in
        q >= 0 && q < Graph.degree g u && Graph.peer_at g u q = v
    | None -> false

  (* the ports of the neighbours claiming [v] as parent *)
  let kid_ports g v (nbr : state array) =
    let deg = Array.length nbr and nk = ref 0 in
    for p = 0 to deg - 1 do
      if points_back g v p nbr.(p) then incr nk
    done;
    let kids = Array.make !nk 0 and i = ref 0 in
    for p = 0 to deg - 1 do
      if points_back g v p nbr.(p) then begin
        kids.(!i) <- p;
        incr i
      end
    done;
    kids

  let rec kid_from (kids : int array) p i =
    i < Array.length kids && (kids.(i) = p || kid_from kids p (i + 1))

  (* ---------------- structural 1-round checks ----------------

     One pass over the labels, reporting each violated check by name to
     [fail]: the derived view passes a sink that stops at the first
     violation, [diagnose] one that collects every name. *)

  exception Violation

  let stop_at_first _ = raise_notrace Violation

  let part_of which (su : state) = if which = `Top then su.label.top else su.label.bot

  let check_part (l : Marker.node_label) (nbr : state array) ~pport ~kids fail ~t ~my_id which
      (pl : Partition.node_part_label) =
    let parent_pl =
      if pport < 0 then None
      else
        let pp = part_of which nbr.(pport) in
        if pp.part_root_id = pl.part_root_id then Some pp else None
    in
    (match parent_pl with
    | None ->
        (* part root *)
        if pl.part_root_id <> my_id then fail "part-root-id";
        if pl.dfs_rank <> 0 then fail "part-root-dfs";
        if pl.depth_in_part <> 0 then fail "part-root-depth";
        if Array.length pl.own <> min 2 pl.k then fail "part-root-own";
        if which = `Top then begin
          if pl.subtree < t then fail "top-size";
          if pl.dbound > (4 * t) + 4 then fail "top-dbound";
          if pl.k > l.strings.len then fail "top-k"
        end
        else begin
          if pl.subtree >= t then fail "bot-size";
          if pl.k > 2 * pl.subtree then fail "bot-k"
        end
    | Some pp ->
        if pl.depth_in_part <> pp.depth_in_part + 1 then fail "part-depth";
        if pl.depth_in_part > pl.dbound then fail "part-depth-bound";
        if pl.k <> pp.k then fail "part-k";
        if pl.dbound <> pp.dbound then fail "part-dbound");
    (* same-part children: subtree sum and DFS ranks in port order *)
    let sum = ref 1 in
    for i = 0 to Array.length kids - 1 do
      let cp = part_of which nbr.(kids.(i)) in
      if cp.part_root_id = pl.part_root_id then sum := !sum + cp.subtree
    done;
    if pl.subtree <> !sum then fail "part-subtree";
    let expect = ref (pl.dfs_rank + 1) in
    for i = 0 to Array.length kids - 1 do
      let cp = part_of which nbr.(kids.(i)) in
      if cp.part_root_id = pl.part_root_id then begin
        if cp.dfs_rank <> !expect then fail "part-dfs-order";
        expect := !expect + cp.subtree
      end
    done;
    (* own pieces shape *)
    let expected_own = max 0 (min 2 (pl.k - (2 * pl.dfs_rank))) in
    if Array.length pl.own <> expected_own then fail "own-shape";
    for i = 0 to Array.length pl.own - 1 do
      if pl.own.(i).Pieces.level >= l.strings.len then fail "own-level"
    done

  (* Example SP, Example NumK, conditions RS/EPS and the part labels *)
  let structural g v (l : Marker.node_label) (nbr : state array) ~pport ~kids fail =
    let my_id = Graph.id g v in
    (match l.comp_port with Some _ when pport < 0 -> fail "comp-port" | Some _ | None -> ());
    let is_root = l.sp_depth = 0 in
    (* Example SP *)
    if is_root then begin if l.sp_root <> my_id then fail "sp-root-id" end
    else if pport < 0 then fail "sp-no-parent"
    else if nbr.(pport).label.sp_depth <> l.sp_depth - 1 then fail "sp-depth";
    for p = 0 to Array.length nbr - 1 do
      if nbr.(p).label.sp_root <> l.sp_root then fail "sp-root-agree"
    done;
    (* Example NumK *)
    for p = 0 to Array.length nbr - 1 do
      if nbr.(p).label.nk_n <> l.nk_n then fail "nk-agree"
    done;
    let sub = ref 1 in
    for i = 0 to Array.length kids - 1 do
      sub := !sub + nbr.(kids.(i)).label.nk_sub
    done;
    if l.nk_sub <> !sub then fail "nk-sum";
    if is_root && l.nk_sub <> l.nk_n then fail "nk-root";
    (* string conditions RS / EPS *)
    (match
       Labels.check stop_at_first l.strings
         ~parent:(if pport < 0 then None else Some nbr.(pport).label.strings)
         ~children:(Array.map (fun p -> nbr.(p).label.strings) kids)
         ~is_root
     with
    | () -> ()
    | exception Violation -> fail "rs-eps");
    (* strings length vs claimed n *)
    if l.strings.len > Memory.of_nat (max 2 l.nk_n) + 2 then fail "len-bound";
    if l.delim > l.strings.len then fail "delim-bound";
    (* part labels *)
    let t = max 2 (Memory.of_nat (max 2 l.nk_n)) in
    check_part l nbr ~pport ~kids fail ~t ~my_id `Top l.top;
    check_part l nbr ~pport ~kids fail ~t ~my_id `Bottom l.bot

  (* ---------------- the derived view ----------------

     Everything an activation needs that is a function of the labels
     around [v] alone: the claimed structure, the structural verdict, the
     two trains' cycle-set masks and the first Ask level. *)

  type derived = {
    pport : int;
    kids : int array;
    struct_alarm : bool;  (* whether some structural check fails *)
    req_top : int;  (* [required_levels] of the Top train *)
    req_bot : int;  (* [required_levels] of the Bottom train *)
    first : int;  (* [first_level] of v's label *)
  }

  let derive g v (l : Marker.node_label) nbr =
    let pport = parent_port l (Array.length nbr) and kids = kid_ports g v nbr in
    {
      pport;
      kids;
      struct_alarm =
        (match structural g v l nbr ~pport ~kids stop_at_first with
        | () -> false
        | exception Violation -> true);
      req_top = required_levels l `Top;
      req_bot = required_levels l `Bottom;
      first = first_level l;
    }

  (* Every node's derived view under the marker's own labels — the view
     of the initial registers — built once per marker, eagerly: it is
     immutable, so domains share it without a lock.  Between faults a
     node and its neighbours hold exactly these label records, so an
     activation takes its view from here when every label it reads is
     physically the marker's.  That key is sound because no fault edits a
     label in place — each builds a fresh record (pinned in test_verifier)
     — so a marker record always carries the content its entry was
     derived from. *)
  let marker_graph = C.marker.Marker.graph
  let marker_labels = C.marker.labels

  let table =
    let g = marker_graph in
    Array.mapi
      (fun v l ->
        derive g v l (Array.init (Graph.degree g v) (fun p -> init g (Graph.peer_at g v p))))
      marker_labels

  (* each marker label's [Marker.label_bits], counted once beside the
     table: the write path's [bits] takes it under the table's key for
     [v]'s own label *)
  let marker_label_bits = Array.map Marker.label_bits marker_labels

  let rec marker_from g v (nbr : state array) p =
    p >= Array.length nbr
    || (nbr.(p).label == marker_labels.(Graph.peer_at g v p) && marker_from g v nbr (p + 1))

  (* whether [l] is the marker's own record for [v]: the key of [v]'s
     table entry, together with its neighbours' labels *)
  let is_marker_label g v (l : Marker.node_label) = g == marker_graph && l == marker_labels.(v)

  (* [v]'s derived view: the table's entry when every label it reads is
     the marker's, otherwise derived on the spot — one view either way *)
  let derived_of g v (s : state) nbr =
    if is_marker_label g v s.label && marker_from g v nbr 0 then table.(v) else derive g v s.label nbr

  (* ---------------- one activation's view ----------------

     An activation reads each port once, into [nbr], and takes the
     derived view; every check below works on it and none reads the
     network again. *)

  type act = {
    g : Graph.t;
    v : int;
    l : Marker.node_label;
    nbr : state array;  (* [nbr.(p)]: the register behind port [p] *)
    d : derived;
    kid_regs : state array;  (* the registers behind [d.kids] *)
  }

  let view g v (s : state) read =
    let nbr = Array.init (Graph.degree g v) read in
    let d = derived_of g v s nbr in
    let kid_regs = Array.make (Array.length d.kids) s in
    for i = 0 to Array.length d.kids - 1 do
      kid_regs.(i) <- nbr.(d.kids.(i))
    done;
    { g; v; l = s.label; nbr; d; kid_regs }

  let is_kid (a : act) p = kid_from a.d.kids p 0

  (* Whether node [v]'s 1-round structural checks fail: the alarm [step]
     raises for them. *)
  let structural_alarm g v (s : state) read = (view g v s read).d.struct_alarm

  (* Names of the structural checks node [v] currently violates (diagnostic
     aid for tests and the CLI). *)
  let diagnose g v (s : state) read =
    let nbr = Array.init (Graph.degree g v) read and bad = ref [] in
    structural g v s.label nbr
      ~pport:(parent_port s.label (Array.length nbr))
      ~kids:(kid_ports g v nbr)
      (fun name -> bad := name :: !bad);
    List.rev !bad

  (* the car on display for level j, if any: the member-filtered broadcast
     buffer of either train (a register's Show) *)
  let shown_in l (top : Train.state) (bot : Train.state) j =
    match top.bc with
    | Some c as car when c.piece.Pieces.level = j && member_top l c.piece ~flag:c.flag -> car
    | _ -> (
        match bot.bc with
        | Some c as car when c.piece.Pieces.level = j && member_bot l c.piece ~flag:c.flag -> car
        | _ -> None)

  let shown (su : state) j = shown_in su.label su.train_top su.train_bot j

  (* ---------------- the comparison checks ---------------- *)

  (* the claimed weight of [ask] against ω′ of the edge behind port [p] *)
  let edge_cmp (a : act) p (ask : Pieces.t) ~in_tree =
    Weight.compare_edge ask.Pieces.weight ~base:(Graph.weight_at a.g a.v p) ~in_tree
      ~id_u:(Graph.id a.g a.v)
      ~id_v:(Graph.id a.g (Graph.peer_at a.g a.v p))

  (* C2 for the edge behind port [p]: the claimed minimum outgoing weight
     must not exceed the edge's actual ω′ weight. *)
  let c2_ok a p (ask : Pieces.t) ~in_tree = edge_cmp a p ask ~in_tree <= 0

  (* whether the (claimed) tree neighbour shares v's level-j fragment *)
  let tree_same_frag (l : Marker.node_label) (lu : Marker.node_label) ~u_is_parent j =
    if u_is_parent then roots_at l j = Labels.R0 else roots_at lu j = Labels.R0

  (* compare the Ask piece against the neighbour behind port [p]; returns
     [`Ok]/[`Alarm] or [`Wait] when the needed piece is not on display *)
  let compare_at (a : act) (ask : Pieces.t) p =
    let j = ask.Pieces.level in
    let su = a.nbr.(p) in
    let u_is_parent = p = a.d.pport in
    if u_is_parent || is_kid a p then begin
      if tree_same_frag a.l su.label ~u_is_parent j then
        (* same fragment: pieces must agree whenever u's is on display *)
        match shown su j with
        | Some c -> if Pieces.equal ask c.piece then `Ok else `Alarm
        | None -> `Ok (* u's own cycle-set check forces it to appear *)
      else if
        (* outgoing tree edge: C2 *)
        c2_ok a p ask ~in_tree:true
      then `Ok
      else `Alarm
    end
    else if roots_at su.label j = Labels.RStar then
      (* u belongs to no level-j fragment: outgoing for sure *)
      if c2_ok a p ask ~in_tree:false then `Ok else `Alarm
    else
      match shown su j with
      | Some c ->
          if c.piece.Pieces.root_id = ask.Pieces.root_id then
            (* same fragment across a non-tree edge: pieces must agree *)
            if Pieces.equal ask c.piece then `Ok else `Alarm
          else if c2_ok a p ask ~in_tree:false then `Ok
          else `Alarm
      | None -> `Wait

  (* C1: if v is the endpoint of its level-j candidate, the edge must leave
     the fragment and carry exactly the claimed weight.  A "down" endpoint
     resolves to the first child (in port order) with parents bit j. *)
  let c1_ok (a : act) (ask : Pieces.t) =
    let l = a.l and j = ask.Pieces.level in
    let edge_ok p =
      (not (tree_same_frag l a.nbr.(p).label ~u_is_parent:(p = a.d.pport) j))
      && edge_cmp a p ask ~in_tree:true = 0
    in
    if j >= l.strings.len then true
    else
      match l.strings.endp.(j) with
      | Labels.ENone | Labels.EStar -> true
      | Labels.Up -> a.d.pport >= 0 && edge_ok a.d.pport
      | Labels.Down ->
          let target = ref (-1) and i = ref 0 in
          while !target < 0 && !i < Array.length a.d.kids do
            let lc = a.kid_regs.(!i).label in
            if j < lc.strings.len && lc.strings.parents.(j) then target := a.d.kids.(!i);
            incr i
          done;
          !target >= 0 && edge_ok !target

  (* ---------------- one activation ---------------- *)

  (* whether a neighbour from port [p] on requests level [j] from [me] *)
  let rec requested (nbr : state array) me j p =
    p < Array.length nbr
    && ((match nbr.(p).cmp.want with Some (srv, lvl) -> srv = me && lvl = j | None -> false)
       || requested nbr me j (p + 1))

  (* The two trains, read off a neighbour's register and judged under
     the activation's view: built once, so a step builds no closure. *)
  let act_flag_rule (a : act) pc ~parent_flag = flag_rule a.g a.v a.l pc ~parent_flag

  let top_side : (state, act) Train.side =
    {
      part = (fun su -> su.label.top);
      train = (fun su -> su.train_top);
      flag_rule = act_flag_rule;
      member = (fun a pc ~flag -> member_top a.l pc ~flag);
      ordered = true;
    }

  let bot_side : (state, act) Train.side =
    {
      part = (fun su -> su.label.bot);
      train = (fun su -> su.train_bot);
      flag_rule = act_flag_rule;
      member = (fun a pc ~flag -> member_bot a.l pc ~flag);
      ordered = false;
    }

  (* handshake: hold the train while a neighbour requests the level
     currently on display *)
  let held (a : act) side (ts : Train.state) =
    C.mode = Handshake
    &&
    match ts.bc with
    | Some c ->
        side.Train.member a c.piece ~flag:c.flag
        && requested a.nbr (Graph.id a.g a.v) c.piece.Pieces.level 0
    | None -> false

  let step_train (a : act) side ~lbl ~required (ts : Train.state) =
    Train.step side a ~lbl ~required ~nbr:a.nbr ~pport:a.d.pport ~children:a.kid_regs
      ~hold:(held a side ts) ts

  (* the handshake cursor's next server, or the next level after the last *)
  let advance ~deg ~w l (c : cmp_state) =
    if c.port + 1 >= deg then
      { ask_level = next_level l c.ask_level; ask = None; port = 0; want = None; window = w }
    else { c with port = c.port + 1; want = None; window = w }

  let step g v (s : state) read =
    let a = view g v s read in
    let l = s.label in
    (* --- trains --- *)
    let train_top = step_train a top_side ~lbl:l.top ~required:a.d.req_top s.train_top in
    let train_bot = step_train a bot_side ~lbl:l.bot ~required:a.d.req_bot s.train_bot in
    (* --- comparison --- *)
    let alarm = ref (s.alarm || a.d.struct_alarm || train_top.alarm || train_bot.alarm) in
    let w = window_bound l in
    let cmp =
      let first = a.d.first in
      if first < 0 then cmp_init
      else begin
        (* (re)initialize the level when out of range *)
        let c =
          if is_level l s.cmp.ask_level then s.cmp
          else { cmp_init with ask_level = first; window = w }
        in
        (* capture the Ask piece from the own trains *)
        let c =
          match c.ask with
          | Some _ -> c
          | None -> (
              match shown_in l train_top train_bot c.ask_level with
              | Some car -> { c with ask = Some car.piece }
              | None -> c)
        in
        (* run checks *)
        match c.ask with
        | None ->
            (* waiting for own train; bounded by the window *)
            if c.window <= 0 then
              { c with ask_level = next_level l c.ask_level; ask = None; window = w }
            else { c with window = c.window - 1 }
        | Some ask -> (
            if not (c1_ok a ask) then alarm := true;
            (* Claim 8.3 root check for top pieces *)
            if roots_at l ask.Pieces.level = Labels.R1 && ask.Pieces.root_id <> Graph.id g v then
              alarm := true;
            match C.mode with
            | Passive ->
                for p = 0 to Array.length a.nbr - 1 do
                  match compare_at a ask p with `Alarm -> alarm := true | `Ok | `Wait -> ()
                done;
                if c.window <= 0 then
                  { c with ask_level = next_level l c.ask_level; ask = None; window = w }
                else { c with window = c.window - 1 }
            | Handshake -> (
                let deg = Array.length a.nbr in
                let p = min c.port (deg - 1) in
                match compare_at a ask p with
                | `Alarm ->
                    alarm := true;
                    advance ~deg ~w l c
                | `Ok -> advance ~deg ~w l c
                | `Wait ->
                    if c.window <= 0 then advance ~deg ~w l c
                    else
                      {
                        c with
                        want = Some (Graph.id g (Graph.peer_at g v p), ask.Pieces.level);
                        window = c.window - 1;
                      }))
      end
    in
    { label = l; train_top; train_bot; cmp; alarm = !alarm }

  (* The register's size: the label's, the trains', the comparison
     module's and the alarm bit.  The marker's own label records are
     counted once, in the table; any other label (a fault's fresh record,
     a copy, an unpacked image) is recounted, so the count is that of
     [s]'s content whoever built it. *)
  let label_bits g v (l : Marker.node_label) =
    if is_marker_label g v l then marker_label_bits.(v) else Marker.label_bits l

  let cmp_bits (c : cmp_state) =
    Memory.of_int c.ask_level
    + (match c.ask with None -> 1 | Some pc -> 1 + Pieces.bits pc)
    + Memory.of_nat c.port
    + (match c.want with None -> 1 | Some (srv, lvl) -> 1 + Memory.of_int srv + Memory.of_nat lvl)
    + Memory.of_nat c.window

  let bits g v s =
    label_bits g v s.label + Train.bits s.train_top + Train.bits s.train_bot + cmp_bits s.cmp + 1

  (* A purely *semantic* fault for detection-time experiments: perturb the
     weight of one stored piece so that every 1-round structural check still
     passes and only the train-borne checks (agreement, C1, C2) can expose
     it.  Returns [None] when the node stores no piece. *)
  let corrupt_piece_weight st (s : state) =
    let l = s.label in
    let fix (pl : Partition.node_part_label) =
      if Array.length pl.own = 0 then None
      else begin
        let own = Array.copy pl.own in
        (* corrupt the highest-level stored piece: the worst case for the
           detection time, since the Ask cycle reaches high levels last *)
        let i = ref 0 in
        Array.iteri (fun k pc -> if pc.Pieces.level > own.(!i).Pieces.level then i := k) own;
        let i = !i in
        let w = own.(i).Pieces.weight in
        own.(i) <-
          {
            (own.(i)) with
            Pieces.weight = { w with Weight.base = w.Weight.base + 1 + Random.State.int st 7 };
          };
        Some { pl with own }
      end
    in
    let label =
      if Random.State.bool st then
        match fix l.top with
        | Some top -> Some { l with top }
        | None -> Option.map (fun bot -> { l with bot }) (fix l.bot)
      else
        match fix l.bot with
        | Some bot -> Some { l with bot }
        | None -> Option.map (fun top -> { l with top }) (fix l.top)
    in
    Option.map (fun label -> { s with label; cmp = cmp_init; alarm = false }) label

  (* Adversarial fault: corrupt the persistent label data (and possibly the
     transient verifier state).  The alarm latch is cleared so detection
     time is measured from scratch. *)
  let corrupt st g v (s : state) =
    let l = s.label in
    let mutate () =
      let pick = Random.State.int st 6 in
      match pick with
      | 0 ->
          (* corrupt a stored piece's weight or identity *)
          let fix (pl : Partition.node_part_label) =
            if Array.length pl.own = 0 then pl
            else begin
              let own = Array.copy pl.own in
              let i = Random.State.int st (Array.length own) in
              own.(i) <-
                (if Random.State.bool st then Pieces.random st
                 else
                   {
                     (own.(i)) with
                     Pieces.weight =
                       Weight.make
                         ~base:(1 + Random.State.int st 4)
                         ~in_tree:false ~id_u:0 ~id_v:1;
                   });
              { pl with own }
            end
          in
          if Random.State.bool st then { l with top = fix l.top } else { l with bot = fix l.bot }
      | 1 ->
          (* corrupt a string entry *)
          let strings =
            {
              l.strings with
              Labels.roots = Array.copy l.strings.Labels.roots;
              endp = Array.copy l.strings.Labels.endp;
            }
          in
          let j = Random.State.int st strings.Labels.len in
          if Random.State.bool st then
            strings.Labels.roots.(j) <-
              [| Labels.R1; Labels.R0; Labels.RStar |].(Random.State.int st 3)
          else
            strings.Labels.endp.(j) <-
              [| Labels.Up; Labels.Down; Labels.ENone; Labels.EStar |].(Random.State.int st 4);
          { l with strings }
      | 2 ->
          (* corrupt the component pointer *)
          let deg = Graph.degree g v in
          let comp_port =
            if Random.State.bool st then None else Some (Random.State.int st deg)
          in
          { l with comp_port }
      | 3 -> { l with sp_depth = Random.State.int st (2 * Graph.n g); sp_root = Random.State.int st (2 * Graph.n g) }
      | 4 -> { l with nk_sub = Random.State.int st (2 * Graph.n g) }
      | _ -> (
          (* flip the top/bottom classification of a real level of the node;
             values in the gap between the classes are semantically inert *)
          match cmp_levels l with
          | [] -> l
          | levels ->
              let j = List.nth levels (Random.State.int st (List.length levels)) in
              { l with delim = (if j >= l.delim then j + 1 else j) })
    in
    (* a fault that does not change the persistent label is no fault at all:
       retry until the label actually differs *)
    let rec pick_label tries =
      if tries = 0 then { l with sp_depth = l.sp_depth + 1 }
      else
        let l' = mutate () in
        if l' = l then pick_label (tries - 1) else l'
    in
    let label = pick_label 16 in
    {
      label;
      train_top = (if Random.State.bool st then Train.corrupt st s.train_top else s.train_top);
      train_bot = (if Random.State.bool st then Train.corrupt st s.train_bot else s.train_bot);
      cmp = cmp_init;
      alarm = false;
    }

  (* Targeted-field fault (the {!Fault.Bit_flip} severity): perturb exactly
     one scalar of the persistent label — one stored piece's weight, one
     string symbol, or one of the Example SP/NumK counters — leaving the
     trains and every other field untouched.  The surgical counterpart of
     [corrupt]'s multi-field scrambling. *)
  let corrupt_field st _g _v (s : state) =
    let l = s.label in
    let bump_piece (pl : Partition.node_part_label) =
      if Array.length pl.Partition.own = 0 then None
      else begin
        let own = Array.copy pl.Partition.own in
        let i = Random.State.int st (Array.length own) in
        let w = own.(i).Pieces.weight in
        own.(i) <-
          {
            (own.(i)) with
            Pieces.weight = { w with Weight.base = w.Weight.base + 1 + Random.State.int st 7 };
          };
        Some { pl with Partition.own = own }
      end
    in
    let label =
      match Random.State.int st 4 with
      | 0 -> (
          match bump_piece l.Marker.top with
          | Some top -> { l with Marker.top }
          | None -> { l with Marker.sp_depth = l.Marker.sp_depth + 1 })
      | 1 -> (
          match bump_piece l.Marker.bot with
          | Some bot -> { l with Marker.bot }
          | None -> { l with Marker.nk_sub = l.Marker.nk_sub + 1 })
      | 2 ->
          let strings = { l.Marker.strings with Labels.roots = Array.copy l.Marker.strings.Labels.roots } in
          let j = Random.State.int st strings.Labels.len in
          strings.Labels.roots.(j) <-
            (match strings.Labels.roots.(j) with
            | Labels.R1 -> Labels.R0
            | Labels.R0 -> Labels.RStar
            | Labels.RStar -> Labels.R1);
          { l with Marker.strings }
      | _ -> { l with Marker.sp_depth = l.Marker.sp_depth + 1 + Random.State.int st 7 }
    in
    { s with label; cmp = cmp_init; alarm = false }

  (* ---------------- packed codec ----------------

     Fixed per-instance word budget, computed once from the marker: the
     dynamic life of a register never changes the lengths of its arrays
     ([corrupt]/[corrupt_field] copy them entry-for-entry), so every
     reachable state of every node fits the instance-wide maxima below. *)

  let packed_own_slots =
    Array.fold_left
      (fun m (l : Marker.node_label) ->
        max m
          (max
             (Array.length l.top.Partition.own)
             (Array.length l.bot.Partition.own)))
      1 C.marker.labels

  let packed_max_len =
    Array.fold_left
      (fun m (l : Marker.node_label) -> max m l.strings.Labels.len)
      1 C.marker.labels

  let part_slice = Partition.packed_label_words ~own_slots:packed_own_slots

  (* 6 scalars + strings len + one word per level + the two part labels *)
  let label_slice = 7 + packed_max_len + (2 * part_slice)

  (* ask_level + ask option/piece + port + want option/pair + window *)
  let cmp_slice = 1 + (1 + Pieces.packed_words) + 1 + 3 + 1

  let words _g = label_slice + (2 * Train.packed_words) + cmp_slice + 1

  let field_offsets _g =
    [|
      0;
      label_slice;
      label_slice + Train.packed_words;
      label_slice + (2 * Train.packed_words);
      label_slice + (2 * Train.packed_words) + cmp_slice;
    |]

  let rtag = function Labels.R1 -> 0 | Labels.R0 -> 1 | Labels.RStar -> 2
  let rsym_of = [| Labels.R1; Labels.R0; Labels.RStar |]

  let etag = function
    | Labels.Up -> 0
    | Labels.Down -> 1
    | Labels.ENone -> 2
    | Labels.EStar -> 3

  let esym_of = [| Labels.Up; Labels.Down; Labels.ENone; Labels.EStar |]

  let pack_label (l : Marker.node_label) buf off =
    buf.(off) <- (match l.comp_port with None -> -1 | Some p -> p);
    buf.(off + 1) <- l.sp_root;
    buf.(off + 2) <- l.sp_depth;
    buf.(off + 3) <- l.nk_n;
    buf.(off + 4) <- l.nk_sub;
    buf.(off + 5) <- l.delim;
    let s = l.strings in
    buf.(off + 6) <- s.Labels.len;
    for j = 0 to packed_max_len - 1 do
      buf.(off + 7 + j) <-
        (if j < s.Labels.len then
           rtag s.Labels.roots.(j)
           lor (etag s.Labels.endp.(j) lsl 4)
           lor (Bool.to_int s.Labels.parents.(j) lsl 8)
           lor (s.Labels.cnt.(j) lsl 12)
         else 0)
    done;
    let po = off + 7 + packed_max_len in
    Partition.pack_label ~own_slots:packed_own_slots l.top buf po;
    Partition.pack_label ~own_slots:packed_own_slots l.bot buf (po + part_slice)

  let unpack_label buf off : Marker.node_label =
    let len = buf.(off + 6) in
    let strings =
      {
        Labels.len;
        roots = Array.init len (fun j -> rsym_of.(buf.(off + 7 + j) land 0xf));
        endp = Array.init len (fun j -> esym_of.((buf.(off + 7 + j) lsr 4) land 0xf));
        parents = Array.init len (fun j -> (buf.(off + 7 + j) lsr 8) land 0xf = 1);
        cnt = Array.init len (fun j -> (buf.(off + 7 + j) lsr 12) land 0xf);
      }
    in
    let po = off + 7 + packed_max_len in
    {
      comp_port = (if buf.(off) < 0 then None else Some buf.(off));
      sp_root = buf.(off + 1);
      sp_depth = buf.(off + 2);
      nk_n = buf.(off + 3);
      nk_sub = buf.(off + 4);
      delim = buf.(off + 5);
      strings;
      top = Partition.unpack_label buf po;
      bot = Partition.unpack_label buf (po + part_slice);
    }

  let pack_cmp (c : cmp_state) buf off =
    buf.(off) <- c.ask_level;
    (match c.ask with
    | None -> Array.fill buf (off + 1) (1 + Pieces.packed_words) 0
    | Some p ->
        buf.(off + 1) <- 1;
        Pieces.pack p buf (off + 2));
    let b = off + 2 + Pieces.packed_words in
    buf.(b) <- c.port;
    (match c.want with
    | None -> Array.fill buf (b + 1) 3 0
    | Some (srv, lvl) ->
        buf.(b + 1) <- 1;
        buf.(b + 2) <- srv;
        buf.(b + 3) <- lvl);
    buf.(b + 4) <- c.window

  let unpack_cmp buf off =
    let b = off + 2 + Pieces.packed_words in
    {
      ask_level = buf.(off);
      ask = (if buf.(off + 1) = 0 then None else Some (Pieces.unpack buf (off + 2)));
      port = buf.(b);
      want = (if buf.(b + 1) = 0 then None else Some (buf.(b + 2), buf.(b + 3)));
      window = buf.(b + 4);
    }

  let pack _g _v (s : state) buf off =
    pack_label s.label buf off;
    Train.pack s.train_top buf (off + label_slice);
    Train.pack s.train_bot buf (off + label_slice + Train.packed_words);
    pack_cmp s.cmp buf (off + label_slice + (2 * Train.packed_words));
    buf.(off + label_slice + (2 * Train.packed_words) + cmp_slice) <- Bool.to_int s.alarm

  let unpack _g _v buf off =
    {
      label = unpack_label buf off;
      train_top = Train.unpack buf (off + label_slice);
      train_bot = Train.unpack buf (off + label_slice + Train.packed_words);
      cmp = unpack_cmp buf (off + label_slice + (2 * Train.packed_words));
      alarm = buf.(off + label_slice + (2 * Train.packed_words) + cmp_slice) = 1;
    }
end
