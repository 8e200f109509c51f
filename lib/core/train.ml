(* The train (Section 7.1): per part, a pipelined convergecast brings the
   pieces stored along the part's DFS order to the part root, and a gated
   pipelined broadcast shows every piece to every member, cyclically.

   Registers per node (per train), all O(log n) bits:

   - [up]: the convergecast car, carrying (global piece index, piece);
   - [want_idx]: the index this node currently seeks from its children (the
     "wake-up" signal of the Train Convergecast Protocol);
   - [bc]: the broadcast buffer (index, piece, membership flag);
   - [cursor] (part root only): the next index to broadcast;
   - [seen]/[complete]/[last_lvl]: the Section 8 cycle-set bookkeeping;
   - [alarm]: raised when a completed cycle misses a required level, or when
     a Top train delivers levels out of order.

   Within one cycle a node's index range [lo, hi) is visited in plain
   increasing order (the cyclic order wraps only at the root), so all
   comparisons are linear.  The broadcast is gated: a node replaces its [bc]
   only after every part-child has copied it, so no member ever skips a
   piece; the convergecast prefetches one index ahead of the parent's
   progress, so the root consumes one piece per O(1) rounds after an O(D)
   warm-up — a cycle takes O(k + D) = O(log n) ideal time (Theorem 7.1). *)

type car = { idx : int; piece : Pieces.t; flag : bool; tag : bool }

type state = {
  up : car option;
  want_idx : int;  (* -1 when idle *)
  bc : car option;
  cursor : int;
  seen : int;  (* bitmask of member-piece levels observed this cycle *)
  complete : bool;  (* all indices observed consecutively this cycle *)
  last_lvl : int;  (* last member level (Top ordering check); -1 at cycle start *)
  alarm : bool;
}

let init =
  {
    up = None;
    want_idx = -1;
    bc = None;
    cursor = 0;
    seen = 0;
    complete = false;
    last_lvl = -1;
    alarm = false;
  }

let init_alarmed = { init with alarm = true }

let bits (s : state) =
  let car_bits = function
    | None -> 1
    | Some c -> 2 + Ssmst_sim.Memory.of_nat c.idx + Pieces.bits c.piece + 1
  in
  car_bits s.up + car_bits s.bc
  + Ssmst_sim.Memory.of_int s.want_idx
  + Ssmst_sim.Memory.of_nat s.cursor
  + Ssmst_sim.Memory.of_nat s.seen + 3
  + Ssmst_sim.Memory.of_int s.last_lvl

(* Register equality, field by field: a step that moves no car returns
   its input, and an unchanged car is shared, so the physical tests
   settle most comparisons. *)
let car_equal a b =
  a == b
  ||
  match (a, b) with
  | Some x, Some y ->
      x.idx = y.idx && x.flag = y.flag && x.tag = y.tag
      && (x.piece == y.piece || Pieces.equal x.piece y.piece)
  | None, None -> true
  | Some _, None | None, Some _ -> false

let equal a b =
  a == b
  || a.want_idx = b.want_idx && a.cursor = b.cursor && a.seen = b.seen
     && a.complete = b.complete && a.last_lvl = b.last_lvl && a.alarm = b.alarm
     && car_equal a.up b.up && car_equal a.bc b.bc

(* One train of a protocol: how a node reads it off a neighbour (the
   neighbour's part label and train state — the verifier reads both of
   its trains off one neighbour register), how it judges a piece under
   the activation's context ['c], and whether levels must arrive in
   order.  A protocol builds each side once, so an activation passes its
   context instead of building closures over it. *)
type ('a, 'c) side = {
  part : 'a -> Partition.node_part_label;
  train : 'a -> state;
  flag_rule : 'c -> Pieces.t -> parent_flag:bool -> bool;
  member : 'c -> Pieces.t -> flag:bool -> bool;
  ordered : bool;
}

let lo (l : Partition.node_part_label) = min (2 * l.dfs_rank) l.k
let hi (l : Partition.node_part_label) = min (2 * (l.dfs_rank + l.subtree)) l.k

let same_part side (lbl : Partition.node_part_label) x =
  (side.part x).Partition.part_root_id = lbl.part_root_id

(* whether every part-child's broadcast buffer holds [target] *)
let child_acked side lbl children (target : car) =
  let ok = ref true and i = ref 0 in
  while !ok && !i < Array.length children do
    let ch = children.(!i) in
    (if same_part side lbl ch then
       match (side.train ch).bc with
       | Some c -> ok := c.idx = target.idx && c.tag = target.tag
       | None -> ok := false);
    incr i
  done;
  !ok

(* the convergecast car a part-child offers for index [e]: the first
   part-child (in port order) whose index range covers [e] *)
let child_car side lbl children e =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < Array.length children do
    let ch = children.(!i) in
    let cl = side.part ch in
    if cl.Partition.part_root_id = lbl.Partition.part_root_id && e >= lo cl && e < hi cl then
      found := !i;
    incr i
  done;
  if !found < 0 then None
  else
    match (side.train children.(!found)).up with
    | Some c as up when c.idx = e -> if c.flag then Some { c with flag = false } else up
    | _ -> None

(* One activation of the node with part label [lbl] and context [ctx].
   Its claimed parent is [nbr.(pport)] ([pport] = -1: none) and
   [children] its claimed children, read through [side]; only those in
   the node's own part (same part root identity) ride this train.
   [side.flag_rule ctx piece ~parent_flag] computes the membership flag
   when loading the piece into [bc]; [side.member ctx piece ~flag]
   decides whether the broadcast piece belongs to this node's own
   fragment at the piece's level; [required] is the level bitmask the
   cycle-set check must cover; [side.ordered] enables the
   strictly-increasing-levels check (Top trains); [hold] delays the
   broadcast while a neighbour's request is being served (Section 7.2,
   asynchronous mode). *)
let step side ctx ~(lbl : Partition.node_part_label) ~required ~(nbr : 'a array) ~pport ~children
    ~hold (s : state) =
  let k = lbl.k in
  if k = 0 then
    (* nothing to carry: alarm iff some level is required anyway *)
    if s.alarm || required <> 0 then init_alarmed else init
  else begin
    let is_root = lbl.dfs_rank = 0 in
    let lo_v = lo lbl and hi_v = hi lbl in
    let cursor = ((s.cursor mod k) + k) mod k in
    (* the parent's train, when the parent rides this one; [s] stands in
       otherwise and is never read as the parent's *)
    let has_parent = pport >= 0 && same_part side lbl nbr.(pport) in
    let ptrain = if has_parent then side.train nbr.(pport) else s in
    (* ---- convergecast: compute the demanded index (-1: none) ---- *)
    let demand =
      if is_root then cursor
      else if not has_parent then -1
      else
        match ptrain.up with
        | Some c when c.idx >= lo_v && c.idx < hi_v ->
            if c.idx + 1 >= lo_v && c.idx + 1 < hi_v then c.idx + 1 else -1
        | Some _ | None ->
            let w = ptrain.want_idx in
            if w >= 0 && w >= lo_v && w < hi_v then w else -1
    in
    let up =
      if demand < 0 then None
      else
        match s.up with
        | Some c when c.idx = demand -> s.up
        | _ ->
            let i = demand - (2 * lbl.dfs_rank) in
            if i >= 0 && i < Array.length lbl.own then
              Some { idx = demand; piece = lbl.own.(i); flag = false; tag = false }
            else child_car side lbl children demand
    in
    let want_idx = demand in
    (* ---- broadcast ---- *)
    (* the parity tag distinguishes successive deliveries of the same index
       (k = 1 parts and post-fault recovery) *)
    let incoming =
      if is_root then
        (* consume the staged car when every child copied the current one *)
        match s.bc with
        | Some c when not (child_acked side lbl children c) -> None
        | _ -> (
            if hold then None
            else
              let tag = match s.bc with Some c -> not c.tag | None -> false in
              match up with
              | Some u when u.idx = cursor ->
                  Some { u with flag = side.flag_rule ctx u.piece ~parent_flag:false; tag }
              | _ -> None)
      else if not has_parent then None
      else
        match ptrain.bc with
        | Some pc as bc
          when (match s.bc with
               | Some c -> c.idx <> pc.idx || c.tag <> pc.tag
               | None -> true)
               && (match s.bc with Some c -> child_acked side lbl children c | None -> true)
               && not hold ->
            (* the parent's buffer itself when the flag carries over *)
            let flag = side.flag_rule ctx pc.piece ~parent_flag:pc.flag in
            if flag = pc.flag then bc else Some { pc with flag }
        | _ -> None
    in
    match incoming with
    | None ->
        (* an unchanged register is returned as is: the caller's new
           register then shares it instead of copying it *)
        if up == s.up && want_idx = s.want_idx && cursor = s.cursor then s
        else { s with up; want_idx; cursor }
    | Some car as bc ->
        (* cycle bookkeeping on each newly observed index *)
        let wrapped = car.idx = 0 in
        let consecutive =
          match s.bc with
          | Some old -> car.idx = old.idx + 1 || (wrapped && old.idx = k - 1)
          | None -> false
        in
        let alarm_cycle =
          (* a completed cycle must have covered all required levels *)
          wrapped && s.complete
          && (match s.bc with Some old -> old.idx = k - 1 | None -> false)
          && s.seen land required <> required
        in
        let is_member = side.member ctx car.piece ~flag:car.flag in
        let alarm_order =
          side.ordered && is_member && (not wrapped) && s.last_lvl >= 0
          && car.piece.Pieces.level <= s.last_lvl
        in
        let seen0 = if wrapped then 0 else s.seen in
        let last0 = if wrapped then -1 else s.last_lvl in
        let seen =
          if is_member then seen0 lor (1 lsl min car.piece.Pieces.level 60) else seen0
        in
        let last_lvl = if is_member then car.piece.Pieces.level else last0 in
        let complete = if wrapped then consecutive else s.complete && consecutive in
        let cursor = if is_root then (cursor + 1) mod k else cursor in
        let up = if is_root then None else up in
        {
          up;
          want_idx;
          bc;
          cursor;
          seen;
          complete;
          last_lvl;
          alarm = s.alarm || alarm_cycle || alarm_order;
        }
  end

(* Arbitrary corruption for fault injection. *)
let corrupt st (s : state) =
  let rnd_car () =
    if Random.State.bool st then None
    else
      Some
        {
          idx = Random.State.int st 64;
          piece = Pieces.random st;
          flag = Random.State.bool st;
          tag = Random.State.bool st;
        }
  in
  {
    s with
    up = rnd_car ();
    bc = rnd_car ();
    cursor = Random.State.int st 64;
    want_idx = Random.State.int st 64 - 1;
    seen = Random.State.int st 4096;
    complete = Random.State.bool st;
    last_lvl = Random.State.int st 12 - 1;
  }

(* ---------------- packed codec (Network.Flat) ---------------- *)

(* presence + idx + piece + flag + tag *)
let car_words = 4 + Pieces.packed_words

let pack_car c buf off =
  match c with
  | None -> Array.fill buf off car_words 0
  | Some c ->
      buf.(off) <- 1;
      buf.(off + 1) <- c.idx;
      Pieces.pack c.piece buf (off + 2);
      buf.(off + 2 + Pieces.packed_words) <- Bool.to_int c.flag;
      buf.(off + 3 + Pieces.packed_words) <- Bool.to_int c.tag

let unpack_car buf off =
  if buf.(off) = 0 then None
  else
    Some
      {
        idx = buf.(off + 1);
        piece = Pieces.unpack buf (off + 2);
        flag = buf.(off + 2 + Pieces.packed_words) = 1;
        tag = buf.(off + 3 + Pieces.packed_words) = 1;
      }

let packed_words = (2 * car_words) + 6

let pack (s : state) buf off =
  pack_car s.up buf off;
  buf.(off + car_words) <- s.want_idx;
  pack_car s.bc buf (off + car_words + 1);
  let b = off + (2 * car_words) + 1 in
  buf.(b) <- s.cursor;
  buf.(b + 1) <- s.seen;
  buf.(b + 2) <- Bool.to_int s.complete;
  buf.(b + 3) <- s.last_lvl;
  buf.(b + 4) <- Bool.to_int s.alarm

let unpack buf off =
  let b = off + (2 * car_words) + 1 in
  {
    up = unpack_car buf off;
    want_idx = buf.(off + car_words);
    bc = unpack_car buf (off + car_words + 1);
    cursor = buf.(b);
    seen = buf.(b + 1);
    complete = buf.(b + 2) = 1;
    last_lvl = buf.(b + 3);
    alarm = buf.(b + 4) = 1;
  }
