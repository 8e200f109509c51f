(** The train (Section 7.1): per partition part, a pipelined convergecast
    brings the pieces stored along the part's DFS order to the part root,
    and a gated pipelined broadcast shows every piece to every member,
    cyclically — a full cycle in O(k + D) = O(log n) ideal time
    (Theorem 7.1).  All registers are O(log n) bits.

    The step function is driven by the verifier, which supplies the
    membership flag rule (Section 7.1's on/off refinement for Bottom
    trains), the member decision, the required level set for the Section 8
    cycle-set check, the Top-train ordering check, and the asynchronous
    hold signal of Section 7.2. *)

type car = {
  idx : int;  (** global piece index within the part's cyclic order *)
  piece : Pieces.t;
  flag : bool;  (** membership flag (Bottom trains) *)
  tag : bool;  (** delivery parity: distinguishes revisits of an index *)
}

type state = {
  up : car option;  (** convergecast car *)
  want_idx : int;  (** index sought from the children; -1 when idle *)
  bc : car option;  (** broadcast buffer (the node's Show feed) *)
  cursor : int;  (** part root only: next index to broadcast *)
  seen : int;  (** bitmask of member-piece levels observed this cycle *)
  complete : bool;  (** whether all indices arrived consecutively *)
  last_lvl : int;  (** ordering check (Top trains) *)
  alarm : bool;
}

val init : state

val bits : state -> int

(** How a node reads this train off a neighbour: the neighbour's part
    label and its train state. *)
type 'a side = { part : 'a -> Partition.node_part_label; train : 'a -> state }

val lo : Partition.node_part_label -> int
(** First global piece index owned by the node's subtree. *)

val hi : Partition.node_part_label -> int

val own_piece : Partition.node_part_label -> int -> Pieces.t option

val step :
  side:'a side ->
  lbl:Partition.node_part_label ->
  parent:'a option ->
  children:'a array ->
  flag_rule:(Pieces.t -> parent_flag:bool -> bool) ->
  member:(Pieces.t -> flag:bool -> bool) ->
  required:int ->
  ordered:bool ->
  hold:bool ->
  state ->
  state
(** One activation.  [parent] and [children] (in port order) are the
    node's claimed tree neighbours, read through [side]; those outside the
    node's own part (another part root identity) are ignored, so one
    array of neighbour registers serves both of a node's trains. *)

val corrupt : Random.State.t -> state -> state
(** Arbitrary register corruption, for fault injection. *)

val packed_words : int
(** Fixed packed image size of a train register (26 words). *)

val pack : state -> int array -> int -> unit
(** [pack s buf off] writes the [packed_words]-word image at [off];
    deterministic (absent cars zero their slots). *)

val unpack : int array -> int -> state
(** Exact inverse of [pack]. *)
