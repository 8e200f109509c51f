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

val equal : state -> state -> bool
(** Register equality, field by field ([=] on the record, without the
    polymorphic compare). *)

(** One train of a protocol: how a node reads it off a neighbour, how it
    judges a piece under the activation's context ['c], and whether levels
    must arrive in order.  Built once per protocol, so an activation
    passes its context instead of building closures over it. *)
type ('a, 'c) side = {
  part : 'a -> Partition.node_part_label;  (** a neighbour's part label *)
  train : 'a -> state;  (** a neighbour's train *)
  flag_rule : 'c -> Pieces.t -> parent_flag:bool -> bool;
      (** the membership flag of a piece loaded into the broadcast buffer *)
  member : 'c -> Pieces.t -> flag:bool -> bool;
      (** whether a broadcast piece belongs to the node's own fragment *)
  ordered : bool;  (** levels must arrive strictly increasing (Top trains) *)
}

val lo : Partition.node_part_label -> int
(** First global piece index owned by the node's subtree. *)

val hi : Partition.node_part_label -> int

val step :
  ('a, 'c) side ->
  'c ->
  lbl:Partition.node_part_label ->
  required:int ->
  nbr:'a array ->
  pport:int ->
  children:'a array ->
  hold:bool ->
  state ->
  state
(** [step side ctx ~lbl ~required ...] is one activation of the node with
    part label [lbl] and context [ctx].  [nbr.(pport)] is its claimed
    parent ([pport] = -1: none) and [children] (in port order) its
    claimed children, read through [side]; those outside the node's own
    part (another part root identity) are ignored, so one array of
    neighbour registers serves both of a node's trains.  [required] is
    the level set a cycle must cover (Section 8). *)

val corrupt : Random.State.t -> state -> state
(** Arbitrary register corruption, for fault injection. *)

val packed_words : int
(** Fixed packed image size of a train register (26 words). *)

val pack : state -> int array -> int -> unit
(** [pack s buf off] writes the [packed_words]-word image at [off];
    deterministic (absent cars zero their slots). *)

val unpack : int array -> int -> state
(** Exact inverse of [pack]. *)
