open Ssmst_graph

(** The Section 5 label strings and their one-round verification.

    Each node carries four strings of [ell + 1] entries (ell = hierarchy
    height): [roots] (fragment-root indicators per level), [endp] (candidate
    endpoint directions), [parents] (the down-pointer bits stored at
    children to keep parents within O(log n) bits), and [cnt] (the
    endpoint-count aggregation verifying condition EPS1, whose OR projection
    is Table 2's "Or-EndP").  Legality is conditions RS0–RS5 and EPS0–EPS5
    (Lemmas 5.2/5.3), all checkable by reading tree neighbours only. *)

type rsym = R1 | R0 | RStar
type esym = Up | Down | ENone | EStar

type t = {
  len : int;  (** ell + 1 entries, levels 0..ell *)
  roots : rsym array;
  endp : esym array;
  parents : bool array;
  cnt : int array;  (** 0, 1, or 2 ("two or more") *)
}

val bits : t -> int

val pp_rsym : Format.formatter -> rsym -> unit
val pp_esym : Format.formatter -> esym -> unit

val of_hierarchy : Fragment.hierarchy -> t array
(** The marker (Lemma 5.4): derive all four strings from the hierarchy. *)

val check :
  (string -> unit) -> t -> parent:t option -> children:t array -> is_root:bool -> unit
(** [check fail l ~parent ~children ~is_root] runs conditions RS0–RS5 and
    EPS0–EPS5 at a node with label [l], given the labels of its claimed
    tree parent and children, and calls [fail] with the name of every
    violated condition, in a fixed order.  Allocation-free. *)

val check_node : t -> parent:t option -> children:t array -> is_root:bool -> string list
(** The names {!check} reports, in order (empty = accept). *)

(** Read access to the labels over a trusted tree, for tests and tools
    that check every node at once. *)
type view = {
  label : int -> t;
  parent : int -> int option;
  children : int -> int list;
  is_root : int -> bool;
}

val check_view : view -> int -> string list
(** {!check_node} at node [v] of the view. *)

val check_all : view -> int -> string list list

val view_of_tree : Tree.t -> t array -> view
(** A view over a trusted tree, for tests. *)

val belongs : t -> int -> bool
(** Whether the node belongs to a level-[j] fragment. *)

val is_frag_root : t -> int -> bool

val candidate_edge : view -> int -> int -> [ `Up of int | `Down of int ] option
(** The tree edge that is node [v]'s level-[j] candidate, when [v] is its
    endpoint; the down case is resolved through the children's parents
    bits. *)

val same_fragment_as_parent : view -> node:int -> int -> bool
(** Whether [node] shares its (claimed) parent's level-[j] fragment. *)
