open Ssmst_graph

(** Fragments and fragment hierarchies (Definitions 5.1 and 5.2).

    A fragment is a connected subtree of the spanning tree T; a hierarchy is
    a laminar family containing T and all singletons, forming a rooted
    hierarchy-tree under inclusion.  Non-whole fragments carry a
    {e candidate} outgoing edge; Lemma 5.1: a well-formed hierarchy whose
    candidates are all minimum outgoing edges certifies that T is the MST. *)

type t = {
  index : int;  (** position in the hierarchy array *)
  level : int;  (** the SYNC_MST phase at which the fragment was active *)
  root : int;  (** the member closest to the root of T (Section 5.1) *)
  members : int array;  (** sorted node indices *)
  candidate : (int * int) option;  (** (w, x), w inside; [None] for T *)
  parent : int;  (** hierarchy-tree parent index; -1 for T *)
  children : int list;
}

type hierarchy = {
  tree : Tree.t;
  frags : t array;
  whole : int;  (** index of the fragment equal to T *)
  height : int;  (** ell, the level of T *)
  of_node : int list array;  (** containing fragments per node, by level *)
}

val size : t -> int

val mem : t -> int -> bool
(** Fragment membership (binary search). *)

val ident : Graph.t -> t -> int * int
(** ID(F) = (identity of the root, level), Section 6. *)

val at : hierarchy -> int -> int -> t option
(** [at h v j] is the level-[j] fragment containing [v], if any. *)

val levels_of : hierarchy -> int -> int list
(** J(v): the levels at which [v] belongs to a fragment (Section 8). *)

val build :
  Tree.t -> (int * int * int list * (int * int) option) list -> hierarchy
(** [build tree records] assembles and validates a hierarchy from
    [(level, operational_root, members, candidate)] records: laminarity,
    presence of T and all singletons, strictly increasing levels along
    containment, connectivity, and candidates being outgoing tree edges.
    Roots are recomputed as the members closest to the root of T.
    @raise Graph.Malformed on any violation. *)

val well_formed : hierarchy -> bool
(** Property P1 + candidate-function validity: every fragment's edge set is
    exactly the candidates of its strict descendants (Definition 5.2). *)

val minimal : hierarchy -> Mst.weight_fn -> bool
(** Property P2: every candidate is a minimum outgoing edge. *)

val implies_mst : hierarchy -> Mst.weight_fn -> bool
(** Lemma 5.1, executable: {!well_formed} and {!minimal}. *)
