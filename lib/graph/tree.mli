(** Rooted spanning trees and their distributive representation by
    {e components} (Section 2.1): each node stores at most one pointer (a
    port number) towards a neighbour; the induced subgraph H(G) contains an
    edge iff some endpoint points at the other. *)

type component = int option array
(** [c.(v) = Some p]: node [v] points through its port [p]; [None]: no
    pointer.  This is the untrusted on-network representation. *)

type t
(** A validated rooted spanning tree. *)

val of_parents : Graph.t -> int array -> t
(** Build from a parent array ([-1] at the root).  @raise Graph.Malformed
    unless the pointers follow graph edges and form one spanning tree. *)

val of_components : Graph.t -> component -> t
(** Interpret a component array per Example SP: the pointerless node is the
    root; a mutually-pointing pair is rooted at its higher-identity end.
    @raise Graph.Malformed if H(G) is not a spanning tree. *)

val to_components : t -> component
(** The distributive representation: every non-root points at its parent. *)

val graph : t -> Graph.t

val root : t -> int

val parent : t -> int -> int option

val children : t -> int -> int list
(** Children in increasing port order at the parent. *)

val depth : t -> int -> int

val height : t -> int

val n : t -> int

val is_tree_edge : t -> int -> int -> bool

val tree_edges : t -> (int * int) list
(** All (child, parent) pairs. *)

val dfs_order : t -> int list
(** Pre-order DFS (children in port order), the order used for placing train
    pieces (Section 6.2). *)

val subtree_sizes : t -> int array

val total_base_weight : t -> int

val pp : Format.formatter -> t -> unit
