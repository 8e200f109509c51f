(** Composite edge weights with the lexicographic distinction transform ω′ of
    Kor–Korman–Peleg, as recalled in footnote 1 of the paper.

    A weight compares by base weight first, then by the tree-membership
    indicator (candidate-tree edges win ties), then by the endpoint
    identities.  The transform guarantees distinct weights while preserving
    MST-ness of the candidate subgraph in both directions. *)

type t = {
  base : int;  (** the original weight ω(e) *)
  anti_tree : int;  (** [1 - Y] where [Y] = 1 iff the edge is in the candidate tree *)
  id_min : int;  (** smaller endpoint identity *)
  id_max : int;  (** larger endpoint identity *)
}

val make : base:int -> in_tree:bool -> id_u:int -> id_v:int -> t
(** [make ~base ~in_tree ~id_u ~id_v] is ω′ of an edge; endpoint order is
    irrelevant. *)

val compare : t -> t -> int
(** Total lexicographic order. *)

val compare_edge : t -> base:int -> in_tree:bool -> id_u:int -> id_v:int -> int
(** [compare_edge a ~base ~in_tree ~id_u ~id_v] is
    [compare a (make ~base ~in_tree ~id_u ~id_v)], without allocating. *)

val equal : t -> t -> bool

val ( < ) : t -> t -> bool

val ( <= ) : t -> t -> bool

val infinity : t
(** A weight above every weight built by {!make}; the identity for minimum
    computations. *)

val is_infinity : t -> bool

val pp : Format.formatter -> t -> unit

val to_string : t -> string

val bits : t -> int
(** Serialized size in bits; O(log n) for weights polynomial in n. *)

val bit_length : int -> int
(** [bit_length x] is the number of bits of [x > 0] (1 for [x <= 0]), in
    integer arithmetic: the per-component size behind {!bits}. *)
