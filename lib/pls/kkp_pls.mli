open Ssmst_core

(** The Korman–Kutten 1-proof labeling scheme for MST ([54, 55]): the
    baseline this paper improves on.  Detection time exactly 1, memory
    Θ(log² n) bits per node — every node stores the full piece I(F_j(v))
    for each of its levels next to the Section 5 strings, so all agreement
    and minimality checks (C1/C2) are answerable in a single round. *)

type label = {
  base : Marker.node_label;  (** strings, SP, NumK (part labels unused) *)
  pieces : Pieces.t option array;  (** [pieces.(j)] = I(F_j(v)) *)
}

type t = { marker : Marker.t; labels : label array }

val bits : label -> int

val max_bits : t -> int

val mark : Marker.t -> t
(** The marker: keep all pieces at every node. *)

val check_node : t -> int -> string list
(** The one-round verifier at a node; names of violated checks. *)

val check_node_with : Marker.t -> own:label -> (int -> label) -> int -> string list
(** [check_node_with m ~own at v] is {!check_node} at node [v] with label
    [own], against the neighbour labels [at p] returns by port; it reads
    each of [v]'s ports once. *)

val accepts : t -> bool

val rejecting_nodes : t -> int list

val measure_lower_bound :
  seed:int -> h:int -> tau:int -> positive:bool -> Lower_bound.datapoint * bool
(** The KKP side of the Section 9 trade-off experiment: label bits
    Θ(log² n), detection in one round; the boolean is whether the scheme
    rejected. *)
