open Ssmst_graph

(** The end-to-end marker M (Corollary 6.11): SYNC_MST, the Section 5
    strings, the two partitions and the train initialization, assembled
    into one label per node.  O(n) construction time, O(log n) bits per
    node. *)

(** Everything one node stores persistently: its component (parent port),
    the Example SP and NumK fields, the Section 5 strings, its two part
    labels with the at most two pieces each, and the Top/Bottom level
    delimiter. *)
type node_label = {
  comp_port : int option;
  sp_root : int;
  sp_depth : int;
  nk_n : int;
  nk_sub : int;
  strings : Labels.t;
  top : Partition.node_part_label;
  bot : Partition.node_part_label;
  delim : int;
}

type t = {
  graph : Graph.t;
  tree : Tree.t;
  hierarchy : Fragment.hierarchy;
  assignment : Partition.assignment;
  labels : node_label array;
  construction_rounds : int;  (** measured ideal time of the marker *)
  label_bits : int;  (** max label size over the nodes *)
}

val label_bits : node_label -> int

val partition_rounds : Fragment.hierarchy -> int
(** Round cost of the Multi_Wave-based partition construction and train
    initialization (Sections 6.3.1–6.3.8); O(n). *)

val of_hierarchy : ?construction_rounds:int -> ?threshold:int -> Fragment.hierarchy -> t
(** Assemble the labels for a given (already validated) hierarchy. *)

val run : ?threshold:int -> Graph.t -> t
(** The honest marker: SYNC_MST + all labels.  [threshold] overrides the
    Θ(log n) top/bottom cut-off (the ablation experiment).  With a
    profiler installed, SYNC_MST's phase frames are followed by a
    ["marker-assembly"] frame around the label assembly, charged the
    partition-construction rounds. *)

val forge : Graph.t -> Tree.t -> t
(** The strongest adversary for tests and lower-bound experiments: labels an
    honest marker would compute {e if the given spanning tree were the MST};
    every structural check passes and only the minimality checks C1/C2 can
    (and, by Lemma 8.4, must) expose a non-MST. *)

val components : t -> Tree.component
(** The component array the marker leaves in the network. *)

val linear_bound : t -> bool
(** Whether the measured construction time is within the O(n) envelope. *)
