(** Weighted undirected graphs in the paper's model (Section 2.1).

    Nodes are indexed [0 .. n-1] and carry unique O(log n)-bit identities.
    Each node numbers its incident edges with local {e port numbers}
    independent of the numbering at the other endpoint.  Base weights are
    integers polynomial in n; distinctness is not assumed — use
    {!weight_fn} / {!plain_weight_fn} for the ω′ transform.

    The representation is CSR: flat int arrays of row offsets, peers and
    weights, plus a per-row peer-sorted port index that answers
    {!port_to} / {!has_edge} / {!base_weight} by binary search.  There are
    no per-node heap structures, so graphs scale to millions of nodes at a
    few words per half-edge. *)

type t

exception Malformed of string
(** Raised on invalid constructions (self-loops, parallel edges, duplicate
    identities, disconnected parent structures, ...). *)

val of_edges : ?ids:int array -> n:int -> (int * int * int) list -> t
(** [of_edges ~n edges] builds a graph from [(u, v, weight)] triples.  Port
    numbers follow the list order.  Default identities are the node
    indices.  @raise Malformed on self-loops, parallel edges, out-of-range
    endpoints or duplicate identities. *)

val of_stream : ?ids:int array -> n:int -> ((int -> int -> int -> unit) -> unit) -> t
(** [of_stream ~n emit] builds a graph from a {e repeatable} edge stream:
    [emit f] must call [f u v w] once per undirected edge and must produce
    the identical sequence each time it is invoked.  The builder runs two
    passes (degree count, CSR fill), so construction needs no intermediate
    edge list — the O(1)-memory entry point for million-node generators.
    Port numbers follow stream order.  @raise Malformed as {!of_edges},
    and on a stream that changes between the passes. *)

val reweight : t -> (int -> int -> int -> int) -> t
(** [reweight g f] is [g] with edge (u,v) of weight [w] re-priced to
    [f u v w]; topology, identities and port numbers are preserved. *)

val n : t -> int

val id : t -> int -> int
(** The unique identity of a node. *)

val node_of_id : t -> int -> int
(** Inverse of {!id}.  @raise Not_found if no node carries the identity. *)

val degree : t -> int -> int

val max_degree : t -> int
(** Δ, the maximum degree. *)

val neighbours : t -> int -> int array
(** The peers of a node in port order.  Allocates; prefer {!iter_ports} on
    hot paths. *)

val iter_ports : t -> int -> (int -> int -> unit) -> unit
(** [iter_ports g v f] calls [f port peer] for every incident edge of [v]
    in port order.  Allocation-free — the protocol-step read loop. *)

val fold_ports : t -> int -> ('a -> int -> int -> 'a) -> 'a -> 'a
(** [fold_ports g v f acc] folds [f acc port peer] over [v]'s ports in
    port order. *)

val exists_ports : t -> int -> (int -> int -> bool) -> bool
(** [exists_ports g v pred] is true iff [pred port peer] holds for some
    incident edge of [v]. *)

val for_all_ports : t -> int -> (int -> int -> bool) -> bool
(** [for_all_ports g v pred] is true iff [pred port peer] holds for every
    incident edge of [v]. *)

val port_to : t -> int -> int -> int
(** [port_to g u v] is the port number at [u] of the edge to [v].
    O(log deg) binary search over the peer-sorted port index. *)

val peer_at : t -> int -> int -> int
(** [peer_at g u p] is the node at the other end of [u]'s port [p].
    @raise Invalid_argument ["Graph.port: port out of range"] unless
    [0 <= p < degree g u]. *)

val weight_at : t -> int -> int -> int
(** [weight_at g u p] is the base weight of [u]'s port [p].
    @raise Invalid_argument ["Graph.port: port out of range"] unless
    [0 <= p < degree g u], as {!peer_at}. *)

val csr : t -> int array * int array
(** [csr g] is [(off, peers)], the CSR row offsets and peers themselves:
    [u]'s port [p] leads to [peers.(off.(u) + p)] for
    [0 <= p < off.(u + 1) - off.(u)].  Read-only: for an engine that
    resolves ports on its hot path without a call per read.  Writing to
    either array corrupts the graph. *)

val has_edge : t -> int -> int -> bool
(** O(log deg) binary search over the peer-sorted port index. *)

val base_weight : t -> int -> int -> int
(** The base weight of an existing edge. *)

val fold_edges : ('a -> int -> int -> int -> 'a) -> 'a -> t -> 'a
(** Fold over undirected edges, each visited once as [(u, v, w)] with
    [u < v]. *)

val edges : t -> (int * int * int) list

val num_edges : t -> int
(** O(1): half the flat adjacency length. *)

val storage_words : t -> int
(** The measured flat footprint of the graph in 64-bit words (ids, offsets
    and the three half-edge arrays): the denominator of the scale
    experiments' bytes-per-node story. *)

val weight_fn : t -> in_tree:(int -> int -> bool) -> int -> int -> Weight.t
(** ω′ relative to a claimed candidate tree: [in_tree u v] states whether
    the undirected edge (u,v) is claimed to belong to it. *)

val plain_weight_fn : t -> int -> int -> Weight.t
(** ω′ without the tree indicator; already distinct thanks to the identity
    tie-breaks.  Used by constructions. *)

val is_connected : t -> bool

val pp : Format.formatter -> t -> unit
