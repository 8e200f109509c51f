(** Hop distances, eccentricities and diameters (BFS), used for detection
    distance measurements and partition checks. *)

val bfs : Graph.t -> int -> int array
(** Hop distances from a source; [-1] for unreachable nodes. *)

val bfs_within : Graph.t -> member:(int -> bool) -> int -> int array
(** BFS restricted to the subgraph induced by [member]. *)

val eccentricity : Graph.t -> int -> int

val diameter : Graph.t -> int

val detection_distance : Graph.t -> faults:int list -> alarms:int list -> int option
(** The paper's detection distance (Section 2.4): the maximum over
    [faults] of the hop distance to the closest member of [alarms].
    Alarms unreachable from a given fault are skipped; the result is
    [None] when [alarms] is empty or some fault has no reachable alarm at
    all (an honest "unreachable" instead of a [max_int] artefact). *)
