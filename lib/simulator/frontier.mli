(** Dense dirty-node frontier for the event-driven engines.

    The event-driven engine ({!Network.Core}, behind both {!Network.Make}
    and {!Network.Flat}) schedules work off this structure: a per-node dirty flag plus the set of currently-dirty node
    ids.  The engines used to keep that set as an [int list], which made
    the per-round drain — [List.filter] over the entries plus a
    polymorphic [List.sort compare] — the single largest allocation site
    of a synchronous round (42% of flat round wall time and ~15 M minor
    words per round at n = 250 000; see EXPERIMENTS.md PROF).

    A [Frontier.t] replaces the list with preallocated flat storage:

    - [dirty : bool array] — the membership flags, exactly as before;
    - an entry buffer ([int array] + count) holding every node whose flag
      went false→true since the last {!drain}/{!compact}, in insertion
      order, possibly interleaved with {e stale} entries (nodes whose
      flag was since cleared by {!unmark}) and at most one {e live}
      duplicate per node (a stale entry shadowed by a later re-mark);
    - a second preallocated buffer that {!drain} fills with the live
      members in ascending node id.

    Steady state allocates nothing: marks are array stores, the drain is
    either an in-place monomorphic sort of the collected members (sparse
    frontiers) or an ordered scan of the flag array (dense frontiers) —
    both produce the same ascending, duplicate-free member sequence, so
    the choice of path is unobservable.  Ascending drain order is a
    contract, not an accident: it is what makes the engines' per-round
    event order (traces, hooks, recorder deltas) canonical and
    byte-stable across engine refactors (DESIGN.md "Frontier"). *)

type t

val create : ?all_dirty:bool -> int -> t
(** A frontier over nodes [0 .. n-1].  [all_dirty] (default [true])
    starts with every node marked — the engines' initial state. *)

val n : t -> int
(** The node universe size the frontier was created with. *)

val mem : t -> int -> bool
(** Whether the node's dirty flag is set. *)

val mark : t -> int -> unit
(** Set the flag; pushes an entry iff the node was clean (so a node
    already dirty costs one array read).  O(1) amortized — the entry
    buffer grows only when async-round flag churn leaves more stale
    entries than the initial capacity, and never shrinks. *)

val unmark : t -> int -> unit
(** Clear the flag without removing the node's entry — the async rounds'
    "this node just fired" transition.  The entry goes stale and is
    dropped by the next {!drain} or {!compact}. *)

val is_empty : t -> bool
(** No entries at all (live or stale) — the engines' cheap
    "quiescent round" test that gates the telemetry probes. *)

val drain : t -> int array * int
(** [(members, m)]: clear every dirty flag and return the live members
    as [members.(0 .. m-1)] in strictly ascending node id, stale entries
    and duplicates dropped.  The returned array is the frontier's
    internal member buffer: it is valid until the next [drain] and must
    not be mutated.  Marks made after [drain] returns accumulate for the
    next round and never alias the returned prefix. *)

val compact : t -> unit
(** Drop stale entries and duplicates in place, keeping the flags as
    they are: after [compact], every entry is live and every dirty node
    has exactly one entry — the end-of-async-round sweep that stops
    within-round flag churn from accumulating across rounds. *)

val length : t -> int
(** Entries currently buffered, including stale ones and duplicates
    (diagnostics / regression tests; [length t = live t] right after
    {!drain}, {!compact} or {!create}). *)

val live : t -> int
(** Set flags, counted by an O(n) scan (diagnostics / tests only). *)

val fill : t -> unit
(** Mark every node, resetting the entry buffer to the identity
    permutation — the bulk-restore path.  Equivalent to marking
    [0 .. n-1] in order after a {!compact}, but O(n) flat stores. *)

val sort : int array -> int -> unit
(** [sort a m] sorts the prefix [a.(0 .. m-1)] ascending in place with a
    monomorphic int comparator (insertion sort on small ranges, else
    median-of-three quicksort) — no closure over polymorphic [compare],
    no allocation.  Exposed for reuse and for the QCheck properties. *)
