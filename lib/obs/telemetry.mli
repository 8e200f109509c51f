(** The phase profiler: one calling-context tree whose every frame carries
    two costs under one name.

    - The paper's logical cost — ideal-time rounds, activations, register
      writes and the register-bit high-water mark — fed by explicit
      charges ({!Ssmst_parallel.Probe.charge}: SYNC_MST's timetable, the
      marker's passes, the transformer's regimes, campaign trials) or by
      sampling an engine's {!Ssmst_sim.Metrics} around a frame
      ({!metered}).
    - The physical cost — wall seconds ([Unix.gettimeofday]) and
      [Gc.quick_stat] deltas (minor/major words allocated, collection
      counts) — measured between each frame's enter and leave.

    Frames come from the {!Ssmst_parallel.Probe} probes in the engines'
    sync rounds, {!Ssmst_parallel.Domain_pool.run}'s worker stamps,
    SYNC_MST, the marker, the transformer and campaign trials.  Frames are
    lexical — a child of the frame open when it was entered — and
    same-name siblings share one node whose [calls] add up.  Every count
    is inclusive: a node covers its children.

    Telemetry is strictly out-of-band: installing it changes no register,
    metric, alarm, trace or hook byte at any [-d]/[-j] (the identity suite
    asserts this with a profiler attached).  Renderings: a per-phase table
    (markdown/CSV), a [chrome://tracing] JSON trace (one track per worker
    domain), and a JSON block for {!Report.to_json}; {!Report} renders the
    tree's logical columns.

    Threading: {!enter}/{!leave}/{!charge} are main-domain only; worker
    domains only call the clock (via [Probe.now]), which must then be
    domain-safe ([Unix.gettimeofday] is; the {!fake} clock is not).
    Retroactive worker spans carry wall time but no allocation. *)

type gc_sample = {
  minor_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
}

(** One node of the tree (see {!root}), or one row of the by-name fold
    (see {!phases}). *)
type phase = {
  name : string;
  mutable calls : int;  (** completed enter/leave pairs *)
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : float;
  mutable major_collections : float;
  mutable rounds : int;
  mutable activations : int;
  mutable writes : int;
  mutable peak_bits : int;  (** maxed, not summed *)
  mutable children_rev : phase list;  (** newest first; see {!children} *)
}

type t

val create : ?clock:(unit -> float) -> ?gc:(unit -> gc_sample) -> ?max_events:int -> unit -> t
(** Defaults: [Unix.gettimeofday]; a GC sampler with exact words
    ([Gc.minor_words], [Gc.counters]) and collection counts served from a
    [Gc.quick_stat] cache refreshed at most once per half minor heap of
    allocation (the raw quick_stat is ~1.2 us a call — too slow for the
    per-round probes); and a 200_000-event cap on the Chrome-trace buffer
    — beyond it events are counted as dropped, accumulation never stops.
    Inject [clock]/[gc] for deterministic tests. *)

val fake : unit -> t
(** A deterministic profiler: a clock ticking 1 ms per call and a zeroed
    GC sampler, so every rendering below is byte-identical across runs of
    the same (single-domain) workload. *)

val enter : t -> string -> unit
(** Open a frame under the innermost open one, reusing the same-name
    child node when there is one. *)

val leave : t -> string -> unit
(** Close the innermost open frame (the name argument is advisory) and
    add its wall time and allocation to its node. *)

val charge : t -> rounds:int -> activations:int -> writes:int -> peak_bits:int -> unit
(** Add logical cost to the root and every open frame. *)

val span : t -> tid:int -> string -> float -> float -> unit
(** A retroactive interval on worker track [tid] (from
    [Domain_pool.run]'s stamps), accumulated with wall time only under a
    ["name.d<tid>"] child of the innermost open frame. *)

val metered : string -> Ssmst_sim.Metrics.t -> (unit -> 'a) -> 'a
(** [metered name m f] runs [f] inside a [name] probe frame charged the
    delta of [m]'s rounds, activations and register writes and its final
    peak bits (exception-safe); plain [f ()] when nothing is installed.
    Nothing inside may charge too, or the costs count twice. *)

val sink : t -> Ssmst_parallel.Probe.sink
val install : t -> unit
(** [Probe.install (sink t)] — from here every probe feeds [t]. *)

val uninstall : unit -> unit

val root : t -> phase
(** The tree's root, named ["run"]: the logical totals of everything
    charged.  Its physical fields stay zero; see {!total_wall_s}. *)

val children : phase -> phase list
(** Oldest-first. *)

val depth_first : phase -> (int * phase) list
(** Pre-order walk with depths. *)

val phases : t -> phase list
(** The tree folded by name, root excluded: one row per name, in the
    order names first close (post-order); calls, wall, allocation,
    rounds, activations and writes summed, peak bits maxed. *)

val total_wall_s : t -> float
(** Last observed clock reading minus creation: the denominator of the
    table's %% column. *)

val dropped_events : t -> int

val to_markdown : t -> string
val to_csv : t -> string
val to_json : t -> string
(** The machine-readable block {!Report.set_telemetry} folds into
    {!Report.to_json}:
    [{"total_wall_s":..,"dropped_events":..,"phases":[..]}]. *)

val to_chrome_trace : t -> string
(** A [chrome://tracing]-loadable object: complete ("ph":"X") events in
    microseconds relative to the profiler's creation, [pid] 0, [tid] =
    worker-domain index (main-domain phases on track 0). *)
