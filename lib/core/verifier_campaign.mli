open Ssmst_graph
open Ssmst_sim

(** The verifier instantiation of {!Ssmst_sim.Campaign}: build an instance
    (graph + marker + settled verifier network), then sweep fault models
    over it, measuring detection time and detection distance per trial.
    Shared by [msst campaign] and the [bench CAMPAIGN] experiment. *)

val family_names : string list
(** ["random"; "path"; "ring"; "grid"; "complete"; "star"; "hypertree"] *)

val min_size : string -> int
(** The smallest request a family builds: 3 for ["ring"], 1 for ["grid"]
    and ["hypertree"] (which round any request up), 2 for the rest. *)

val graph_of_family : string -> Random.State.t -> int -> Graph.t
(** Note that two families round the requested size: ["grid"] builds a
    side² grid with side = [max 2 (sqrt n)], and ["hypertree"] rounds down
    to the nearest complete-binary-tree size [2^(h+1)-1] with h ≥ 2 (so
    requests below 7 still yield 7 nodes).  Campaign rows record both the
    actual ([Campaign.spec.n]) and the requested size.
    @raise Invalid_argument on an unknown family name. *)

val stream_threshold : int
(** [50_000]: the size from which {!build_graph} switches to the streamed
    builders. *)

val build_graph : family:string -> seed:int -> int -> Graph.t
(** The one family table every driver builds its instance from ([msst],
    {!prepare}, [Observatory], [Flight]).  Below {!stream_threshold} it is
    [graph_of_family family (Gen.rng seed) n]; at and above it, random,
    grid and hypertree come from the O(1)-memory streamed CSR builders
    ([Gen.stream_random], [Gen.stream_grid], [Gen.stream_hypertree]) —
    the same topology and size rounding, a different (still
    seed-deterministic) weight draw.  Callers read the size they got from
    [Graph.n], never from the request. *)

(** The one verifier network: {!Verifier.Make} over [C] under the
    event-driven engine ([Network.Make]), which every caller — the
    observatory (and through its verify run [msst] and the flight
    recorder), the transformer, the campaigns, the benches and the
    examples — builds its verifier from. *)
module Net (C : Verifier.CONFIG) : sig
  module P : Protocol.PACKED with type state = Verifier.state

  include module type of struct
    include Network.Make (P)
  end

  val settle : t -> Scheduler.t -> unit
  (** Run the settling budget under the daemon: eight
      [Verifier.window_bound]s of the marker's labels, the rounds the
      observatory's verify run and the campaigns run before they inject. *)

  val attach_monitors : ?trace:Trace.t -> ?distance_c:int -> t -> Ssmst_obs.Monitor.t
  (** {!Ssmst_obs.Monitor.Attach} with the marker's tree as the claimed
      parent pointers. *)
end

type instance
(** A settled verifier instance: the graph, its marker, its one {!Net},
    and the register snapshot after the settling run — trials restart
    from the snapshot on that [Net], so the O(window_bound) settling cost
    and the verifier's label-derived view table are paid once per
    instance, not once per (f, model) grid point. *)

val prepare :
  ?domains:int -> ?mode:Verifier.mode -> ?daemon:Scheduler.t -> family:string -> n:int ->
  seed:int -> unit -> instance
(** Settle under [mode] (default [Passive]) and [daemon] (default [Sync]);
    every trial then runs under the same kind of daemon.  [domains]
    (default 1) fans the sync rounds across worker domains; the settled
    snapshot is byte-identical either way. *)

val graph : instance -> Graph.t
val root : instance -> int
(** The MST root: the anchor of the ["near-root"] placement. *)

val peak_bits : instance -> int
(** The largest register, in bits, of the settling run. *)

val run_trial :
  ?domains:int ->
  instance ->
  model:Fault.t ->
  inject_seed:int ->
  max_rounds:int ->
  Campaign.outcome
(** One trial on a fresh network of the instance's [Net], rewound to the
    instance snapshot via the engine's metrics/trace-neutral [restore] (so
    [register_writes] counts protocol work only — 0 until the injection);
    deterministic in the instance and [inject_seed] at every [domains].
    Faults are drawn from [Gen.rng inject_seed], an async trial's daemon
    from a stream derived from [inject_seed] too.
    Each trial runs under a ["campaign.trial"] telemetry frame when a
    {!Ssmst_parallel.Probe} sink is installed. *)

val sweep :
  ?jobs:int ->
  families:string list ->
  sizes:int list ->
  fault_counts:int list ->
  models:string list ->
  seeds:int ->
  seed:int ->
  max_rounds:int ->
  unit ->
  Campaign.trial list
(** The full campaign grid, in deterministic order: for each family x n x
    instance-seed, one {!prepare}, then every fault count x model.  The
    [seed] is the base; instance seed i uses [seed + 7919 * i].

    [jobs] (default 1) shards the instance grid across that many forked
    worker processes ({!Ssmst_parallel.Pool.map}); per-instance seeds make
    every shard self-contained, so the trial list is identical — byte for
    byte once serialized — for every [jobs]. *)
