open Ssmst_graph
open Ssmst_sim
open Ssmst_obs

(** Scenario drivers for [msst report] and [msst profile], and the one run
    behind [msst construct], [verify] and [stabilize]: run one of the
    standard scenarios — construct, verify, stabilize, campaign — with the
    full observatory attached (the phase profiler, log-bucketed
    histograms, online invariant monitors) and return one {!Report.t}
    combining engine metrics, histograms, the profiler's phase tree and
    the monitor verdicts.  Each scenario installs the given {!Telemetry.t}
    over its measured part; verify's marker and campaign's settled
    instance are built before, unprofiled.  Every fact a run establishes
    is a note of its report ({!Report.notes}); the plain subcommands print
    those notes and nothing else. *)

(** The one scenario record: every [msst] driver — these scenarios, the
    {!Flight} recorder runs and [msst trace] — turns its flags into one of
    these, builds its instance with {!graph_of}, picks its verifier mode
    and daemon with {!mode_and_daemon}, draws its faults with
    {!fault_rng} and {!fault_model}, and runs its verifier on
    {!Verifier_campaign.Net}.  [n] is the request: each reads
    the size it built from [Graph.n]. *)
type params = {
  family : string;
  n : int;
  seed : int;
  faults : int;
  async : bool;
  clustered : bool;  (** {!fault_model}: clustered placement (radius 2) instead of uniform *)
  interval : int;  (** explain/replay: checkpoint every at most [interval] rounds *)
  capacity : int;  (** explain/replay: the recorder's delta-ring capacity *)
  epochs : int;  (** stabilize: fault-injection epochs *)
  trials : int;  (** campaign: seeds per fault model *)
  max_rounds : int;  (** detection budget *)
  domains : int;
      (** sync-round worker domains for verify/stabilize/campaign; results
          are byte-identical at every value, only telemetry sees it *)
  distance_c : int;
}

val default_params : params

val graph_of : params -> Graph.t
(** [Verifier_campaign.build_graph] on the record's family, seed and n. *)

val mode_and_daemon : params -> Verifier.mode * Scheduler.t
(** [(Passive, Sync)] when [async] is false, else
    [(Handshake, Async_random (Gen.rng (seed + 1)))] with a fresh RNG. *)

val fault_rng : params -> Random.State.t
(** The one fault-draw RNG, fresh on every call: seeded from [seed] at
    offset 2, clear of the async daemon's RNG at offset 1.  Every
    scenario, {!Flight} recording and [msst trace] injects from it. *)

val fault_model : params -> Fault.t
(** [faults] victims per burst, placed uniformly or, with [clustered],
    within radius 2 of a random centre; [Corrupt_random], one-shot. *)

val scenario_names : string list
(** ["construct"; "verify"; "stabilize"; "campaign"] *)

val refusal : scenario:string -> params -> string option
(** Why [scenario] refuses these params, if it does: campaign trials run
    Passive/Sync, so [campaign] refuses [async].  The scenario raises
    [Invalid_argument] on them; callers check first to report it. *)

val construct : Telemetry.t -> params -> Report.t
val verify : Telemetry.t -> params -> Report.t

val stabilize : Telemetry.t -> params -> Report.t
(** One ["epoch i"] frame (0-based) per fault epoch. *)

val campaign : Telemetry.t -> params -> Report.t
(** @raise Invalid_argument when [async] is set (see {!refusal}). *)

val run : scenario:string -> Telemetry.t -> params -> Report.t
(** Dispatch by name.  @raise Invalid_argument on an unknown scenario. *)
