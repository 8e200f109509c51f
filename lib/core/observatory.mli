open Ssmst_obs

(** Scenario drivers for [msst report] and [msst profile]: run one of the
    standard scenarios — construct, verify, stabilize, campaign — with the
    full observatory attached (the phase profiler, log-bucketed
    histograms, online invariant monitors) and return one {!Report.t}
    combining engine metrics, histograms, the profiler's phase tree and
    the monitor verdicts.  Each scenario installs the given {!Telemetry.t}
    over its measured part; verify's marker and campaign's settled
    instance are built before, unprofiled. *)

type params = {
  family : string;
  n : int;
  seed : int;
  faults : int;
  async : bool;
  epochs : int;  (** stabilize: fault-injection epochs *)
  trials : int;  (** campaign: seeds per fault model *)
  max_rounds : int;  (** detection budget *)
  domains : int;
      (** sync-round worker domains for verify/stabilize/campaign; results
          are byte-identical at every value, only telemetry sees it *)
  compact_c : int;
  distance_c : int;
}

val default_params : params

val scenario_names : string list
(** ["construct"; "verify"; "stabilize"; "campaign"] *)

val construct : Telemetry.t -> params -> Report.t
val verify : Telemetry.t -> params -> Report.t

val stabilize : Telemetry.t -> params -> Report.t
(** One ["epoch i"] frame (0-based) per fault epoch. *)

val campaign : Telemetry.t -> params -> Report.t

val run : scenario:string -> Telemetry.t -> params -> Report.t
(** Dispatch by name.  @raise Invalid_argument on an unknown scenario. *)
