open Ssmst_graph
open Ssmst_sim
open Ssmst_obs

(** Scenario drivers for [msst report] and [msst profile], and the one run
    behind [msst construct], [verify], [stabilize], [trace] and [explain]:
    run one of the standard scenarios — construct, verify, stabilize,
    campaign, bounds — with the full observatory attached (the phase profiler,
    log-bucketed histograms, online invariant monitors) and return one
    {!Report.t} combining engine metrics, histograms, the profiler's phase
    tree and the monitor verdicts.  Each scenario installs the given
    {!Telemetry.t} over its measured part; verify's marker and campaign's
    settled instance are built before, unprofiled (bounds profiles its
    instances' preparation).  Every fact a run
    establishes is a note of its report ({!Report.notes}); the plain
    subcommands print those notes and nothing else. *)

(** The one scenario record: every [msst] driver turns its flags into one
    of these and builds its instance with {!graph_of}.  The verify
    scenario's run ({!verify_run}) is the only settle, burst and detect
    run: [msst trace] and {!Flight.record_verify} hang a {!listener} on it
    instead of driving a verifier of their own.  [n] is the request: each
    reads the size it built from [Graph.n]. *)
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

val fault_rng : params -> Random.State.t
(** The one fault-draw RNG, fresh on every call: seeded from [seed] at
    offset 2, clear of the async daemon's RNG at offset 1.  Every
    scenario, {!Flight} recording and [msst trace] injects from it. *)

val fault_model : params -> Fault.t
(** [faults] victims per burst, placed uniformly or, with [clustered],
    within radius 2 of a random centre; [Corrupt_random], one-shot. *)

val scenario_names : string list
(** ["construct"; "verify"; "stabilize"; "campaign"; "bounds"] *)

val construct : Telemetry.t -> params -> Report.t

(** What rides the verify run from the settled network on: the engine's
    event trace (also the monitors' violation sink), or a write hook built
    from the graph, the settled round and the live register array (the
    flight recorder's). *)
type listener =
  | Trace of Trace.t
  | Write_hook of (Graph.t -> settled:int -> Verifier.state array -> round:int -> node:int ->
                   old:Verifier.state -> Verifier.state -> Trace.cause -> unit)

(** The facts of one verify run. *)
type verify_facts = {
  graph : Graph.t;  (** as built: read n from it *)
  settled_round : int;
  settled_alarm : bool;  (** any alarm after settling (must be false) *)
  convergence : Hist.t;  (** per-node last-write round, at settle *)
  register_bits : Hist.t;  (** per-node register bits, at settle *)
  victims : int list;  (** [[]] when [faults = 0]: no burst *)
  detection : int option;  (** rounds from the burst to the first alarm *)
  distance : int option;  (** Section 2.4 detection distance, when detected *)
  alarms : int list;  (** alarming nodes at the end, ascending *)
  metrics : Metrics.t;
  monitors : (string * Monitor.verdict) list;
  final : Verifier.state array;  (** the final registers *)
}

val verify_run : ?listen:listener -> Telemetry.t -> params -> verify_facts
(** The one Theorem 8.5 run — settle, burst, detect — with the monitors
    on the round hook and [listen] attached after settling, before the
    burst.  [msst trace] and {!Flight} ride it; listening changes no
    register, metric or verdict. *)

val verify_report : Telemetry.t -> params -> verify_facts -> Report.t
(** The verify scenario's report, from its run's facts alone: [run
    ~scenario:"verify"] is [verify_report tel p (verify_run tel p)]. *)

val stabilize : Telemetry.t -> params -> Report.t
(** One ["epoch i"] frame (0-based) per fault epoch. *)

val campaign : Telemetry.t -> params -> Report.t
(** Every named fault model x [trials] injection seeds on one instance,
    settled and trialled under Passive/Sync, or Handshake/[Async_random]
    with [async]. *)

(** {2 Bounds} — the paper's detection time, detection distance and
    register size claims, measured by the campaign's trials. *)

val time_c_sync : int
val time_c_async : int
(** c_t of the detection-time bounds c_t ⌈log n⌉² (sync) and
    c_t Δ ⌈log n⌉³ (async), fitted at n ≤ 256. *)

(** One (n, daemon) point: the worst detected trial's rounds and distance
    and the settling run's largest register. *)
type bound_point = {
  n : int;  (** as built *)
  daemon : string;  (** ["sync"], ["async-random"] or ["async-adversarial"] *)
  delta : int;  (** the graph's maximum degree *)
  faults : int;
  max_detection : int;
  max_distance : int;
  peak_bits : int;
}

val bound_checks : bound_point -> (string * Monitor.verdict) list
(** One verdict per claim: detection time against the c_t bound,
    distance against [Monitor.default_distance_c] f ⌈log n⌉, bits against
    [Monitor.default_compact_c] ⌈log n⌉, with ⌈log n⌉ counted as the
    monitors count it ([Memory.of_nat n]).  A point above a bound is a
    [Violation]. *)

val bounds : Telemetry.t -> params -> Report.t
(** The campaign's trial loop over ["bit-flip"] and ["uniform"] at n = 64,
    256, 1024, 4096 up to [n] (or [n] alone below 64), under Passive/Sync
    and Handshake under both async daemons.  Per point: one ["n = N daemon"]
    frame, a note (trials that never alarmed are counted, not gated) and
    three {!bound_checks} verdicts. *)

val run : scenario:string -> Telemetry.t -> params -> Report.t
(** Dispatch by name.  @raise Invalid_argument on an unknown scenario. *)
