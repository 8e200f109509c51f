(** Fault-injection campaigns: sweep a grid of fault models over graph
    families, sizes, fault counts and seeds; measure detection time and
    detection distance per trial; aggregate min/median/p95 across seeds.

    This module is protocol-agnostic: {!drive} interprets a {!Fault.t}'s
    cadence against callbacks into a live network, and the record/CSV/JSONL
    layer mirrors the {!Metrics}/{!Trace} sink conventions, so any
    {!Protocol.S} can be campaigned.  The verifier glue lives in
    [Ssmst_core.Verifier_campaign]; the CLI entry is [msst campaign]. *)

type spec = {
  family : string;  (** graph family name *)
  n : int;
      (** the {e actual} graph size ([Graph.n]): [grid] rounds the request
          to side² and [hypertree] to [2^(h+1)-1], so this is the n that
          c·f·⌈log n⌉ bound analysis must read *)
  requested_n : int;  (** the size the sweep grid asked the generator for *)
  faults : int;  (** f, the burst size *)
  model : string;  (** named model, see {!model_names} *)
  seed : int;  (** instance + injection seed *)
}

type outcome = {
  victims : int list;  (** every node faulted during the trial, sorted *)
  injections : int;  (** faults applied, re-injections included *)
  detection_rounds : int option;  (** rounds from first burst to first alarm *)
  detection_distance : int option;  (** at the detection point *)
  rounds_run : int;  (** rounds actually executed *)
}

type trial = { spec : spec; outcome : outcome }

val model_names : string list
(** The named models a campaign can sweep: ["uniform"], ["clustered"],
    ["near-root"], ["targeted"], ["crash"], ["bit-flip"], ["intermittent"]. *)

val resolve_model : string -> n:int -> root:int -> count:int -> Fault.t
(** Instantiate a named model for an [n]-node instance whose designated
    root (for adversarial placements) is [root].
    @raise Invalid_argument on an unknown name. *)

val drive :
  rng:Random.State.t ->
  model:Fault.t ->
  max_rounds:int ->
  round:(unit -> unit) ->
  any_alarm:(unit -> bool) ->
  inject:(Random.State.t -> Fault.t -> int list) ->
  distance:(faults:int list -> int option) ->
  outcome
(** One trial: inject the initial burst, run round by round until the
    first alarm or [max_rounds], honouring an [Intermittent] cadence by
    re-injecting every period while no alarm has fired.  Deterministic in
    [rng] and the callbacks. *)

(** {2 Sinks} — per-trial rows, CSV and JSONL (one object per line). *)

val csv_header : string
val trial_to_csv : trial -> string
val trial_to_json : trial -> string
val write_csv : out_channel -> trial list -> unit
val write_jsonl : out_channel -> trial list -> unit

(** {2 Aggregation} — percentiles across the seeds of one grid point. *)

type agg = {
  family : string;
  n : int;
  faults : int;
  model : string;
  trials : int;
  detected : int;
  dt_min : int;
  dt_med : int;
  dt_p95 : int;
  dd_min : int;
  dd_med : int;
  dd_p95 : int;  (** -1 when no trial of the point was detected *)
}

val aggregate : trial list -> agg list
(** Group by (family, n, faults, model), in first-appearance order. *)

val pp_agg_table : Format.formatter -> agg list -> unit
