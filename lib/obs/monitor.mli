open Ssmst_graph
open Ssmst_sim

(** Always-on online invariant monitors evaluated against each round's
    settled snapshot, returning structured verdicts instead of failing at
    run end.  Four monitors ship: parent pointers form a forest,
    per-node register size stays within [compact_c * ceil(log2 n)] bits
    (the paper's Section 2.4 space claim), alarms stay raised between an
    injection and the following reset, and the detection distance at the
    first alarm stays within [distance_c * f * ceil(log2 n)] (the
    O(f log n) locality claim).

    Violations latch the first occurrence per monitor, land in the
    attached {!Trace} as [Invariant_violation] events, and bump
    {!Metrics}'s [monitor_violations] counter.  Evaluation is skipped in
    O(1) on rounds whose change counter shows no register changed, so the
    set is cheap enough to keep always-on. *)

type verdict = Ok | Violation of { round : int; node : int option; detail : string }

val verdict_ok : verdict -> bool
val pp_verdict : Format.formatter -> verdict -> unit
val verdict_to_json : verdict -> string

(** The read-only window a monitor set gets onto a live network.  All
    closures must be cheap; [change_counter] must change whenever any
    register changes ([register_writes + faults_injected] qualifies). *)
type view = {
  graph : Graph.t;
  parent : int -> int option;
      (** Claimed parent pointer, when the protocol has one; [fun _ -> None]
          disables the forest monitor. *)
  bits : int -> int;
  alarm : int -> bool;
  peak_bits : unit -> int;  (** O(1): the engine's incremental high-water. *)
  any_alarm : unit -> bool;  (** O(1): the engine's alarm counter. *)
  change_counter : unit -> int;
}

type t

val default_compact_c : int
val default_distance_c : int

val create :
  ?trace:Trace.t -> ?metrics:Metrics.t -> ?compact_c:int -> ?distance_c:int -> view -> t

val names : string list
(** The four monitor names, in {!results} order. *)

val check : t -> round:int -> unit
(** One evaluation against the current settled snapshot; O(1) when the
    view's change counter is unchanged since the last call. *)

val note_injection : t -> round:int -> faults:int list -> unit
(** A fault burst opened: arm the alarm-monotonicity and detection-distance
    monitors.  Re-injections extend the victim set of the live burst. *)

val note_reset : t -> round:int -> unit
(** The burst was answered (reset / reconstruction): disarm. *)

val results : t -> (string * verdict) list
val all_ok : t -> bool

val evaluations : t -> int
(** Full evaluations actually executed (change-counter cache misses). *)

(** The one attachment to a live {!Network.Make} network, for any
    protocol: the view reads registers through [P] and the engine's O(1)
    counters, the monitors are created with the network's metrics (and
    [trace], [distance_c]), and {!check} runs on the network's round hook,
    replacing any hook already set. *)
module Attach (P : Protocol.S) : sig
  val attach :
    ?trace:Trace.t ->
    ?distance_c:int ->
    parent:(int -> int option) ->
    Network.Make(P).t ->
    t
end
