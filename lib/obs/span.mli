open Ssmst_sim

(** Typed phase-span profiler: nested spans tagged with the paper's phases
    (fragment levels of SYNC_MST, verifier wave sweeps, transformer epochs,
    campaign trials), each accumulating the ideal-time rounds, activations,
    register writes and register-bit high-water spent inside it.

    Spans are fed either by sampling an engine's {!Metrics} (snapshot at
    {!open_}, delta at {!close}) or by explicit {!charge} calls from
    algorithms with their own cost model.  Counts are inclusive: a parent
    span includes its children.  Open/close marks are recorded into the
    attached {!Trace} as [Span_mark] events. *)

type tag =
  | Fragment_level of int
  | Wave_sweep
  | Epoch of int
  | Campaign_trial of int
  | Construct
  | Settle
  | Inject
  | Detect
  | Verify
  | Named of string

val tag_label : tag -> string

type counters = { rounds : int; activations : int; writes : int; peak_bits : int }

val zero_counters : counters

val sampler_of_metrics : Metrics.t -> unit -> counters
(** The engine hook: sample an event-driven engine's ({!Network.Make} or
    {!Network.Flat}) live counters. *)

type node = {
  tag : tag;
  mutable rounds : int;
  mutable activations : int;
  mutable writes : int;
  mutable peak_bits : int;
  mutable children_rev : node list;  (** newest first; see {!children} *)
  mutable opened_at : counters;
}

type t

val create : ?trace:Trace.t -> ?sample:(unit -> counters) -> unit -> t
(** A profiler whose root span opens immediately.  [sample] supplies the
    engine counters ({!sampler_of_metrics}); omitted, only {!charge} feeds
    the spans. *)

val attach_trace : t -> Trace.t -> unit

val open_ : t -> tag -> unit
val close : t -> unit
(** @raise Invalid_argument when no span is open. *)

val with_ : t -> tag -> (unit -> 'a) -> 'a
(** [with_ t tag f] runs [f] inside an [open_]/[close] pair (exception-safe). *)

val charge :
  t -> ?rounds:int -> ?activations:int -> ?writes:int -> ?peak_bits:int -> unit -> unit
(** Add explicitly accounted cost to every open span (inclusive counts). *)

val finish : t -> node
(** Close any still-open spans, settle the root's sampling window, and
    return the root of the span tree. *)

val root : t -> node
val children : node -> node list
(** Oldest-first. *)

val depth_first : node -> (int * node) list
(** Pre-order walk with depths, the rendering order of the span tree. *)

val node_to_json : node -> string
val pp_node : Format.formatter -> node -> unit
val pp_tree : Format.formatter -> node -> unit
