open Ssmst_sim

(** The rendering layer of the observatory: one value combining everything
    a run produced — engine metrics, log-bucketed histograms, the logical
    columns of the profiler's phase tree, monitor verdicts, free-form notes — rendered once as markdown
    (for humans and CI artifacts) and once as JSON (for tooling).

    Purely presentational: nothing here runs a scenario; the drivers that
    fill a report live in the core library's [Observatory] module. *)

type t

val create : title:string -> scenario:(string * string) list -> unit -> t
(** [scenario] is the key/value header block (graph family, n, seed, ...). *)

val scenario : t -> (string * string) list

val add_metrics : t -> string -> Metrics.t -> unit
(** One row per network, labelled; rows render in insertion order. *)

val add_hist : t -> string -> Hist.t -> unit
val set_spans : t -> Telemetry.phase -> unit
(** The phase tree ({!Telemetry.root}), rendered under "Span tree" with
    its logical columns only: rounds, activations, writes, peak bits.
    Frames charged nothing are left out. *)

val set_monitors : t -> (string * Monitor.verdict) list -> unit
val add_note : t -> string -> unit

val notes : t -> string list
(** The notes, in the order they were added. *)

val set_telemetry : t -> string -> unit
(** Attach a pre-rendered {!Telemetry.to_json} block; it appears verbatim
    under the ["telemetry"] key of {!to_json} ([null] when absent) and is
    deliberately absent from the markdown/CSV renderings — wall-clock
    telemetry is machine food, the human table is [msst profile]'s. *)

val all_monitors_ok : t -> bool
(** True when no monitor verdict is a violation (vacuously on none). *)

val to_markdown : t -> string
val to_json : t -> string

val to_csv : t -> string
(** Flat [section,key,value] rows: metrics and histograms one statistic
    per row, the span tree depth-first.  For spreadsheet ingestion. *)
