(** Aggregate execution counters owned by every event-driven engine
    instance ({!Network.Make} or {!Network.Flat}).

    Counts the engine's actual work: activations executed, register writes,
    wasted steps (no-change activations), dirty-set skips, rounds, faults,
    alarm transitions and peak register bits.  Always-on and O(1) per
    event. *)

type t = {
  mutable rounds : int;
  mutable activations : int;
  mutable register_writes : int;
  mutable wasted_steps : int;
  mutable skipped_activations : int;
  mutable last_write_round : int;
  mutable faults_injected : int;
  mutable alarms_raised : int;
  mutable alarms_cleared : int;
  mutable peak_bits : int;
  mutable monitor_violations : int;
}

val create : unit -> t
val reset : t -> unit

val rounds_to_quiescence : t -> int
(** The last round during which some register changed. *)

val csv_header : string
val to_csv_row : t -> string

val to_json : ?label:string -> t -> string
(** One JSON object: a JSONL line.  [label] tags the row when given. *)

val pp : Format.formatter -> t -> unit
