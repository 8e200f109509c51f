(** Ring-buffered typed execution traces for the event-driven engine.

    Attach a trace to an event-driven engine ({!Network.Make} or
    {!Network.Flat}, which share one core) and every activation,
    register write, alarm transition, fault injection and convergence check
    is recorded as a typed event; the observability layer ([Ssmst_obs])
    additionally records online-monitor verdicts.  The
    buffer is bounded: once [capacity] events are held, the oldest are
    dropped (and counted in {!dropped}), so tracing an arbitrarily long run
    costs O(capacity) memory. *)

type cause =
  | Init  (** an external write creating state from nothing *)
  | Neighbor_read of int list
      (** an activation that read the registers behind these ports — the
          causal in-edges of the provenance DAG *)
  | Fault of int  (** a fault injection, by per-run injection id *)

type change = { field : string; old_enc : int; new_enc : int }
(** one field-level delta: [field] comes from [Protocol.S.field_names],
    [old_enc]/[new_enc] from [Protocol.S.encode] before/after the write *)

type prov = { cause : cause; changes : change list }

type event =
  | Activation of { round : int; node : int }
  | Register_write of { round : int; node : int; bits : int; prov : prov option }
      (** [prov] is present when the engine captured provenance (trace or
          write hook attached) *)
  | Alarm_raised of { round : int; node : int }
  | Alarm_cleared of { round : int; node : int }
  | Fault_injected of { round : int; node : int; fault : int option }
      (** [fault] is the injection id that write causes refer to *)
  | Convergence of { round : int; reached : bool }
  | Invariant_violation of { round : int; node : int option; monitor : string; detail : string }
      (** an online monitor found the settled snapshot of [round] in
          violation; [node] pinpoints the first offending node when one
          exists *)

val field_changes :
  names:string array -> encode:('s -> int array) -> 's -> 's -> change list
(** [field_changes ~names ~encode old s'] lists, in field order, every
    field whose [encode] fingerprint differs between the two registers,
    named by [names] ([Protocol.S.field_names]; ["f<i>"] past its end).
    The engine's provenance capture and the flight recorder both use it. *)

type t

val default_capacity : int

val create : ?capacity:int -> unit -> t
(** @raise Invalid_argument if [capacity <= 0]. *)

val capacity : t -> int

val record : t -> event -> unit

val total : t -> int
(** Events ever recorded, including dropped ones. *)

val length : t -> int
(** Events currently retained. *)

val dropped : t -> int

val clear : t -> unit

val iter : (event -> unit) -> t -> unit
(** Oldest-first over the retained window. *)

val to_list : t -> event list

val event_name : event -> string
val event_round : event -> int
val event_node : event -> int option

val json_escape : string -> string
(** Standard JSON string escaping (quotes, backslashes, control bytes). *)

val cause_to_string : cause -> string
(** A flat descriptor: ["init"], ["read:0,2"] (ports), ["fault:7"]. *)

val changes_to_string : change list -> string
(** Semicolon-joined field deltas: ["dist:3>4;parent:2>5"]. *)

val event_to_json : event -> string
(** One JSON object, no trailing newline: a JSONL line.  Label, monitor and
    detail strings are escaped with {!json_escape}. *)

val write_jsonl : out_channel -> t -> unit

val csv_header : string

val csv_escape : string -> string
(** RFC-4180-style quoting, applied only when the cell needs it. *)

val event_to_csv : event -> string
val write_csv : out_channel -> t -> unit

val pp_event : Format.formatter -> event -> unit
