(** A minimal JSON reader/writer for the repo's machine-written artifacts
    (bench [BENCH_*.json], telemetry blocks, report JSON).  The container
    has no JSON library baked in, and everything we parse is emitted by
    our own writers ([Trace.json_escape] and friends) — so the grammar is
    full JSON minus UTF-16 surrogate pairs in [\u] escapes; a [\uXXXX]
    reads back as the code point's UTF-8 bytes.

    Formerly the private [Json] module inside [bench/main.ml]; factored
    here so the bench trend report, the perf-trajectory section and the
    tests share one parser. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} on malformed input, with a short position-bearing
    message.  Never escapes the accessors below — they answer [None]/[[]]
    on shape mismatches instead. *)

val parse : string -> t
(** Whole-input parse: leading/trailing whitespace is fine, any other
    trailing garbage raises {!Bad}. *)

val to_string : t -> string
(** Compact (single-line) rendering; [parse (to_string v)] round-trips
    modulo float formatting. *)

val mem : string -> t -> t option
(** Object field lookup; [None] on missing key or non-object. *)

val num_opt : t option -> float option
val bool_opt : t option -> bool option
val str_opt : t option -> string option

val arr : t option -> t list
(** The array's elements, or [[]] for anything that isn't an array. *)
