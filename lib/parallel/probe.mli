(** The global telemetry hook: a single installable sink of named
    phase probes that the hot paths ({!Domain_pool.run}, the engines'
    sync rounds, transformer epochs, campaign trials) call into when — and
    only when — a profiler is attached.

    This module lives at the bottom of the library graph on purpose: the
    simulator cannot depend on the observatory, so the full profiler
    ({!Ssmst_obs.Telemetry}) installs itself here and everything above
    reports through this narrow interface.  With nothing installed every
    probe call is one [ref] read and a branch — the disabled cost the
    [bench PROF] gate pins at ~0%.

    Threading contract: {!sink.enter}/{!sink.leave}/{!sink.span}/
    {!sink.charge} are called only from the calling (main) domain;
    worker domains may call {!sink.now} concurrently and must hand the
    resulting timestamps back to the caller, which emits them as
    retroactive {!sink.span}s after the join barrier.  Telemetry is strictly out-of-band: no probe may
    influence registers, metrics, traces or scheduling. *)

type sink = {
  now : unit -> float;
      (** Monotonic-enough seconds ([Unix.gettimeofday] or a fake clock).
          The only field worker domains may call. *)
  enter : string -> unit;  (** Begin the named phase (main domain only). *)
  leave : string -> unit;
      (** End the innermost open phase; the name is a cross-check, the
          stack decides. *)
  span : tid:int -> string -> float -> float -> unit;
      (** [span ~tid name t0 t1]: a retroactive interval on logical track
          [tid] (a worker-domain index), stamped by that worker via
          {!now} and emitted by the caller after the barrier. *)
  charge : rounds:int -> activations:int -> writes:int -> peak_bits:int -> unit;
      (** Add the paper's logical cost — ideal-time rounds, activations,
          register writes, and a register-bit high-water mark (maxed, not
          summed) — to every open phase (main domain only). *)
}

val install : sink -> unit
val uninstall : unit -> unit

val get : unit -> sink option
(** [None] iff nothing is installed — the zero-cost fast path; grab it
    once per round, not per probe. *)

val enter : sink option -> string -> unit
val leave : sink option -> string -> unit
(** For hot loops that read {!get} once (per round, per run): one branch
    when it was [None]. *)

val charge : ?rounds:int -> ?activations:int -> ?writes:int -> ?peak_bits:int -> unit -> unit
(** Convenience over {!sink.charge} (omitted costs are 0); a no-op when
    nothing is installed. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] runs [f] inside an enter/leave pair of the installed
    sink (exception-safe); plain [f ()] when nothing is installed. *)
