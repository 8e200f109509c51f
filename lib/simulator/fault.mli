(** Typed fault models and their deterministic application.

    The paper's robustness claims quantify over *which* nodes an adversary
    corrupts and *how* (Section 2.4: any f faults are detected within time
    O(f log n) at distance O(f log n)).  This module makes that adversary a
    first-class value: a {!t} combines a placement (where the faults land),
    a severity (what happens to a victim's register) and a cadence (one
    burst or periodic re-injection), and {!Apply} turns it into register
    perturbations through a single deterministic entry point shared by both
    network engines — identical seeds yield identical victim sets and
    identical post-fault registers, which trace replay and the engine≡naive
    differential suite depend on. *)

open Ssmst_graph

type id = int
(** Per-run injection id: engines number injections [0, 1, ...] in the
    order they rewrite registers; {!Trace.cause} [Fault] values and
    {!Trace.event} [Fault_injected.fault] refer back to these. *)

type placement =
  | Uniform  (** victims drawn uniformly without replacement *)
  | Clustered of { center : int option; radius : int }
      (** victims drawn from the radius-[radius] ball around [center]
          (random center when [None]): the fault-containment worst case,
          all faults inside one O(radius) neighbourhood *)
  | Near_root of { root : int }
      (** the adversarial placement of the Section 9 discussion: the
          victims closest to [root] (BFS distance, ties by node index) —
          fully deterministic, consumes no randomness *)
  | Targeted of int list
      (** an explicit victim list (deduplicated, out-of-range indices
          rejected); the model's [count] is ignored *)

type severity =
  | Corrupt_random
      (** [Protocol.S.corrupt]: an arbitrary type-correct scrambling *)
  | Crash_reset
      (** crash-and-rejoin: the register reverts to [Protocol.S.init] *)
  | Bit_flip
      (** [Protocol.S.corrupt_field]: perturb exactly one field *)

type cadence =
  | One_shot
  | Intermittent of { period : int; repeats : int }
      (** after the initial burst, re-inject every [period] rounds, at most
          [repeats] further times (interpreted by {!Campaign.drive}) *)

type t = {
  placement : placement;
  severity : severity;
  cadence : cadence;
  count : int;  (** victims per burst (capped at n; ignored by [Targeted]) *)
}

val make : ?placement:placement -> ?severity:severity -> ?cadence:cadence -> count:int -> unit -> t
(** Defaults: [Uniform], [Corrupt_random], [One_shot] — the historical
    [inject_faults] model. *)

val uniform : count:int -> t

val to_string : t -> string
(** A compact, stable descriptor, e.g. ["clustered(r=2)/corrupt/one-shot x4"]. *)

val pp : Format.formatter -> t -> unit

val choose_victims : Random.State.t -> Graph.t -> t -> int list
(** The victim set of one burst: sorted ascending, deterministic in the
    RNG state, the graph and the model.  [Uniform] consumes the RNG exactly
    as the historical sampler did (distinct rejection draws). *)

(** The severity semantics over a concrete protocol.  The naive reference
    engine ([Ssmst_oracle.Naive]) and the event-driven core ({!Network.Make},
    {!Network.Flat}) both funnel injection through {!Apply.apply}, so the
    engines corrupt the same victims, in the same (ascending) order, with
    the same RNG consumption. *)
module Apply (P : Protocol.S) : sig
  val corrupt_one : Random.State.t -> Graph.t -> severity -> int -> P.state -> P.state
  (** The new register of victim [v] under the given severity. *)

  val apply :
    Random.State.t ->
    Graph.t ->
    t ->
    get:(int -> P.state) ->
    set:(int -> P.state -> unit) ->
    int list
  (** Choose one burst of victims and rewrite their registers through
      [set] (ascending node order); returns the victims, sorted. *)
end
