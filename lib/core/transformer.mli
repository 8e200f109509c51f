open Ssmst_graph
open Ssmst_sim

(** The enhanced Awerbuch–Varghese resynchronizer (Section 10, Theorems
    10.1–10.3): alternate a construction regime (self-stabilizing leader
    election + SYNC_MST + marker, charged at its measured O(n) cost) with a
    verification regime (the Section 7–8 verifier running as a live network
    protocol); any alarm triggers a reset and a reconstruction.  The result
    is a self-stabilizing MST construction with O(log n) bits per node and
    O(n) time, inheriting the verifier's detection time and distance. *)

type event =
  | Constructed of int  (** rounds charged for election + SYNC_MST + marker *)
  | Detected of { rounds : int; distance : int option }
  | Quiescent of int

(** Cheap read-only accessors into the live verification network, re-bound
    at every reconstruction: the observatory's report drivers read per-node
    register sizes and last-write rounds through these without the
    network's first-class module escaping. *)
type probe = {
  net_metrics : Metrics.t;
  net_last_write : int -> int;
  net_bits : int -> int;
}

type t = {
  graph : Graph.t;
  mode : Verifier.mode;
  daemon : Scheduler.t;
  domains : int;
      (** sync-round worker domains on the live verification network
          (see {!Network.Make.create}); 1 = sequential *)
  monitors : bool;
      (** whether every epoch's verification network carries the online
          invariant monitors ({!Verifier_campaign.Net.attach_monitors}) *)
  mutable marker : Marker.t;
  mutable total_rounds : int;
  mutable reconstructions : int;
  mutable history : event list;  (** most recent first *)
  mutable peak_bits : int;
  mutable run_verify : int -> [ `Alarm of int * int option | `Quiet ];
  mutable inject : Random.State.t -> Fault.t -> int list;
  mutable monitor : Ssmst_obs.Monitor.t option;  (** on the live network *)
  mutable monitor_verdicts : (string * Ssmst_obs.Monitor.verdict) list;
      (** latched across epochs; read via {!monitor_results} *)
  mutable probe : probe option;
}

val construction_cost : Graph.t -> Marker.t -> int

val create :
  ?mode:Verifier.mode ->
  ?daemon:Scheduler.t ->
  ?domains:int ->
  ?monitors:bool ->
  Graph.t ->
  t
(** Start from an arbitrary configuration: the first act is a
    reconstruction (Theorem 10.2: O(n) stabilization).  [domains]
    (default 1) fans each verification sync round across that many OCaml 5
    domains — byte-identical states and metrics at every count.
    [monitors] (default false) attaches the online invariant monitors, with
    {!Ssmst_obs.Monitor}'s default constants, to each epoch's network; the
    profiler is not configured here: the transformer's frames and charges
    go to whatever {!Ssmst_parallel.Probe} sink is installed. *)

val monitor_results : t -> (string * Ssmst_obs.Monitor.verdict) list
(** Latched across every epoch so far: the first violation per monitor
    survives the reconstructions that discard the network it was seen on. *)

val reconstruct : t -> unit

val advance : t -> rounds:int -> unit
(** Run the verification regime for [rounds]; reconstruct on detection. *)

val inject_model : t -> Random.State.t -> Fault.t -> int list
(** Apply a typed fault model to the running verification network (the
    epoch re-injection path of the campaign subsystem). *)

val inject_faults : t -> Random.State.t -> count:int -> int list
(** Corrupt [count] uniformly placed nodes: [inject_model] under
    {!Fault.uniform}. *)

val tree : t -> Tree.t
(** The current output. *)

val stabilization_rounds : t -> int
(** Cost of the initial stabilization. *)

val memory_bits : t -> int
(** Peak per-node register size across regimes. *)
