open Ssmst_graph

(* The protocol interface for the shared-memory network simulator.

   The model is the paper's (Sections 2.1-2.2): every node owns one register
   holding its whole state; in one *ideal time* unit an activated node reads
   the registers of all its neighbours and rewrites its own register.  A
   synchronous network activates everybody simultaneously; an asynchronous
   one is driven by a strongly fair daemon (see {!Scheduler}). *)

module type S = sig
  type state

  val init : Graph.t -> int -> state
  (** [init g v] is the clean initial state of node [v].  Self-stabilizing
      protocols must also tolerate arbitrary states (see [corrupt]). *)

  val step : Graph.t -> int -> state -> (int -> state) -> state
  (** [step g v own read] is one atomic activation of node [v]: [read p]
      returns the current register of the neighbour behind [v]'s port [p],
      for [0 <= p < Graph.degree g v] (the paper's port-numbered model,
      Section 2; any other [p] raises [Invalid_argument]).  A read costs
      O(1), so a step that needs a neighbour twice should still read it
      once and keep the register.  Returns the new register.
      [step] must be deterministic in its arguments: the event-driven engine
      ({!Network.Core}, behind both {!Network.Make} and {!Network.Flat})
      skips activations whose inputs are unchanged since
      the node's last no-op step, which is only sound for pure steps. *)

  val equal : state -> state -> bool
  (** Register equality.  The engine uses it to decide whether an activation
      changed the register — the dirty-set rule, incremental memory/alarm
      accounting and the register-write trace all hang off it.  For the pure
      record states used throughout, structural equality [( = )] is correct. *)

  val alarm : state -> bool
  (** Whether the node is currently raising an alarm ("outputting no"). *)

  val bits : Graph.t -> int -> state -> int
  (** [bits g v s] is the serialized size of node [v]'s register [s] in
      bits, via {!Memory}.  It takes [g] and [v] as [init] and [step] do,
      so a protocol may look up the size of a part it shares with a
      per-instance table; the count must still be that of [s]'s own
      content. *)

  val corrupt : Random.State.t -> Graph.t -> int -> state -> state
  (** Adversarial fault: an arbitrary perturbation of the register used by
      fault-injection experiments.  Must return a type-correct state but is
      free to break every semantic invariant. *)

  val corrupt_field : Random.State.t -> Graph.t -> int -> state -> state
  (** Targeted-field fault (the {!Fault.Bit_flip} severity): perturb exactly
      one field of the register, leaving every other field intact — the
      surgical end of the fault spectrum, against which [corrupt] is the
      full scrambling.  Protocols whose registers have no meaningfully
      separable fields may fall back to [corrupt]. *)

  val field_names : string array
  (** The register's field descriptor: one human-readable name per field,
      in a fixed order.  Aligned index-for-index with {!encode}; the flight
      recorder ([Ssmst_replay]) uses it to name the field behind every
      write delta and first-divergence report. *)

  val encode : state -> int array
  (** A per-field fingerprint of the register, aligned with {!field_names}:
      [  (encode a).(i) <> (encode b).(i)] must hold whenever field [i]
      differs between [a] and [b] (up to hash collisions for compound
      fields — use {!hash_field} there).  Cheap: called once per recorded
      write. *)
end

(* The packed-register codec: a protocol whose states fit a fixed per-node
   budget of 64-bit words can run on {!Network.Flat}, which stores all n
   registers in one flat int array — the struct-of-arrays layout that makes
   the paper's O(log n)-bits-per-node claim literal in process memory.

   Contract: [pack] and [unpack] must be exact inverses on every state the
   engine can hold — [init] outputs, [step] outputs, and the outputs of
   [corrupt] / [corrupt_field] on such states (fault injection preserves
   instance-fixed array lengths, which is what makes a fixed word budget
   computable).  [pack] must be deterministic and write its entire slice
   (zero-filling unused tail words), so that equal states produce equal
   slices. *)
module type CODEC = sig
  type state

  val words : Graph.t -> int
  (** The fixed per-node register budget, in 64-bit words.  Constant per
      instance; [8 * words g] is the measured bytes-per-node the SCALE
      experiments gate against the modeled c·⌈log n⌉ bound. *)

  val field_offsets : Graph.t -> int array
  (** Start word of each field's sub-slice within the budget, aligned
      index-for-index with {!S.field_names}: packing two states that differ
      only in field [i] changes words only in
      [[field_offsets.(i), field_offsets.(i+1))] (or up to [words g] for
      the last field). *)

  val pack : Graph.t -> int -> state -> int array -> int -> unit
  (** [pack g v s buf off] serializes [s] into [buf.(off) ..
      buf.(off + words g - 1)], writing every word of that slice and none
      outside it: the packed store stages into a slice it does not seed. *)

  val unpack : Graph.t -> int -> int array -> int -> state
  (** [unpack g v buf off] is the inverse of [pack]. *)
end

(** A protocol together with its packed codec: what {!Network.Flat}
    consumes. *)
module type PACKED = sig
  include S
  include CODEC with type state := state
end

(* Fingerprint for compound fields (records, arrays, variants): the default
   [Hashtbl.hash] only samples ~10 leaves, which silently misses deep
   changes in large labels; widening both limits makes a changed field
   reliably change its fingerprint. *)
let hash_field v = Hashtbl.hash_param 256 512 v
