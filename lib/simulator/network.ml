open Ssmst_graph
open Ssmst_parallel

(* Executing a protocol over a graph under a daemon, with round counting,
   alarm observation, fault injection, memory accounting, tracing and work
   metrics.

   {!Core} is the event-driven engine: it steps a node only if the node
   or a neighbour changed since the node's last no-op step.  [P.step] is
   deterministic, so a clean node's step is provably a no-op: states and
   round counts stay identical to the naive reference engine
   ([Ssmst_oracle.Naive], which re-steps every node every round) under
   every daemon, at a cost proportional to actual state churn.  The core
   is written once over a register store, the only thing its two
   instances disagree on: {!Make} keeps boxed [P.state] values, {!Flat}
   packs every register into O(log n) words of one flat int array. *)

(* Telemetry probes: with a {!Probe} sink installed (msst profile, bench
   PROF), each synchronous round reports its frontier / compute / apply
   wall-clock sub-phases, strictly out-of-band.  The sink is fetched once
   per round, and rounds with an empty frontier skip the probes. *)

(* Register stores: where the n registers live.  [put] is an immediate
   write (async activations, fault injection, [set_state]); [stage] then
   [commit] is the deferred write of a sync round, whose steps all read
   the pre-round registers.  [stage] touches only [v]'s own slot, so
   workers owning disjoint nodes stage concurrently once [reserve] has
   allocated the slots on the calling domain.  [name] prefixes the probe
   phases. *)
module type STORE = sig
  type state
  type t

  val name : string
  val create : Graph.t -> (int -> state) -> t
  val get : t -> int -> state
  val put : t -> int -> state -> unit
  val reserve : t -> unit
  val stage : t -> int -> state -> unit
  val commit : t -> int -> unit
end

(* One boxed [P.state] per node; the live array is what the flight
   recorder aliases. *)
module Boxed (P : Protocol.S) = struct
  type state = P.state
  type t = { live : P.state array; mutable staged : P.state array }

  let name = "make"
  let create g init = { live = Array.init (Graph.n g) init; staged = [||] }
  let get st v = st.live.(v)
  let put st v s = st.live.(v) <- s

  let reserve st =
    if Array.length st.staged <> Array.length st.live then st.staged <- Array.copy st.live

  let stage st v s = st.staged.(v) <- s
  let commit st v = st.live.(v) <- st.staged.(v)
end

(* Node v's register is the slice [v * words, (v + 1) * words) of one flat
   int array — the struct-of-arrays layout that makes the paper's
   O(log n)-bits-per-node claim literal in process memory.  States are
   unpacked on demand and never cached, so resident memory stays
   dominated by the register file itself. *)
module Packed (P : Protocol.PACKED) = struct
  type state = P.state

  (* [regs] is the register file, [words] per node; [scratch] holds the
     staged register images in the same layout *)
  type t = { graph : Graph.t; words : int; regs : int array; mutable scratch : int array }

  let name = "flat"

  let create g init =
    let words = P.words g in
    let regs = Array.make (Graph.n g * words) 0 in
    for v = 0 to Graph.n g - 1 do P.pack g v (init v) regs (v * words) done;
    { graph = g; words; regs; scratch = [||] }

  let get st v = P.unpack st.graph v st.regs (v * st.words)
  let put st v s = P.pack st.graph v s st.regs (v * st.words)

  let reserve st =
    if Array.length st.scratch <> Array.length st.regs then
      st.scratch <- Array.make (Array.length st.regs) 0

  (* [pack] writes its whole slice (the {!Protocol.CODEC} contract), so
     the staged slice needs no seeding from the live register *)
  let stage st v s = P.pack st.graph v s st.scratch (v * st.words)

  (* [Array.blit] into the major-heap register file takes the write
     barrier word by word; an int-typed loop is plain stores *)
  let commit st v =
    let off = v * st.words in
    for i = off to off + st.words - 1 do
      st.regs.(i) <- st.scratch.(i)
    done
end

(* ------------------------------------------------------------------ *)
(* The event-driven engine                                             *)
(* ------------------------------------------------------------------ *)

module Core (P : Protocol.S) (S : STORE with type state = P.state) = struct
  (* What only a listener (trace or write hook) needs, allocated on the
     first captured round: per-worker read marks (one slot per port), each
     node's cached all-ports cause (steps almost always read every
     neighbour) and the cause of each staged write that read only some
     neighbours. *)
  type capture =
    { marks : int array array; full : Trace.cause option array; causes : Trace.cause array }

  type t = {
    graph : Graph.t;
    off : int array;  (* the graph's CSR rows ({!Graph.csr}): a read is one load *)
    peers : int array;
    store : S.t;  (* live registers; mutate via [apply_write] only *)
    mutable rounds : int;  (* ideal time elapsed *)
    mutable peak_bits : int;
    frontier : Frontier.t;  (* the dirty set, drained ascending (see {!Frontier}) *)
    alarm_flags : bool array;  (* [P.alarm] of every register, incrementally *)
    mutable alarm_count : int;
    last_write : int array;  (* per-node last-write round: convergence histograms *)
    metrics : Metrics.t;
    mutable trace : Trace.t option;
    (* read-only probes: after every round (the monitors),
       and on every register write (the flight recorder) *)
    mutable round_hook : (unit -> unit) option;
    mutable write_hook :
      (round:int -> node:int -> old:P.state -> P.state -> Trace.cause -> unit) option;
    domains : int;  (* sync-round worker count; 1 = sequential *)
    (* the sync round's staged writes: per-node tag (0 none, else 1 lor 2
       if alarming lor 4 if a partial read set) and new bits, allocated
       with the store's staging slots on the first sync round *)
    mutable tags : Bytes.t;
    mutable new_bits : int array;
    mutable read_stamp : int;  (* last activation stamp handed out *)
    mutable capture : capture option;
  }

  let ph_frontier, ph_compute, ph_apply =
    (S.name ^ ".frontier", S.name ^ ".compute", S.name ^ ".apply")

  let mark_dirty t v = Frontier.mark t.frontier v

  (* A changed register invalidates its node's and every neighbour's next step. *)
  let dirty_neighbourhood t v =
    mark_dirty t v;
    for i = t.off.(v) to t.off.(v + 1) - 1 do
      mark_dirty t t.peers.(i)
    done

  let emit t e = match t.trace with None -> () | Some tr -> Trace.record tr e

  let create ?trace ?(domains = 1) graph =
    let n = Graph.n graph in
    let alarm_flags = Array.make n false in
    let peak = ref 0 and alarms = ref 0 in
    let store =
      S.create graph (fun v ->
          let s = P.init graph v in
          let a = P.alarm s in
          peak := Int.max !peak (P.bits graph v s);
          alarm_flags.(v) <- a;
          if a then incr alarms;
          s)
    in
    let metrics = Metrics.create () in
    metrics.Metrics.peak_bits <- !peak;
    let off, peers = Graph.csr graph in
    { graph; off; peers; store; rounds = 0; peak_bits = !peak; frontier = Frontier.create n;
      alarm_flags; alarm_count = !alarms; last_write = Array.make n 0; metrics; trace;
      round_hook = None; write_hook = None; domains = max 1 domains; tags = Bytes.empty;
      new_bits = [||]; read_stamp = 0; capture = None }

  let graph t = t.graph
  let state t v = S.get t.store v
  let rounds t = t.rounds
  let metrics t = t.metrics
  let peak_bits t = t.peak_bits
  let attach_trace t tr = t.trace <- Some tr

  (* Read-only probes (the differential suites check hooked runs against
     the naive engine).  The write hook fires after the register update, in
     ascending node id within a sync round at every domain count. *)
  let set_round_hook t f = t.round_hook <- Some f
  let set_write_hook t f = t.write_hook <- Some f
  let fire_round_hook t = match t.round_hook with None -> () | Some f -> f ()

  let last_write_round t v = t.last_write.(v)

  (* The capture buffers iff someone is listening this round. *)
  let capture_buffers t =
    if Option.is_none t.trace && Option.is_none t.write_hook then None
    else begin
      let n = Graph.n t.graph in
      if Option.is_none t.capture then
        t.capture <-
          Some { marks = Array.init t.domains (fun _ -> Array.make (Graph.max_degree t.graph) 0);
                            full = Array.make n None; causes = Array.make n Trace.Init };
      t.capture
    end

  (* One domain's stepper, built once per worker range or async round:
     [step v ~stamp] activates [v] against the live registers and returns
     the new register ([rd.changed] iff it differs).  A read names a port
     of [v]: [rd] caches the row's start [base] next to [deg], so [read p]
     is one range check and one load of [peers.(base + p)]; a port outside
     [0, deg) names no neighbour.  When captured, each distinct port
     read is stamped in worker [w]'s marks with the activation's unique
     [stamp] and counted in [rd]. *)
  type reader = {
    mutable base : int; mutable deg : int; mutable stamp : int; mutable distinct : int;
    mutable changed : bool; marks : int array }

  let stepper t cap w =
    let marks = match cap with None -> [||] | Some (c : capture) -> c.marks.(w) in
    let rd = { base = 0; deg = 0; stamp = 0; distinct = 0; changed = false; marks } in
    let tracking = Option.is_some cap in
    let read p =
      if p < 0 || p >= rd.deg then invalid_arg "Network.step: reading a non-neighbour";
      if tracking && marks.(p) <> rd.stamp then begin
        marks.(p) <- rd.stamp;
        rd.distinct <- rd.distinct + 1
      end;
      S.get t.store t.peers.(rd.base + p)
    in
    let step v ~stamp =
      let base = t.off.(v) in
      rd.base <- base;
      rd.deg <- t.off.(v + 1) - base;
      rd.stamp <- stamp;
      rd.distinct <- 0;
      let own = S.get t.store v in
      let s' = P.step t.graph v own read in
      rd.changed <- not (P.equal s' own);
      s'
    in
    (rd, step)

  (* A write's causal in-edges: the ports its step read, sorted
     ascending.  Full read sets share a per-node cached cause (filled on
     the calling domain); [partial_cause] rebuilds a partial one (rare)
     from the last step's marks, and is [None] for a full one. *)
  let full_cause t cap v =
    match cap.full.(v) with
    | Some c -> c
    | None ->
        let c = Trace.Neighbor_read (List.init (Graph.degree t.graph v) Fun.id) in
        cap.full.(v) <- Some c;
        c

  let partial_cause rd =
    if rd.distinct = rd.deg then None
    else begin
      let ports = ref [] in
      for p = rd.deg - 1 downto 0 do
        if rd.marks.(p) = rd.stamp then ports := p :: !ports
      done;
      Some (Trace.Neighbor_read !ports)
    end

  (* The field-level delta between two registers; only computed when a
     trace is attached. *)
  let field_changes = Trace.field_changes ~names:P.field_names ~encode:P.encode

  (* An immediate write, or the commit of this sync round's staged register. *)
  type write = Put of P.state | Commit

  let store_write t v = function Put s' -> S.put t.store v s' | Commit -> S.commit t.store v

  (* The single register-write path: every state mutation funnels through
     here so that peak bits, alarm counts, metrics, the trace and the
     write hook stay consistent without per-round O(n) rescans.  [bits]
     and [alarm] describe the new register; the old and new states are
     only materialized when a listener needs them. *)
  let apply_write t ~round ~cause v ~bits:b ~alarm:now w =
    let mt = t.metrics in
    if b > t.peak_bits then t.peak_bits <- b;
    if b > mt.Metrics.peak_bits then mt.Metrics.peak_bits <- b;
    mt.Metrics.register_writes <- mt.Metrics.register_writes + 1;
    mt.Metrics.last_write_round <- round;
    t.last_write.(v) <- round;
    (match (t.write_hook, t.trace) with
    | None, None -> store_write t v w
    | hook, trace -> (
        let old = S.get t.store v in
        store_write t v w;
        let s' = match w with Put s' -> s' | Commit -> S.get t.store v in
        (match hook with None -> () | Some f -> f ~round ~node:v ~old s' cause);
        match trace with
        | None -> ()
        | Some tr ->
            let prov = Some { Trace.cause; changes = field_changes old s' } in
            Trace.record tr (Trace.Register_write { round; node = v; bits = b; prov })));
    if t.alarm_flags.(v) <> now then begin
      t.alarm_flags.(v) <- now;
      t.alarm_count <- (t.alarm_count + if now then 1 else -1);
      if now then mt.Metrics.alarms_raised <- mt.Metrics.alarms_raised + 1
      else mt.Metrics.alarms_cleared <- mt.Metrics.alarms_cleared + 1;
      emit t
        (if now then Trace.Alarm_raised { round; node = v } else Alarm_cleared { round; node = v })
    end

  let put t ~round ~cause v s' =
    apply_write t ~round ~cause v ~bits:(P.bits t.graph v s') ~alarm:(P.alarm s') (Put s');
    dirty_neighbourhood t v

  let set_state t v s = put t ~round:t.rounds ~cause:Trace.Init v s

  (* One worker's share of a sync round: step members.(lo..hi-1) against
     the pre-round registers and stage every change (register, bits, alarm
     tag, captured cause) in slots the member owns — nothing observable
     mutates; an empty range allocates nothing.  Member i's stamp
     [base + i + 1] is unique across workers and rounds, so per-worker
     marks never read stale. *)
  let compute_range t cap ~base members lo hi wasted w =
    if hi > lo then begin
      let rd, step = stepper t cap w in
      for i = lo to hi - 1 do
        let v = members.(i) in
        let s' = step v ~stamp:(base + i + 1) in
        if not rd.changed then wasted.(w) <- wasted.(w) + 1
        else begin
          S.stage t.store v s';
          t.new_bits.(v) <- P.bits t.graph v s';
          let part =
            match cap with
            | None -> 0
            | Some c -> (
                match partial_cause rd with None -> 0 | Some pc -> c.causes.(v) <- pc; 4)
          in
          Bytes.set t.tags v (Char.chr (1 lor part lor if P.alarm s' then 2 else 0))
        end
      done
    end

  (* One synchronous round: the dirty nodes, drained in ascending node id,
     step on the pre-round registers.  With [domains > 1] on a multicore
     runtime, frontiers worth splitting fan out over contiguous (hence
     node-disjoint) member slices.  Every observable effect — activation
     events, commits, metrics, hooks, alarms, dirty marks — happens after
     the barrier on the calling domain in ascending node id, so registers,
     metrics, traces and recordings are byte-identical at every [-d]. *)
  let sync_round t =
    let round = t.rounds + 1 and n = Graph.n t.graph in
    let prb = if Frontier.is_empty t.frontier then None else Probe.get () in
    Probe.enter prb ph_frontier;
    let members, m = Frontier.drain t.frontier in
    Probe.leave prb ph_frontier;
    let k = if Domain_pool.available && m >= 2 * t.domains then t.domains else 1 in
    let cap = capture_buffers t in
    if Bytes.length t.tags <> n then begin
      S.reserve t.store;
      t.tags <- Bytes.make n '\000';
      t.new_bits <- Array.make n 0
    end;
    let wasted = Array.make k 0 and base = t.read_stamp in
    t.read_stamp <- base + m;
    Probe.enter prb ph_compute;
    if k = 1 then compute_range t cap ~base members 0 m wasted 0
    else
      Domain_pool.run ~domains:k (fun w ->
          let lo, hi = Domain_pool.slice ~domains:k m w in
          compute_range t cap ~base members lo hi wasted w);
    Probe.leave prb ph_compute;
    let mt = t.metrics in
    mt.Metrics.activations <- mt.Metrics.activations + m;
    mt.Metrics.wasted_steps <- Array.fold_left ( + ) mt.Metrics.wasted_steps wasted;
    mt.Metrics.skipped_activations <- mt.Metrics.skipped_activations + (n - m);
    mt.Metrics.rounds <- mt.Metrics.rounds + 1;
    t.rounds <- round;
    Probe.enter prb ph_apply;
    (match t.trace with
    | None -> ()
    | Some tr ->
        for i = 0 to m - 1 do Trace.record tr (Activation { round; node = members.(i) }) done);
    for i = 0 to m - 1 do
      let v = members.(i) in
      let tag = Char.code (Bytes.get t.tags v) in
      if tag <> 0 then begin
        Bytes.set t.tags v '\000';
        let cause =
          match cap with
          | None -> Trace.Init
          | Some c -> if tag land 4 <> 0 then c.causes.(v) else full_cause t c v
        in
        apply_write t ~round ~cause v ~bits:t.new_bits.(v) ~alarm:(tag land 2 <> 0) Commit;
        dirty_neighbourhood t v
      end
    done;
    Probe.leave prb ph_apply;
    fire_round_hook t

  (* One asynchronous round under a fair daemon, drawn exactly as in
     [Ssmst_oracle.Naive]: scheduled clean nodes are skipped, dirty ones
     read fresh registers and write immediately.  Compacting the frontier
     afterwards keeps within-round flag churn from accumulating stale
     entries. *)
  let async_round t daemon =
    let round = t.rounds + 1 and mt = t.metrics in
    let schedule = Scheduler.round_schedule daemon (Graph.n t.graph) in
    let cap = capture_buffers t in
    let rd, step = stepper t cap 0 in
    List.iter
      (fun v ->
        if Frontier.mem t.frontier v then begin
          Frontier.unmark t.frontier v;
          mt.Metrics.activations <- mt.Metrics.activations + 1;
          (match t.trace with
          | None -> ()
          | Some tr -> Trace.record tr (Activation { round; node = v }));
          t.read_stamp <- t.read_stamp + 1;
          let s' = step v ~stamp:t.read_stamp in
          if not rd.changed then mt.Metrics.wasted_steps <- mt.Metrics.wasted_steps + 1
          else
            let cause =
              match cap with
              | None -> Trace.Init
              | Some c -> (
                  match partial_cause rd with Some pc -> pc | None -> full_cause t c v)
            in
            put t ~round ~cause v s'
        end
        else mt.Metrics.skipped_activations <- mt.Metrics.skipped_activations + 1)
      schedule;
    t.rounds <- round;
    mt.Metrics.rounds <- mt.Metrics.rounds + 1;
    Frontier.compact t.frontier;
    fire_round_hook t

  let round t daemon = if Scheduler.is_sync daemon then sync_round t else async_round t daemon

  let run t daemon ~rounds = for _ = 1 to rounds do round t daemon done

  let any_alarm t = t.alarm_count > 0

  let alarming_nodes t =
    let acc = ref [] in
    Array.iteri (fun v a -> if a then acc := v :: !acc) t.alarm_flags;
    !acc

  (* Run until [stop] holds or [max_rounds] elapse: (rounds executed,
     reached), with a {!Trace.Convergence} event at the stopping point. *)
  let run_until t daemon ~max_rounds stop =
    let executed = ref 0 and reached = ref (stop t) in
    while (not !reached) && !executed < max_rounds do
      round t daemon;
      incr executed;
      reached := stop t
    done;
    emit t (Trace.Convergence { round = t.rounds; reached = !reached });
    (!executed, !reached)

  (* Rounds until the first alarm, or [None] if none within [max_rounds]. *)
  let detection_time t daemon ~max_rounds =
    let executed, reached = run_until t daemon ~max_rounds any_alarm in
    if reached then Some executed else None

  module Inject = Fault.Apply (P)

  (* One burst of [model], drawn exactly as [Ssmst_oracle.Naive.inject]
     draws it; each rewrite is an immediate write tagged with its
     injection id (numbered per run: the terminals provenance walks
     resolve against). *)
  let inject t st (model : Fault.t) =
    Inject.apply st t.graph model ~get:(state t) ~set:(fun v s' ->
        let fid : Fault.id = t.metrics.Metrics.faults_injected in
        t.metrics.Metrics.faults_injected <- fid + 1;
        emit t (Trace.Fault_injected { round = t.rounds; node = v; fault = Some fid });
        put t ~round:t.rounds ~cause:(Trace.Fault fid) v s')

  (* as in the naive engine: uniform faults, and the Section 2.4
     detection distance *)
  let inject_faults t st ~count = inject t st (Fault.uniform ~count)

  let detection_distance t ~faults =
    Dist.detection_distance t.graph ~faults ~alarms:(alarming_nodes t)
end

(* The event-driven engine over boxed registers: what the transformer,
   the flight recorder and the campaigns run on. *)
module Make (P : Protocol.S) = struct
  module Store = Boxed (P)

  (* over the [Boxed (P)] path, not [Store]: every [Make (P)] then shares
     one network type, so code outside can name it as [Make(P).t] *)
  include Core (P) (Boxed (P))

  (* The live register array itself (the recorder aliases it); mutate via
     [set_state] only. *)
  let states t = t.store.Store.live

  (* Bulk install of a register snapshot (the campaign-trial rewind):
     rebuilds the alarm flags, the dirty set and the peak-bits marks, but
     as bookkeeping, not protocol work — no [register_writes], no
     [last_write] stamps, no write hook, no trace or alarm events. *)
  let restore t snapshot =
    let live = states t in
    let n = Array.length live in
    if Array.length snapshot <> n then
      invalid_arg "Network.restore: snapshot size does not match the network";
    Array.blit snapshot 0 live 0 n;
    t.alarm_count <- 0;
    for v = 0 to n - 1 do
      let a = P.alarm live.(v) and b = P.bits t.graph v live.(v) in
      t.alarm_flags.(v) <- a;
      if a then t.alarm_count <- t.alarm_count + 1;
      if b > t.peak_bits then t.peak_bits <- b;
      if b > t.metrics.Metrics.peak_bits then t.metrics.Metrics.peak_bits <- b;
      mark_dirty t v
    done
end

(* The event-driven engine over packed registers ({!Protocol.PACKED}):
   bit-identical to both other engines under every daemon, which the
   three-way differential suite pins down. *)
module Flat (P : Protocol.PACKED) = struct
  module Store = Packed (P)
  include Core (P) (Store)

  let words t = t.store.Store.words
  let states t = Array.init (Graph.n t.graph) (state t)

  (* A copy of the raw register file: the byte-identity witness the
     parallel differential tests compare across domain counts. *)
  let registers t = Array.copy t.store.Store.regs

  (* The measured per-node footprint: whole 64-bit words, against which
     {!Memory.within_log_budget} gates the modeled bound. *)
  let measured_bytes_per_node t = Memory.bytes_of_words (words t)
end
