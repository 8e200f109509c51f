(* The four workloads.  Each one drives only public entry points — Gen,
   Transformer, Verifier_campaign, Network.Flat and Fault — so a later
   change to the engines behind them shows up here without touching this
   file.

   A run is: set-up (repeated, see {!Runner}), then cycles until the time
   is up.  A cycle mixes quiet windows of [window_rounds] rounds, which
   give the round rate, with fault episodes ("ops"), which give the
   episode latency.  Both are checked: a window must stay quiet, an
   episode must be detected within its budget, at a distance within the
   O(f log n) bound, and (under the transformer) leave the MST behind.
   The first [golden_cycles] cycles are deterministic in the seed and are
   logged into the workload's golden digest. *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let span = Ssmst_parallel.Probe.with_
let now = Unix.gettimeofday
let window_rounds = 40

type size = Full | Toy

(* ------------------------------------------------------------------ *)
(* The per-run recorder                                                *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable traced : bool;  (* the current cycle runs under telemetry *)
  mutable windows : float list;  (* rounds/s of each quiet window *)
  mutable traced_windows : float list;
  mutable ops : float list;  (* wall of each fault episode *)
  mutable attempted : int;
  mutable failures : string list;
  mutable rounds : int;  (* simulated rounds in the timed phase *)
  mutable detect_rounds : float list;
  mutable detect_distances : float list;
  (* engine counters, over the windows where the workload can read them *)
  mutable activations : int;
  mutable writes : int;
  mutable skipped : int;
  mutable counted_rounds : int;
  mutable logging : bool;
  log : Buffer.t;  (* logical record of the golden prefix *)
}

let recorder () =
  {
    traced = false;
    windows = [];
    traced_windows = [];
    ops = [];
    attempted = 0;
    failures = [];
    rounds = 0;
    detect_rounds = [];
    detect_distances = [];
    activations = 0;
    writes = 0;
    skipped = 0;
    counted_rounds = 0;
    logging = true;
    log = Buffer.create 4096;
  }

let fail r fmt = Fmt.kstr (fun s -> r.failures <- s :: r.failures) fmt

let log r fmt =
  Fmt.kstr
    (fun s ->
      if r.logging then begin
        Buffer.add_string r.log s;
        Buffer.add_char r.log '\n'
      end)
    fmt

(* A quiet window of [rounds] rounds: its rate is one [rounds_per_s] sample. *)
let window r ~rounds f =
  let t0 = now () in
  span "bench.window" f;
  let rate = float_of_int rounds /. (now () -. t0) in
  if r.traced then r.traced_windows <- rate :: r.traced_windows
  else r.windows <- rate :: r.windows;
  r.rounds <- r.rounds + rounds;
  r.attempted <- r.attempted + 1

(* One fault episode: its wall is one [op_s] sample. *)
let op r f =
  let t0 = now () in
  let x = span "bench.op" f in
  r.ops <- (now () -. t0) :: r.ops;
  r.attempted <- r.attempted + 1;
  x

(* [writes] counts protocol writes only: an injected fault is a register
   write too, but no activation's. *)
let count r (m : Metrics.t) f =
  let a = m.activations and s = m.skipped_activations and rd = m.rounds in
  let w = m.register_writes - m.faults_injected in
  f ();
  r.activations <- r.activations + m.activations - a;
  r.writes <- r.writes + m.register_writes - m.faults_injected - w;
  r.skipped <- r.skipped + m.skipped_activations - s;
  r.counted_rounds <- r.counted_rounds + m.rounds - rd

(* A detection: within the paper's O(f log n) distance (Section 2.4), with
   the constant the online monitor uses. *)
let detected r ~what ~n ~f ~rounds ~distance =
  r.rounds <- r.rounds + rounds;
  r.detect_rounds <- float_of_int rounds :: r.detect_rounds;
  let bound = Ssmst_obs.Monitor.default_distance_c * f * Memory.log2_ceil n in
  match distance with
  | Some d ->
      r.detect_distances <- float_of_int d :: r.detect_distances;
      if d > bound then fail r "%s: detection distance %d > %d" what d bound
  | None -> fail r "%s: no alarm reachable from the faults" what

let ints = Fmt.(list ~sep:(any ",") int)

(* ------------------------------------------------------------------ *)
(* Workload instances                                                  *)
(* ------------------------------------------------------------------ *)

type t = {
  name : string;
  gen : unit -> unit;  (* build the graph and keep it *)
  create : unit -> unit;  (* build the instance on the kept graph and keep it *)
  ready : run -> unit;  (* untimed checks and bookkeeping once the set-up is final *)
  cycle : run -> int -> unit;
  golden_cycles : int;
  state_digest : unit -> string;  (* the kept instance's output *)
  graph : unit -> Graph.t;
  codec_bytes : unit -> int;  (* packed register bytes per node *)
  codec_counts : unit -> (int * int) option;  (* unpacks, packs so far *)
  construct : (unit -> float * float * int) option;
      (* SYNC_MST then marker assembly on the workload graph: their walls
         and the label bits *)
}

let get r = match !r with Some x -> x | None -> invalid_arg "workload used before set-up"

let verifier_bytes (m : Marker.t) g =
  let module P = Verifier.Make (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  Memory.bytes_of_words (P.words g)

let construct_on graph () =
  let g = graph () in
  let t0 = now () in
  let r = span "bench.sync_mst" (fun () -> Sync_mst.run g) in
  let t1 = now () in
  let m = span "bench.marker" (fun () -> Marker.of_hierarchy r.Sync_mst.hierarchy) in
  (t1 -. t0, now () -. t1, m.Marker.label_bits)

let tree_digest tr =
  let b = Buffer.create 4096 in
  for v = 0 to Tree.n tr - 1 do
    Buffer.add_string b (string_of_int (Option.value ~default:(-1) (Tree.parent tr v)));
    Buffer.add_char b ','
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The transformer loop of [msst stabilize]: two quiet windows, then a
   [Bit_flip] burst of [f] nodes and one [advance] with a budget of 8
   verifier windows, which must detect, reset and reconstruct.  The
   episode's wall is injection to a verifying, rebuilt network. *)
let stabilize ~name ~async_ ~n ~f ~golden_cycles ~seed =
  let mode = if async_ then Verifier.Handshake else Verifier.Passive in
  let model = Fault.make ~severity:Fault.Bit_flip ~count:f () in
  let graph = ref None and inst = ref None in
  let rng = Gen.rng (seed + 2) in
  let gen () = graph := Some (span "bench.gen" (fun () -> Gen.random_connected (Gen.rng seed) n)) in
  let create () =
    let daemon = if async_ then Scheduler.Async_random (Gen.rng (seed + 1)) else Scheduler.Sync in
    inst := Some (span "bench.create" (fun () -> Transformer.create ~mode ~daemon (get graph)))
  in
  let quiet r i =
    let t = get inst in
    let r0 = t.Transformer.reconstructions in
    let m = (Option.get t.probe).Transformer.net_metrics in
    count r m (fun () ->
        window r ~rounds:window_rounds (fun () ->
            span "bench.advance" (fun () -> Transformer.advance t ~rounds:window_rounds)));
    if t.reconstructions <> r0 then fail r "cycle %d: alarm in a quiet window" i
  in
  let cycle r i =
    quiet r i;
    quiet r i;
    let g = get graph and t = get inst in
    let budget = 8 * Verifier.window_bound t.marker.Marker.labels.(0) in
    let r0 = t.reconstructions in
    let faults =
      op r (fun () ->
          let fs = span "bench.inject" (fun () -> Transformer.inject_model t rng model) in
          span "bench.advance" (fun () -> Transformer.advance t ~rounds:budget);
          fs)
    in
    let what = Fmt.str "op %d (faults %a)" i ints faults in
    match t.history with
    | Transformer.Constructed _ :: Detected { rounds; distance } :: _ when t.reconstructions = r0 + 1
      ->
        detected r ~what ~n ~f ~rounds ~distance;
        if not (Mst.is_mst g (Graph.plain_weight_fn g) (Transformer.tree t)) then
          fail r "%s: output is not the MST after repair" what;
        log r "op %d faults %a rounds %d distance %d" i ints faults rounds
          (Option.value ~default:(-1) distance)
    | _ -> fail r "%s: not detected within %d rounds" what budget
  in
  {
    name;
    gen;
    create;
    ready = ignore;
    cycle;
    golden_cycles;
    state_digest =
      (fun () ->
        let t = get inst in
        Fmt.str "tree %s total_rounds %d" (tree_digest (Transformer.tree t)) t.total_rounds);
    graph = (fun () -> get graph);
    codec_bytes = (fun () -> verifier_bytes (get inst).Transformer.marker (get graph));
    codec_counts = (fun () -> None);
    construct = Some (construct_on (fun () -> get graph));
  }

(* The path of [msst campaign]: one settled instance, then trials that
   each restore the snapshot into a fresh network.  A cycle is one quiet
   window — a fault-free trial of exactly [window_rounds] rounds, which
   must not alarm — and [per_cycle] [bit-flip] trials with f alternating
   2 and 3.  (Single bit-flips of a Top-partition piece weight are
   sometimes never detected, so f = 1 would make ops fail.) *)
let campaign ~n ~per_cycle ~golden_cycles ~seed =
  let graph = ref None and inst = ref None and marker = ref None in
  let quiet_model = Fault.make ~placement:(Fault.Targeted []) ~count:0 () in
  let gen () =
    graph :=
      Some
        (span "bench.gen" (fun () ->
             Verifier_campaign.graph_of_family "random" (Gen.rng seed) n))
  in
  let create () =
    inst :=
      Some (span "bench.prepare" (fun () -> Verifier_campaign.prepare ~family:"random" ~n ~seed ()))
  in
  (* the detection budget needs the verifier window, which needs a label *)
  let ready _ = marker := Some (Marker.run (get graph)) in
  let cycle r i =
    let inst = get inst in
    let n = Graph.n (Verifier_campaign.graph inst) in
    let root = Verifier_campaign.root inst in
    let budget = 8 * Verifier.window_bound (get marker).Marker.labels.(0) in
    let quiet = ref None in
    window r ~rounds:window_rounds (fun () ->
        quiet :=
          Some
            (span "bench.trial" (fun () ->
                 Verifier_campaign.run_trial inst ~model:quiet_model ~inject_seed:seed
                   ~max_rounds:window_rounds)));
    (match !quiet with
    | Some { Campaign.detection_rounds = None; rounds_run; _ } when rounds_run = window_rounds -> ()
    | _ -> fail r "cycle %d: alarm in a fault-free trial" i);
    for k = i * per_cycle to ((i + 1) * per_cycle) - 1 do
      let f = 2 + (k mod 2) in
      let model = Campaign.resolve_model "bit-flip" ~n ~root ~count:f in
      let o =
        op r (fun () ->
            span "bench.trial" (fun () ->
                Verifier_campaign.run_trial inst ~model ~inject_seed:((seed * 7919) + k)
                  ~max_rounds:budget))
      in
      let what = Fmt.str "trial %d (faults %a)" k ints o.victims in
      match o.detection_rounds with
      | Some rounds ->
          detected r ~what ~n ~f ~rounds ~distance:o.detection_distance;
          log r "trial %d faults %a rounds %d distance %d" k ints o.victims rounds
            (Option.value ~default:(-1) o.detection_distance)
      | None ->
          r.rounds <- r.rounds + o.rounds_run;
          fail r "%s: not detected within %d rounds" what budget
    done
  in
  {
    name = "campaign-random-256";
    gen;
    create;
    ready;
    cycle;
    golden_cycles;
    state_digest = (fun () -> tree_digest (get marker).Marker.tree);
    graph = (fun () -> get graph);
    codec_bytes = (fun () -> verifier_bytes (get marker) (get graph));
    codec_counts = (fun () -> None);
    construct = Some (construct_on (fun () -> get graph));
  }

(* The traced run's codec: Ss_bfs's, counting its unpacks and packs — the
   "unpack tax" that port-indexed reads and partial unpack should cut. *)
module Counting (P : Protocol.PACKED) = struct
  include P

  let unpacks = ref 0
  let packs = ref 0

  let unpack g v buf off =
    incr unpacks;
    P.unpack g v buf off

  let pack g v s buf off =
    incr packs;
    P.pack g v s buf off
end

(* PROF's breakdown shape: the packed ss-bfs election on a side x side
   grid, a uniform 64-node burst every 4 sync rounds.  Every node writes
   every round, so the time is all flat.compute/flat.apply and codec work;
   there is no verifier and no marker.  A cycle is one window of 10
   bursts (40 rounds); each burst and its 4 rounds is one op. *)
module Election (P : Protocol.PACKED) = struct
  module F = Network.Flat (P)

  let make ~side ~golden_cycles ~seed ~codec_counts =
    let graph = ref None and net = ref None in
    let rng = Gen.rng (seed + 2) in
    let gen () = graph := Some (span "bench.gen" (fun () -> Gen.stream_grid ~seed side side)) in
    let create () = net := Some (span "bench.create" (fun () -> F.create (get graph))) in
    let burst = Fault.uniform ~count:64 in
    let cycle r i =
      let net = get net in
      count r (F.metrics net) (fun () ->
          window r ~rounds:window_rounds (fun () ->
              for k = 0 to (window_rounds / 4) - 1 do
                let victims =
                  op r (fun () ->
                      let vs = span "bench.inject" (fun () -> F.inject net rng burst) in
                      for _ = 1 to 4 do
                        span "bench.round" (fun () -> F.round net Scheduler.Sync)
                      done;
                      vs)
                in
                log r "burst %d victims %a" ((i * (window_rounds / 4)) + k) ints victims
              done));
      if F.any_alarm net then fail r "cycle %d: ss-bfs raised an alarm" i
    in
    let ready r =
      let n = Graph.n (get graph) and words = F.words (get net) in
      if not (Memory.within_log_budget ~c:64 ~n ~words) then
        fail r "%d words per node exceed 64 * ceil(log2 %d) bits" words n
    in
    {
      name = "election-grid-250k";
      gen;
      create;
      ready;
      cycle;
      golden_cycles;
      state_digest = (fun () -> Digest.to_hex (Digest.string (Marshal.to_string (F.registers (get net)) [])));
      graph = (fun () -> get graph);
      codec_bytes = (fun () -> F.measured_bytes_per_node (get net));
      codec_counts;
      construct = None;
    }
end

module Plain_election = Election (Ssmst_protocols.Ss_bfs.P)
module Counted_bfs = Counting (Ssmst_protocols.Ss_bfs.P)
module Counted_election = Election (Counted_bfs)

let names = [ "stabilize-sync-1k"; "campaign-random-256"; "stabilize-async-512"; "election-grid-250k" ]

let make ~size ~trace ~seed name =
  let full = size = Full in
  match name with
  | "stabilize-sync-1k" ->
      stabilize ~name ~async_:false ~f:2 ~seed
        ~n:(if full then 1024 else 64)
        ~golden_cycles:(if full then 6 else 2)
  | "stabilize-async-512" ->
      stabilize ~name ~async_:true ~f:2 ~seed
        ~n:(if full then 512 else 48)
        ~golden_cycles:(if full then 6 else 2)
  | "campaign-random-256" ->
      campaign ~seed
        ~n:(if full then 256 else 32)
        ~per_cycle:(if full then 8 else 4)
        ~golden_cycles:(if full then 2 else 1)
  | "election-grid-250k" ->
      let side = if full then 500 else 32 in
      if trace then
        Counted_election.make ~side ~golden_cycles:1 ~seed ~codec_counts:(fun () ->
            Some (!Counted_bfs.unpacks, !Counted_bfs.packs))
      else Plain_election.make ~side ~golden_cycles:1 ~seed ~codec_counts:(fun () -> None)
  | _ -> invalid_arg (Fmt.str "unknown workload %S (expected one of: %s)" name (String.concat ", " names))
