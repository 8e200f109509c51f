open Ssmst_graph
open Ssmst_sim

(* The verifier instantiation of {!Campaign} (see the interface).  An
   [instance] caches the settled register snapshot so that a whole grid of
   (fault count x model) trials reuses one settling run; every trial then
   restores the snapshot into a fresh network, injects per the model and
   drives to the first alarm. *)

let family_names = [ "random"; "path"; "ring"; "grid"; "complete"; "star"; "hypertree" ]

(* the smallest request each family builds: a ring needs three nodes for
   distinct edges, grid and hypertree round any positive request up *)
let min_size = function "ring" -> 3 | "grid" | "hypertree" -> 1 | _ -> 2

let grid_side n = max 2 (int_of_float (sqrt (float_of_int n)))

(* the §9 lower-bound family: n is rounded down to the nearest
   complete-binary-tree size 2^(h+1)-1 (h >= 2) *)
let hypertree_height n =
  let h = ref 2 in
  while (1 lsl (!h + 2)) - 1 <= n do incr h done;
  !h

let graph_of_family family st n =
  match family with
  | "random" -> Gen.random_connected st n
  | "path" -> Gen.path st n
  | "ring" -> Gen.ring st n
  | "grid" ->
      let side = grid_side n in
      Gen.grid st side side
  | "complete" -> Gen.complete st n
  | "star" -> Gen.star st n
  | "hypertree" -> fst (Gen.hypertree_like st (hypertree_height n))
  | _ -> invalid_arg (Fmt.str "Verifier_campaign.graph_of_family: unknown family %S" family)

let stream_threshold = 50_000

let build_graph ~family ~seed n =
  match family with
  | "random" when n >= stream_threshold -> Gen.stream_random ~seed n
  | "grid" when n >= stream_threshold ->
      let side = grid_side n in
      Gen.stream_grid ~seed side side
  | "hypertree" when n >= stream_threshold -> Gen.stream_hypertree ~seed (hypertree_height n)
  | _ -> graph_of_family family (Gen.rng seed) n

(* The one verifier network every caller runs: the engine over [C]'s
   marker, plus what every Theorem 8.5 experiment (settle, inject,
   detect) shares — the settling run and the monitors' hook-up. *)
module Net (C : Verifier.CONFIG) = struct
  module P = Verifier.Make (C)
  include Network.Make (P)

  let settle t daemon =
    run t daemon ~rounds:(8 * Verifier.window_bound C.marker.Marker.labels.(0))

  let attach_monitors ?trace ?distance_c t =
    let module A = Ssmst_obs.Monitor.Attach (P) in
    A.attach ?trace ?distance_c ~parent:(Tree.parent C.marker.Marker.tree) t
end

type instance = {
  graph : Graph.t;
  marker : Marker.t;
  peak_bits : int;
  trial :
    domains:int -> model:Fault.t -> inject_seed:int -> max_rounds:int -> Campaign.outcome;
}

let graph t = t.graph
let root t = Tree.root t.marker.Marker.tree
let peak_bits t = t.peak_bits

(* [daemon] on a fresh stream drawn from [seed], clear of the fault
   stream [Gen.rng seed]; [Sync] stays [Sync] and allocates nothing *)
let reseed daemon seed =
  match daemon with
  | Scheduler.Sync -> daemon
  | Async_random _ -> Async_random (Random.State.make [| seed; 1 |])
  | Async_adversarial _ -> Async_adversarial (Random.State.make [| seed; 1 |])

(* One [Net] per instance: settling and every trial share its verifier,
   so the label-derived view table is built once, while settling. *)
let prepare ?(domains = 1) ?(mode = Verifier.Passive) ?(daemon = Scheduler.Sync) ~family ~n
    ~seed () =
  let g = build_graph ~family ~seed n in
  let m = Marker.run g in
  let module N = Net (struct
    let marker = m
    let mode = mode
  end) in
  let net = N.create ~domains g in
  N.settle net daemon;
  let settled = Array.copy (N.states net) in
  let trial ~domains ~model ~inject_seed ~max_rounds =
    let net = N.create ~domains g in
    (* metrics/trace-neutral rewind: [set_state] would funnel n writes
       through the engine's write path, inflating [register_writes],
       stamping [last_write] on every node and emitting spurious Init
       events — [restore] installs the snapshot as pure bookkeeping *)
    N.restore net settled;
    let rng = Gen.rng inject_seed and daemon = reseed daemon inject_seed in
    Campaign.drive ~rng ~model ~max_rounds
      ~round:(fun () -> N.round net daemon)
      ~any_alarm:(fun () -> N.any_alarm net)
      ~inject:(fun st m -> N.inject net st m)
      ~distance:(fun ~faults -> N.detection_distance net ~faults)
  in
  { graph = g; marker = m; peak_bits = N.peak_bits net; trial }

let run_trial ?(domains = 1) t ~model ~inject_seed ~max_rounds =
  (* one [campaign.trial] frame per trial, charged the rounds it ran and
     the faults it injected, so [msst profile campaign] can apportion time
     between settling and the trials *)
  Ssmst_parallel.Probe.with_ "campaign.trial" @@ fun () ->
  let o = t.trial ~domains ~model ~inject_seed ~max_rounds in
  (match Ssmst_parallel.Probe.get () with
  | Some s ->
      s.charge ~rounds:o.Campaign.rounds_run ~activations:0 ~writes:o.Campaign.injections
        ~peak_bits:0
  | None -> ());
  o

(* One instance's full (fault count x model) trial block, in grid order.
   The shard is self-contained — family, requested size and instance seed
   fully determine the settling run and every trial — which is exactly
   what makes it safe to farm out to a {!Ssmst_parallel.Pool} worker: the
   settling [prepare] (the expensive part) runs inside the shard and so
   parallelizes with its trials, and the rows come back as marshallable
   plain data. *)
let run_instance ~fault_counts ~models ~max_rounds (family, requested_n, seed) =
  let inst = prepare ~family ~n:requested_n ~seed () in
  (* grid/hypertree round the requested size: record what was actually
     built, so downstream c·f·⌈log n⌉ analysis reads the right n *)
  let actual_n = Graph.n inst.graph in
  let r = root inst in
  let trials = ref [] in
  List.iteri
    (fun fi f ->
      List.iteri
        (fun mi name ->
          let model = Campaign.resolve_model name ~n:actual_n ~root:r ~count:f in
          let inject_seed = (seed * 31) + (97 * fi) + mi + 1 in
          let outcome = run_trial inst ~model ~inject_seed ~max_rounds in
          let spec =
            { Campaign.family; n = actual_n; requested_n; faults = f; model = name; seed }
          in
          trials := { Campaign.spec; outcome } :: !trials)
        models)
    fault_counts;
  List.rev !trials

let sweep ?(jobs = 1) ~families ~sizes ~fault_counts ~models ~seeds ~seed ~max_rounds () =
  (* the instance grid in deterministic (family, size, seed index) order;
     each instance is one pool shard, and reassembly in submission order
     makes the trial list — and every CSV/JSONL byte derived from it —
     identical for every [jobs] *)
  let instances =
    List.concat_map
      (fun family ->
        List.concat_map
          (fun n -> List.init seeds (fun i -> (family, n, seed + (7919 * i))))
          sizes)
      families
  in
  Ssmst_parallel.Pool.map ~jobs (run_instance ~fault_counts ~models ~max_rounds) instances
  |> List.concat
