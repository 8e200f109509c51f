(* The benchmark harness: one driver per table/figure of the paper (see
   DESIGN.md's experiment index), each printing the paper-shaped rows with
   measured values, and the gates that check the implementation's cost
   contracts, each writing its rows to one BENCH_PR<N>.json schema.

   Run with: dune exec bench/main.exe            (all experiments)
             dune exec bench/main.exe -- T1 F-CT (a subset)

   The paper's detection-time, detection-distance and register-size
   bounds are checked by [msst report bounds], not here. *)

open Ssmst_graph
open Ssmst_sim
open Ssmst_core

let line () = Fmt.pr "%s@." (String.make 78 '-')

let header title =
  Fmt.pr "@.%s@." (String.make 78 '=');
  Fmt.pr "%s@." title;
  Fmt.pr "%s@." (String.make 78 '=')

let logn n = Memory.of_nat n

(* ==================================================================== *)
(* T1 — Table 1: self-stabilizing MST construction algorithms            *)
(* ==================================================================== *)

let table1 () =
  header
    "T1 / Table 1 — self-stabilizing MST construction: space (bits/node) x time (rounds)";
  Fmt.pr "%-28s %-6s %12s %14s %10s@." "algorithm" "n" "bits/node" "rounds" "rounds/n";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (3000 + n) in
      let g = Gen.random_connected st n in
      let hl = Ssmst_baselines.Higham_liang.run g in
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "Higham-Liang-style [48]" n
        hl.Ssmst_baselines.Higham_liang.memory_bits hl.Ssmst_baselines.Higham_liang.rounds
        (float_of_int hl.Ssmst_baselines.Higham_liang.rounds /. float_of_int n);
      let bl = Ssmst_baselines.Blin.run g in
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "Blin et al.-style [17]" n
        bl.Ssmst_baselines.Blin.memory_bits bl.Ssmst_baselines.Blin.rounds
        (float_of_int bl.Ssmst_baselines.Blin.rounds /. float_of_int n);
      let t = Transformer.create g in
      Transformer.advance t ~rounds:50;
      Fmt.pr "%-28s %-6d %12d %14d %10.1f@." "this paper (transformer)" n
        (Transformer.memory_bits t)
        (Transformer.stabilization_rounds t)
        (float_of_int (Transformer.stabilization_rounds t) /. float_of_int n);
      line ())
    [ 32; 64; 128; 256 ];
  Fmt.pr
    "paper's claim: [48]-style O(log n) bits x Theta(n|E|) time; [17]-style O(log^2 n)\n\
     bits x Theta(n^2) time; this paper O(log n) bits x O(n) time.@."

(* ==================================================================== *)
(* T2 — Table 2 / Figure 1: the worked 18-node example                   *)
(* ==================================================================== *)

let fig1_graph () =
  (* A fixed 18-node tree in the spirit of Figure 1 (the exact topology of
     the figure is not recoverable from the paper's text; see
     EXPERIMENTS.md).  Node names a..r. *)
  let edges =
    [
      (0, 1, 2); (5, 6, 6); (1, 6, 18); (2, 6, 12); (3, 7, 10); (4, 8, 15);
      (7, 8, 11); (2, 7, 20); (9, 10, 4); (14, 15, 8); (10, 15, 16);
      (11, 16, 3); (12, 17, 7); (12, 13, 14); (11, 12, 17); (10, 11, 21);
      (6, 11, 22);
    ]
  in
  Graph.of_edges ~n:18 edges

let node_name v = String.make 1 (Char.chr (Char.code 'a' + v))

let table2 () =
  header "T2 / Table 2 + Figure 1 — Roots, EndP, Parents, Or-EndP strings";
  let g = fig1_graph () in
  let m = Marker.run g in
  let labels = Labels.of_hierarchy m.hierarchy in
  let len = labels.(0).Labels.len in
  let pr_table name cell =
    Fmt.pr "@.%-8s" name;
    for j = 0 to len - 1 do
      Fmt.pr "%-6d" j
    done;
    Fmt.pr "@.";
    for v = 0 to 17 do
      Fmt.pr "%-8s" (node_name v);
      for j = 0 to len - 1 do
        Fmt.pr "%-6s" (cell v j)
      done;
      Fmt.pr "@."
    done
  in
  Fmt.pr "hierarchy height: %d (levels 0..%d); MST weight %d@." m.hierarchy.height
    m.hierarchy.height (Tree.total_base_weight m.tree);
  pr_table "Roots" (fun v j -> Fmt.str "%a" Labels.pp_rsym labels.(v).Labels.roots.(j));
  pr_table "EndP" (fun v j -> Fmt.str "%a" Labels.pp_esym labels.(v).Labels.endp.(j));
  pr_table "Parents" (fun v j -> if labels.(v).Labels.parents.(j) then "1" else "0");
  pr_table "Or-EndP" (fun v j -> if labels.(v).Labels.cnt.(j) > 0 then "1" else "0");
  (* machine-check legality, as the paper's Table 2 is claimed legal *)
  let vw = Labels.view_of_tree m.tree labels in
  let ok = List.for_all (fun v -> Labels.check_view vw v = []) (List.init 18 Fun.id) in
  Fmt.pr "@.RS0-RS5 and EPS0-EPS5 legality of all strings: %b@." ok

(* ==================================================================== *)
(* F-CT — construction time (Theorem 4.4: SYNC_MST is O(n))              *)
(* ==================================================================== *)

let fig_construction_time () =
  header "F-CT — construction time: SYNC_MST (O(n)) vs GHS (O(n log n)), marker included";
  Fmt.pr "%-6s %14s %10s %14s %10s %14s@." "n" "SYNC_MST" "/n" "GHS" "/n" "marker total";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (5000 + n) in
      let g = Gen.random_connected st n in
      let r = Sync_mst.run g in
      let ghs = Ssmst_baselines.Ghs.run g in
      let m = Marker.run g in
      Fmt.pr "%-6d %14d %10.1f %14d %10.1f %14d@." n r.rounds
        (float_of_int r.rounds /. float_of_int n)
        ghs.Ssmst_baselines.Ghs.rounds
        (float_of_int ghs.Ssmst_baselines.Ghs.rounds /. float_of_int n)
        m.construction_rounds)
    [ 32; 64; 128; 256; 512; 1024 ];
  Fmt.pr "shape check: SYNC_MST and marker columns stay linear (bounded /n).@."

(* ==================================================================== *)
(* F-MEM — memory: compact scheme O(log n) vs KKP 1-PLS Theta(log^2 n)   *)
(* ==================================================================== *)

let fig_memory () =
  header "F-MEM — label memory: this paper's O(log n) vs the 1-round PLS Omega(log^2 n)";
  Fmt.pr "%-6s %-8s %14s %12s %14s %12s@." "n" "log2 n" "compact bits" "/log n" "KKP bits"
    "/log^2 n";
  line ();
  List.iter
    (fun n ->
      let st = Gen.rng (5100 + n) in
      let g = Gen.random_connected st n in
      let m = Marker.run g in
      let kkp = Ssmst_pls.Kkp_pls.mark m in
      let l = float_of_int (logn n) in
      Fmt.pr "%-6d %-8d %14d %12.1f %14d %12.1f@." n (logn n) m.label_bits
        (float_of_int m.label_bits /. l)
        (Ssmst_pls.Kkp_pls.max_bits kkp)
        (float_of_int (Ssmst_pls.Kkp_pls.max_bits kkp) /. (l *. l)))
    [ 16; 32; 64; 128; 256; 512; 1024; 2048; 4096 ];
  Fmt.pr "shape check: compact/log n bounded; KKP/log^2 n bounded while KKP/compact grows.@."

(* ==================================================================== *)
(* F-LB — the Section 9 lower-bound trade-off                            *)
(* ==================================================================== *)

let fig_lower_bound () =
  header "F-LB — Section 9: time x memory trade-off on (subdivided) hypertree instances";
  Fmt.pr "%-4s %-4s %-6s | %-26s | %-26s@." "h" "tau" "n" "compact: bits, det. rounds"
    "KKP 1-PLS: bits, det. rounds";
  line ();
  List.iter
    (fun (h, tau) ->
      let c = Lower_bound.measure ~seed:(5200 + h + tau) ~h ~tau ~positive:false in
      let k, _ =
        Ssmst_pls.Kkp_pls.measure_lower_bound ~seed:(5200 + h + tau) ~h ~tau ~positive:false
      in
      Fmt.pr "%-4d %-4d %-6d | %10d bits, %a rounds | %10d bits, %a rounds@." h tau
        c.Lower_bound.n c.Lower_bound.label_bits
        Fmt.(option ~none:(any "-") int)
        c.Lower_bound.detection_rounds k.Lower_bound.label_bits
        Fmt.(option ~none:(any "-") int)
        k.Lower_bound.detection_rounds)
    [ (3, 0); (4, 0); (5, 0); (6, 0); (3, 1); (4, 1); (3, 2) ];
  Fmt.pr
    "Lemma 9.1: tau-round verification with l-bit labels on G' gives a 1-round scheme\n\
     with O(tau*l)-bit labels on G, and [54] forces tau*l = Omega(log^2 n): compact\n\
     labels cannot detect in O(1) rounds.@."

(* ==================================================================== *)
(* ABL — ablations of the two design knobs DESIGN.md calls out            *)
(* ==================================================================== *)

(* A1: the top/bottom threshold.  The paper sets it to log n; smaller
   thresholds make more, smaller top parts (longer piece lists relative to
   part size); larger ones grow part diameters and bottom parts. *)
let ablation_threshold () =
  header "ABL-1 — partition threshold sensitivity (paper: threshold = log2 n)";
  Fmt.pr "%-12s %-8s %10s %12s %12s %12s@." "threshold" "parts" "max |P|" "max diam" "max k"
    "label bits";
  line ();
  let n = 128 in
  let st = Gen.rng 7000 in
  let g = Gen.random_connected st n in
  List.iter
    (fun t ->
      let m = Marker.run ~threshold:t g in
      let parts = m.Marker.assignment.Partition.parts in
      let maxp =
        Array.fold_left (fun acc (p : Partition.part) -> max acc (List.length p.Partition.members)) 0 parts
      in
      let maxd = Array.fold_left (fun acc (p : Partition.part) -> max acc p.Partition.diameter) 0 parts in
      let maxk =
        Array.fold_left (fun acc (p : Partition.part) -> max acc (Array.length p.Partition.pieces)) 0 parts
      in
      Fmt.pr "%-12d %-8d %10d %12d %12d %12d@." t (Array.length parts) maxp maxd maxk
        m.Marker.label_bits)
    [ 2; 4; logn n; 2 * logn n; 4 * logn n ];
  Fmt.pr
    "the paper's threshold balances part diameter (Top detection latency) against\n\
     bottom-part train length; both extremes inflate one of the columns.@."

(* A2's fault: a semantic corruption of a stored piece. *)
let live_piece_targets (m : Marker.t) =
  (* (node, which part, own-index, level) of every *live* stored piece: one
     whose fragment actually intersects the part carrying it.  Corrupting a
     dead-cargo piece (an ancestor of a split part's red seed that misses
     the part entirely) is semantically null and correctly ignored by the
     verifier. *)
  let g = m.Marker.graph in
  let fragment_of (pc : Pieces.t) =
    Array.to_list m.Marker.hierarchy.Fragment.frags
    |> List.find_opt (fun (f : Fragment.t) ->
           f.Fragment.level = pc.Pieces.level && Graph.id g f.Fragment.root = pc.Pieces.root_id)
  in
  let acc = ref [] in
  Array.iteri
    (fun v (_ : Marker.node_label) ->
      let l = m.Marker.labels.(v) in
      let consider which (pl : Partition.node_part_label) part_ix =
        let part = m.Marker.assignment.Partition.parts.(part_ix) in
        Array.iteri
          (fun k (pc : Pieces.t) ->
            match fragment_of pc with
            | Some f
              when List.exists (fun u -> Fragment.mem f u) part.Partition.members ->
                acc := (v, which, k, pc.Pieces.level) :: !acc
            | Some _ | None -> ())
          pl.Partition.own
      in
      consider `Top l.Marker.top m.Marker.assignment.Partition.top_of.(v);
      consider `Bottom l.Marker.bot m.Marker.assignment.Partition.bot_of.(v))
    m.Marker.labels;
  !acc

let semantic_fault_at rng (m : Marker.t) =
  (* prefer the highest-level live piece: the Ask cycle reaches it last *)
  match live_piece_targets m with
  | [] -> None
  | targets ->
      let best = List.fold_left (fun acc (_, _, _, l) -> max acc l) (-1) targets in
      let top_targets = List.filter (fun (_, _, _, l) -> l >= max 1 (best - 1)) targets in
      let pick = if top_targets = [] then targets else top_targets in
      Some (List.nth pick (Random.State.int rng (List.length pick)))

let corrupt_live_piece rng (s : Verifier.state) which k =
  let bump (pl : Partition.node_part_label) =
    let own = Array.copy pl.Partition.own in
    let w = own.(k).Pieces.weight in
    own.(k) <-
      {
        (own.(k)) with
        Pieces.weight = { w with Weight.base = w.Weight.base + 1 + Random.State.int rng 7 };
      };
    { pl with Partition.own = own }
  in
  let label =
    match which with
    | `Top -> { s.Verifier.label with Marker.top = bump s.Verifier.label.Marker.top }
    | `Bottom -> { s.Verifier.label with Marker.bot = bump s.Verifier.label.Marker.bot }
  in
  { s with Verifier.label; cmp = Verifier.cmp_init; alarm = false }

(* rounds to the first alarm after one such fault, Passive/Sync *)
let detection_sample ~seed n =
  let st = Gen.rng seed in
  let g = Gen.random_connected st n in
  let m = Marker.run g in
  let module N = Verifier_campaign.Net (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  let net = N.create g in
  N.settle net Scheduler.Sync;
  if N.any_alarm net then None
  else
    let rng = Gen.rng (seed + 1) in
    match semantic_fault_at rng m with
    | None -> None
    | Some (v, which, k, _) ->
        N.set_state net v (corrupt_live_piece rng (N.state net v) which k);
        N.detection_time net Scheduler.Sync ~max_rounds:200000

(* A2: the comparison window factor.  Windows shorter than a train cycle
   miss comparisons (semantic faults go undetected); longer windows only
   stretch the Ask cycle linearly. *)
let ablation_window () =
  header "ABL-2 — comparison window factor (paper: a full train cycle per level)";
  Fmt.pr "%-10s %14s %18s@." "factor" "detected" "avg detection rounds";
  line ();
  let n = 32 in
  (* the window factor is a module-level knob: restore it even if a sweep
     step raises, or the ablation value leaks into every later experiment *)
  let saved = !Verifier.window_factor in
  Fun.protect
    ~finally:(fun () -> Verifier.window_factor := saved)
    (fun () ->
      List.iter
        (fun factor ->
          Verifier.window_factor := factor;
          let dts = List.filter_map (fun i -> detection_sample ~seed:(7100 + i) n) [ 0; 1; 2; 3; 4 ]
          in
          let avg =
            match dts with
            | [] -> Float.nan
            | _ -> float_of_int (List.fold_left ( + ) 0 dts) /. float_of_int (List.length dts)
          in
          Fmt.pr "%-10d %10d / 5 %18.0f@." factor (List.length dts) avg)
        [ 2; 5; 10; 20; 40; 80 ]);
  Fmt.pr
    "too-small windows end a level before the neighbours' trains complete a cycle,\n\
     so semantic faults can escape comparison; beyond one full cycle, larger\n\
     factors only slow the Ask rotation (and hence detection) linearly.@."

(* ==================================================================== *)
(* CAMPAIGN — typed fault-model campaign on the verifier                 *)
(* ==================================================================== *)

(* A compact instance of the msst-campaign sweep: per-trial detection time
   and distance for every fault model, aggregated min/median/p95 across
   seeds, with the per-trial rows emitted as CSV (msst campaign --jsonl
   writes the same sweep's rows as JSONL). *)
let fig_campaign () =
  header "CAMPAIGN — fault models x f: detection time / distance vs O(f log n)";
  let families = [ "random"; "grid" ] and sizes = [ 64 ] in
  let fault_counts = [ 1; 2; 4; 8 ] and models = [ "uniform"; "clustered"; "near-root" ] in
  let trials =
    Verifier_campaign.sweep ~families ~sizes ~fault_counts ~models ~seeds:3 ~seed:9000
      ~max_rounds:20000 ()
  in
  Fmt.pr "%a" Campaign.pp_agg_table (Campaign.aggregate trials);
  Fmt.pr "@.f*log n reference: %a@."
    Fmt.(list ~sep:comma string)
    (List.map (fun f -> Fmt.str "f=%d -> %d" f (f * logn 64)) fault_counts);
  Fmt.pr "@.per-trial rows (CSV):@.%s@." Campaign.csv_header;
  List.iter (fun t -> Fmt.pr "%s@." (Campaign.trial_to_csv t)) trials;
  Fmt.pr
    "shape check: dd columns stay within a constant factor of f*log n for the random\n\
     placements and shrink for the clustered/near-root ones (faults share a ball).@."

(* ==================================================================== *)
(* Knobs and bench artifacts                                             *)
(* ==================================================================== *)

(* The SSMST_* knobs.  A malformed value is a typo in a CI step or a
   shell; running the default instead would hide it, so it ends the run. *)
let env_parse what parse name ~default =
  match Sys.getenv_opt name with
  | None -> default
  | Some s -> (
      match parse (String.trim s) with
      | Some v -> v
      | None ->
          Fmt.epr "bench: %s=%S is not %s.@." name s what;
          exit 2)

let env_int = env_parse "an integer" int_of_string_opt

let env_float =
  env_parse "a finite number" (fun s ->
      Option.bind (float_of_string_opt s) (fun f -> if Float.is_finite f then Some f else None))

module Json = Ssmst_obs.Json_lite

(* Every gate records its results in one schema: BENCH_PR<N>.json in the
   cwd holds {"pr", "within_budget", "rows"}, one row per recorded value.
   [better] is the direction of improvement of a measurement REPORT
   charts; a value with none (a count, a gate parameter, a check stored
   as 1/0 with unit "bool") is recorded but not charted.  [gated] says
   whether the row's gate was enforced in this run: false for
   informational rows and for speedups measured on too few cores.
   [cores] is unknown only in artifacts written before cores were
   recorded. *)
type row = {
  workload : string;
  metric : string;
  value : float;
  unit : string;
  better : [ `Higher | `Lower ] option;
  gated : bool;
  cores : int option;
}

let row ?better ~gated workload metric unit value =
  { workload; metric; value; unit; better; gated; cores = Some (Ssmst_parallel.Pool.cpu_count ()) }

let check ~gated workload metric ok = row ~gated workload metric "bool" (if ok then 1. else 0.)

let json_of_row r =
  let nullable f = function Some v -> f v | None -> Json.Null in
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("metric", Json.Str r.metric);
      ("value", Json.Num r.value);
      ("unit", Json.Str r.unit);
      ( "better",
        nullable (function `Higher -> Json.Str "higher" | `Lower -> Json.Str "lower") r.better );
      ("gated", Json.Bool r.gated);
      ("cores", nullable (fun c -> Json.Num (float_of_int c)) r.cores);
    ]

(* The one reader: (pr, within_budget, rows), or [Json.Bad] on anything
   that is not this schema. *)
let read_artifact path =
  let ic = open_in path in
  let body =
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))
  in
  let get key conv obj =
    match conv (Json.mem key obj) with
    | Some v -> v
    | None -> raise (Json.Bad (Printf.sprintf "missing or ill-typed %S" key))
  in
  let nullable conv = function Some Json.Null -> Some None | v -> Option.map Option.some (conv v) in
  let better = function
    | Some (Json.Str "higher") -> Some `Higher
    | Some (Json.Str "lower") -> Some `Lower
    | _ -> None
  in
  let cores v = Option.map int_of_float (Json.num_opt v) in
  let row_of o =
    {
      workload = get "workload" Json.str_opt o;
      metric = get "metric" Json.str_opt o;
      value = get "value" Json.num_opt o;
      unit = get "unit" Json.str_opt o;
      better = get "better" (nullable better) o;
      gated = get "gated" Json.bool_opt o;
      cores = get "cores" (nullable cores) o;
    }
  in
  let j = Json.parse body in
  let rows = get "rows" (function Some (Json.Arr l) -> Some l | _ -> None) j in
  (int_of_float (get "pr" Json.num_opt j), get "within_budget" Json.bool_opt j, List.map row_of rows)

(* The one writer.  It never lets a run that could not enforce a gate
   overwrite an artifact that records the gate enforced: REPORT would then
   chart, say, a 1-core container's 0.88x @ -j 4 as a measured scaling
   result.  SSMST_PAR_FORCE=1 overrides. *)
let write_artifact ~pr ~within_budget rows =
  let path = Printf.sprintf "BENCH_PR%d.json" pr in
  let was_gated =
    match read_artifact path with
    | _, _, old ->
        fun r -> List.exists (fun o -> o.gated && o.workload = r.workload && o.metric = r.metric) old
    | exception (Sys_error _ | Json.Bad _) -> fun _ -> false
  in
  if
    List.exists (fun r -> (not r.gated) && was_gated r) rows
    && Sys.getenv_opt "SSMST_PAR_FORCE" <> Some "1"
  then
    Fmt.pr
      "NOT overwriting %s: it records gated rows this un-gated run could not enforce; set \
       SSMST_PAR_FORCE=1 to overwrite anyway.@."
      path
  else begin
    let oc = open_out path in
    output_string oc
      (Json.to_string
         (Json.Obj
            [
              ("pr", Json.Num (float_of_int pr));
              ("within_budget", Json.Bool within_budget);
              ("rows", Json.Arr (List.map json_of_row rows));
            ])
      ^ "\n");
    close_out oc;
    Fmt.pr "@.(machine-readable results written to %s)@." path
  end

(* ==================================================================== *)
(* Shared gate drivers                                                   *)
(* ==================================================================== *)

let wall f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The one A/B harness.  ENGINE, OBS, REPLAY and PROF time the same
   workloads (same graphs, seeds and windows) with one timer,
   [time_interleaved], so the bare wall_off_s rows of their artifacts
   measure one experiment.  The overhead gates run a workload on the
   event-driven engine bare and with a ride: the flight recorder (k = 64,
   attached at creation, so the settle records too), a Telemetry sink
   around the timed part, or the whole observatory — the monitors,
   attached at creation, plus the sink.  With a sink installed, the
   timed part runs in a frame charged the network's metrics.  ENGINE runs
   the same phases on the naive reference engine against the event-driven
   one. *)
type ride = Bare | Recorder | Telemetry | Monitors

let riding ride f =
  match ride with
  | Telemetry | Monitors ->
      Ssmst_obs.Telemetry.install (Ssmst_obs.Telemetry.create ());
      Fun.protect ~finally:Ssmst_obs.Telemetry.uninstall f
  | Bare | Recorder -> f ()

(* What the workloads drive: [Ssmst_oracle.Naive], or [Network.Make] with
   [create]'s optional arguments left out. *)
module type ENGINE = sig
  type t
  type state

  val create : Graph.t -> t
  val states : t -> state array
  val run : t -> Scheduler.t -> rounds:int -> unit
  val inject_faults : t -> Random.State.t -> count:int -> int list
  val detection_time : t -> Scheduler.t -> max_rounds:int -> int option
end

(* The workloads' phases, written once for every engine. *)
module Script (E : ENGINE) = struct
  (* W1: the ss-bfs election settles (untimed), then 1 fault + 4096 mostly
     quiescent rounds are timed *)
  let w1_settle net = E.run net Scheduler.Sync ~rounds:600

  let w1 net =
    ignore (E.inject_faults net (Gen.rng 8311) ~count:1);
    E.run net Scheduler.Sync ~rounds:4096

  (* W2: the verifier settles, takes 1 fault and runs until detection,
     creation included in the timing.  It rewrites every register every
     round: the recorder's and the monitors' dense case. *)
  let w2 ~settle net =
    E.run net Scheduler.Sync ~rounds:settle;
    ignore (E.inject_faults net (Gen.rng 8411) ~count:1);
    ignore (E.detection_time net Scheduler.Sync ~max_rounds:20000)

  (* churn: a 4-fault burst every 128 rounds keeps the ss-bfs election
     re-converging, so nearly every activation is a write *)
  let churn net =
    for k = 0 to 7 do
      ignore (E.inject_faults net (Gen.rng (8310 + k)) ~count:4);
      E.run net Scheduler.Sync ~rounds:128
    done

  (* ENGINE's runs of W1 and W2 on [E]: wall time and final registers *)
  let w1_side g =
    let net = E.create g in
    w1_settle net;
    let (), s = wall (fun () -> w1 net) in
    (s, E.states net)

  let w2_side ~settle g =
    let net, s =
      wall (fun () ->
          let net = E.create g in
          w2 ~settle net;
          net)
    in
    (s, E.states net)
end

module Ridden (P : Protocol.S) = struct
  module Net = Network.Make (P)

  module Run = Script (struct
    include Net

    type state = P.state

    let create g = create g
  end)

  module Naive = Script (struct
    include Ssmst_oracle.Naive (P)

    type state = P.state
  end)

  module R = Ssmst_replay.Recorder.Make (P)
  module Mon = Ssmst_obs.Monitor.Attach (P)

  (* a network of [g] with [ride]'s attachment; [parent] is the tree the
     monitors check *)
  let create ?(parent = fun _ -> None) ride g =
    let net = Net.create g in
    (match ride with
    | Recorder ->
        let rec_ = R.create ~interval:64 ~round0:0 g (Net.states net) in
        Net.set_write_hook net (R.engine_hook rec_ (Net.states net))
    | Monitors -> ignore (Mon.attach ~parent net)
    | Bare | Telemetry -> ());
    net

  (* [drive net] in a frame charged [net]'s metrics (plain [drive net]
     when no sink is installed) *)
  let metered drive net =
    Ssmst_obs.Telemetry.metered "drive" (Net.metrics net) (fun () -> drive net)

  (* [drive] on a fresh [ride] network of [g], creation included in the
     wall time, and the network's metrics after *)
  let timed ?parent ride g drive =
    riding ride (fun () ->
        let net, s =
          wall (fun () ->
              let net = create ?parent ride g in
              metered drive net;
              net)
        in
        (s, Net.metrics net))

  (* ENGINE's two sides of a workload for [time_interleaved]: [side false]
     runs [naive ()], [side true] [engine ()]; [agree ()] compares the
     registers the last run of each ended in. *)
  let versus naive engine =
    let regs = [| [||]; [||] |] in
    let side on =
      let s, r = if on then engine () else naive () in
      regs.(Bool.to_int on) <- r;
      s
    in
    (side, fun () -> Array.for_all2 P.equal regs.(0) regs.(1))
end

module Bfs = Ridden (Ssmst_protocols.Ss_bfs.P)

let w1_graph = lazy (Gen.random_connected (Gen.rng 8300) 256)
let w1_name = "ENGINE-W1 ss-bfs n=256, 1 fault"
let w2_name = "ENGINE-W2 verifier n=256, detection"
let churn_name = "churn ss-bfs n=256, 8x4 faults"

let w1_ride ride =
  let net = Bfs.create ride (Lazy.force w1_graph) in
  Bfs.Run.w1_settle net;
  Metrics.reset (Bfs.Net.metrics net);
  riding ride (fun () ->
      let (), s = wall (fun () -> Bfs.metered Bfs.Run.w1 net) in
      (s, Bfs.Net.metrics net))

let churn_ride ride = Bfs.timed ride (Lazy.force w1_graph) Bfs.Run.churn

(* W2's instance, built on the first (warm-up, untimed) run: the ride
   driver and ENGINE's two sides *)
let w2 =
  lazy
    (let g = Gen.random_connected (Gen.rng 8400) 256 in
     let m = Marker.run g in
     let module VN = Verifier_campaign.Net (struct
       let marker = m
       let mode = Verifier.Passive
     end) in
     let module V = Ridden (VN.P) in
     let settle = 2 * Verifier.window_bound m.labels.(0) in
     ( (fun ride -> V.timed ~parent:(Tree.parent m.Marker.tree) ride g (V.Run.w2 ~settle)),
       V.versus (fun () -> V.Naive.w2_side ~settle g) (fun () -> V.Run.w2_side ~settle g) ))

let w2_ride ride = fst (Lazy.force w2) ride

let w1_engines =
  lazy
    (let g = Lazy.force w1_graph in
     Bfs.versus (fun () -> Bfs.Naive.w1_side g) (fun () -> Bfs.Run.w1_side g))

(* A gate's failed checks and missed bounds: print each, then exit 1. *)
let exit_on_failures gate = function
  | [] -> ()
  | fs ->
      List.iter (Fmt.pr "%s: %s.@." gate) fs;
      exit 1

(* The overhead gates' timer: the off/on repetitions are interleaved so
   slow drift in machine load biases both sides equally, and the figure is
   the median of [reps] (a best-of compares the two luckiest runs, which
   makes an overhead ratio flap under machine noise).  [reps] is
   per-workload: short windows need more repetitions to converge. *)
let time_interleaved ~reps run =
  ignore (run false);
  ignore (run true);
  let off = Array.make reps 0. and on_ = Array.make reps 0. in
  for i = 0 to reps - 1 do
    off.(i) <- run false;
    on_.(i) <- run true
  done;
  let median a =
    Array.sort compare a;
    a.(reps / 2)
  in
  (median off, median on_)

(* The "bool" rows that read false, as failures. *)
let failed_checks rows =
  List.filter_map
    (fun r ->
      if r.unit = "bool" && r.value = 0. then
        Some (Fmt.str "check %s failed on %s" r.metric r.workload)
      else None)
    rows

(* The overhead gates' driver (OBS, REPLAY, PROF).  Each workload
   [(gated, reps, name, run)] is timed bare vs with [ride]; [extra ~gated
   name t_on run] gives the gate's own column and rows, whose "bool" rows
   are checks that must hold on every workload.  Writes BENCH_PR<pr>.json
   and returns the failed checks and the gated overheads above
   [budget]. *)
let overhead_gate ~gate ~pr ~ride ~budget ~column ~extra ~params workloads =
  let label = if ride = Recorder then "recorder" else "probes" in
  Fmt.pr "%-38s %12s %12s %10s %10s@." "workload" (label ^ " off") (label ^ " on") "overhead"
    column;
  line ();
  let measure (gated, reps, name, run) =
    let t_off, t_on = time_interleaved ~reps (fun on -> fst (run (if on then ride else Bare))) in
    let ov = (t_on -. t_off) /. t_off in
    let note, rows = extra ~gated name t_on run in
    Fmt.pr "%-38s %9.2f ms %9.2f ms %+9.1f%% %10s%s@." name (1000. *. t_off) (1000. *. t_on)
      (100. *. ov) note
      (if gated then "" else "  (info)");
    ( (name, ov, gated),
      [
        row ~better:`Lower ~gated name "wall_off_s" "s" t_off;
        row ~better:`Lower ~gated name "wall_on_s" "s" t_on;
        row ~better:`Lower ~gated name "overhead_pct" "%" (100. *. ov);
      ]
      @ rows )
  in
  let results = List.map measure workloads in
  let rows = List.concat_map snd results in
  let over = List.filter (fun (_, ov, gated) -> gated && ov > budget) (List.map fst results) in
  write_artifact ~pr ~within_budget:(over = [])
    (rows @ (row ~gated:true gate "budget_pct" "%" (100. *. budget) :: params));
  if over = [] then Fmt.pr "%s overhead within the %.0f%% budget.@." gate (100. *. budget);
  failed_checks rows
  @ List.map
      (fun (n, ov, _) ->
        Fmt.str "overhead budget (%.0f%%) exceeded: %s (%+.1f%%)" (100. *. budget) n (100. *. ov))
      over

(* An overhead gate's [extra] that checks [ride] stays out of band: the
   run ends with the bare run's metrics, byte for byte.  The monitors
   count their violations there, so under [Monitors] it also checks that
   none was recorded. *)
let out_of_band ride ~gated name _ run =
  let csv ride = Metrics.to_csv_row (snd (run ride)) in
  let identical = csv Bare = csv ride in
  ((if identical then "yes" else "NO"), [ check ~gated name "identical" identical ])

module Flat_bfs = Network.Flat (Ssmst_protocols.Ss_bfs.P)

(* The DOMAINS workload, which PROF's per-phase breakdown also profiles: a
   streamed grid of about SSMST_DOMAINS_N nodes through 12 sync rounds
   with a 64-fault burst every 4th (same seeds at every -d).  The bursts
   keep the frontier wide: a converged election is quiescent and has
   nothing to parallelize.  Returns the wall time of the rounds. *)
let burst_grid =
  lazy
    (let target = max 1024 (env_int "SSMST_DOMAINS_N" ~default:250_000) in
     let side = int_of_float (sqrt (float_of_int target)) in
     Gen.stream_grid ~seed:7700 side side)

let burst_rounds = 12

let grid_burst ~domains =
  let net = Flat_bfs.create ~domains (Lazy.force burst_grid) in
  let (), s =
    wall (fun () ->
        for r = 1 to burst_rounds do
          if r mod 4 = 1 then
            ignore (Flat_bfs.inject net (Gen.rng (9000 + r)) (Fault.uniform ~count:64));
          Flat_bfs.round net Scheduler.Sync
        done)
  in
  (s, net)

(* PAR's and DOMAINS' gate: [run k] times the workload on k = 1, 2, 4
   workers and returns its output, which must be identical to the
   sequential run's on every run (exit 1 otherwise).  The speedup at k = 4
   is a physical claim that only means something with >= 4 cores and a
   runtime that can use them, so elsewhere its rows are recorded
   un-gated: informational.  Writes BENCH_PR<pr>.json. *)
let scaling_gate ~gate ~pr ~flag ~multicore ~min_speedup ~params run =
  Fmt.pr "%-10s %12s %10s %10s@." flag "wall" "speedup" "identical";
  line ();
  let t1, out1 = run 1 in
  Fmt.pr "%-10d %9.3f s %10s %10s@." 1 t1 "1.00x" "-";
  let runs =
    List.map
      (fun k ->
        let t, out = run k in
        Fmt.pr "%-10d %9.3f s %9.2fx %10b@." k t (t1 /. t) (out = out1);
        (k, t, out = out1))
      [ 2; 4 ]
  in
  let cores = Ssmst_parallel.Pool.cpu_count () in
  let gated = cores >= 4 && multicore in
  let identical = List.for_all (fun (_, _, same) -> same) runs in
  let speedup4 = List.fold_left (fun s (k, t, _) -> if k = 4 then t1 /. t else s) 0. runs in
  Fmt.pr "@.%d core(s); speedup gate (>= %.2fx at %s 4) %s@." cores min_speedup flag
    (if gated then "enforced"
     else if not multicore then "informational (sequential runtime — OCaml < 5.0)"
     else "informational (needs >= 4 cores)");
  if not gated then Fmt.pr "gate skipped: %d cores (scaling gate needs >= 4)@." cores;
  let point (k, t, same) =
    let w = Printf.sprintf "%s %d" flag k in
    [
      row ~better:`Lower ~gated w "wall_s" "s" t;
      row ~better:`Higher ~gated w "speedup" "x" (t1 /. t);
      check ~gated w "identical" same;
    ]
  in
  write_artifact ~pr
    ~within_budget:(identical && ((not gated) || speedup4 >= min_speedup))
    (List.concat_map point ((1, t1, true) :: runs)
    @ row ~gated gate "min_speedup" "x" min_speedup
      :: List.map (fun (metric, unit, v) -> row ~gated gate metric unit v) params);
  exit_on_failures gate
    ((if identical then []
      else [ Fmt.str "determinism violated: output at %s 2/4 differs from %s 1" flag flag ])
    @
    if gated && speedup4 < min_speedup then
      [ Fmt.str "scaling budget missed: %.2fx at %s 4 (target %.2fx)" speedup4 flag min_speedup ]
    else [])

(* ==================================================================== *)
(* ENGINE — event-driven engine vs naive re-step engine + BENCH_PR1.json *)
(* ==================================================================== *)

(* The naive reference re-steps every node every round; the event-driven
   engine skips activations whose inputs are unchanged.  On W1, a silent
   protocol after one fault, the skipping is nearly the whole run; W2, the
   always-active verifier, is the control where nothing can be skipped.
   The two engines must end in the same registers (exit 1 otherwise). *)
let fig_engine () =
  header "ENGINE — event-driven engine vs naive re-step engine (same semantics)";
  Fmt.pr "%-38s %12s %12s %10s %8s@." "workload" "naive" "engine" "speedup" "agree";
  line ();
  let measure (reps, name, (side, agree)) =
    let naive_s, engine_s = time_interleaved ~reps side in
    let agree = agree () in
    Fmt.pr "%-38s %9.2f ms %9.2f ms %9.1fx %8b@." name (1000. *. naive_s) (1000. *. engine_s)
      (naive_s /. engine_s) agree;
    [
      row ~better:`Lower ~gated:false name "wall_naive_s" "s" naive_s;
      row ~better:`Lower ~gated:false name "wall_engine_s" "s" engine_s;
      row ~better:`Higher ~gated:false name "speedup_vs_naive" "x" (naive_s /. engine_s);
      check ~gated:true name "agree" agree;
    ]
  in
  let rows =
    List.concat_map measure
      [ (31, w1_name, Lazy.force w1_engines); (5, w2_name, snd (Lazy.force w2)) ]
  in
  let failed = failed_checks rows in
  write_artifact ~pr:1 ~within_budget:(failed = []) rows;
  Fmt.pr
    "the differential suite (test/test_engine_diff.ml) asserts state-array and\n\
     round-count equality of the two engines on 240+ random instances.@.";
  exit_on_failures "ENGINE" failed

(* ==================================================================== *)
(* OBS — runtime observatory overhead + BENCH_PR3.json                   *)
(* ==================================================================== *)

(* The observatory's cost contract: a run with the full observatory
   attached — the online invariant monitors on the engine's round hook
   and a Telemetry profiler with a metered frame — must stay within 15%
   of the bare engine.  Both workloads write every round, so every
   monitored round pays a full re-evaluation (a quiescent tail would
   compare the monitors' O(1) cached check against near-free skipped
   rounds, measuring only timer noise; the cache itself is unit-tested in
   test_obs). *)
let fig_obs () =
  header "OBS — runtime observatory overhead: probes on vs off (budget: 15%)";
  exit_on_failures "OBS"
    (overhead_gate ~gate:"OBS" ~pr:3 ~ride:Monitors ~budget:0.15 ~column:"identical"
       ~extra:(out_of_band Monitors) ~params:[]
       [ (true, 9, churn_name, churn_ride); (true, 5, w2_name, w2_ride) ])

(* ==================================================================== *)
(* REPLAY — flight recorder overhead + BENCH_PR4.json                    *)
(* ==================================================================== *)

(* The flight recorder's cost contract: running the ENGINE workloads with
   the recorder attached (checkpoint interval k=64, every register write
   pushed to the delta ring) must stay within 20% of the bare engine. *)
let fig_replay () =
  header "REPLAY — flight recorder overhead: k=64 checkpoints (budget: 20%)";
  let recorded ~gated name t_on run =
    let _, (m : Metrics.t) = run Recorder in
    let writes = float_of_int (m.register_writes + m.faults_injected) in
    ( Printf.sprintf "%.0f" (writes /. t_on),
      [
        row ~gated name "rounds" "rounds" (float_of_int m.rounds);
        row ~gated name "writes" "writes" writes;
        row ~better:`Higher ~gated name "events_per_sec" "events/s" (writes /. t_on);
      ] )
  in
  exit_on_failures "REPLAY"
    (overhead_gate ~gate:"REPLAY" ~pr:4 ~ride:Recorder ~budget:0.20
       ~column:"events/s" ~extra:recorded
       ~params:[ row ~gated:true "REPLAY" "checkpoint_interval" "rounds" 64. ]
       (* churn is informational here: fault bursts keep the dirty set
          saturated, so nearly every activation is a recorded write —
          deliberately harsher than the gated workloads *)
       [
         (true, 31, w1_name, w1_ride);
         (true, 5, w2_name, w2_ride);
         (false, 9, churn_name, churn_ride);
       ])

(* ==================================================================== *)
(* PROF — telemetry overhead gate + BENCH_PR9.json / BENCH_PR10.json     *)
(* ==================================================================== *)

(* The telemetry layer's cost contract, measured on the ENGINE workloads
   the flight recorder is gated on: installing a Telemetry profiler on the
   global Probe hook must stay within 5% of the bare run.  The disabled
   side needs no separate gate: with no sink installed every probe is one
   ref read and a branch — the bare baseline measured here IS the disabled
   path.  Alongside the overhead gate the run asserts out-of-band-ness
   cheaply: the profiled run's metrics CSV row must equal the bare run's
   byte for byte (the full seven-observable identity suite at -d 1/2/4
   lives in test_domains).  The dense-frontier contract rides along: at
   scale, the flat.frontier phase stays under 25% of the flat.* round wall
   time (the list frontier sat at ~42%). *)
let frontier_budget_pct = 25.

let fig_prof () =
  header "PROF — telemetry overhead: probes on the ENGINE workloads (budget: 5%)";
  (* the flat engine's probe set (frontier/compute/apply), informational:
     the packed election at n=4096 exercises flat.* and, under -d, the
     per-worker spans — but its wall time breathes with the allocator *)
  let g3 = lazy (Gen.random_connected (Gen.rng 8500) 4096) in
  let flat_run ride =
    let net = Flat_bfs.create (Lazy.force g3) in
    let dt =
      riding ride (fun () ->
          let t0 = Unix.gettimeofday () in
          Flat_bfs.run net Scheduler.Sync ~rounds:200;
          Unix.gettimeofday () -. t0)
    in
    (dt, Flat_bfs.metrics net)
  in
  let failures =
    overhead_gate ~gate:"PROF" ~pr:9 ~ride:Telemetry ~budget:0.05
      ~column:"identical" ~extra:(out_of_band Telemetry) ~params:[]
      [
        (* W1's window is 6–10 ms: at 31 reps it flapped around the 5%
           bound (2 of 12 runs failed); 121 narrow its spread *)
        (true, 121, w1_name, w1_ride);
        (* at 5 reps W2 flaps around the 5% bound; 9 hold it still *)
        (true, 9, w2_name, w2_ride);
        (false, 5, "flat ss-bfs n=4096, election", flat_run);
      ]
  in
  (* ---- per-phase breakdown at scale -----------------------------------
     The measured table EXPERIMENTS.md quotes: the DOMAINS workload with a
     live profiler attached, at -d min(4, cores) — flat.frontier vs
     flat.compute vs flat.apply is the cost split of the flat round. *)
  let d = min 4 (Ssmst_parallel.Pool.cpu_count ()) in
  let tel = Ssmst_obs.Telemetry.create () in
  Ssmst_obs.Telemetry.install tel;
  Fun.protect ~finally:Ssmst_obs.Telemetry.uninstall (fun () -> ignore (grid_burst ~domains:d));
  let n = Graph.n (Lazy.force burst_grid) in
  Fmt.pr "@.per-phase breakdown — flat parallel round, grid n=%d, -d %d:@.@.%s@." n d
    (Ssmst_obs.Telemetry.to_markdown tel);
  (* frontier's share of the flat.* round wall, and allocation per round
     summed over the flat.* phases *)
  let phases =
    List.filter
      (fun (p : Ssmst_obs.Telemetry.phase) -> String.starts_with ~prefix:"flat." p.name)
      (Ssmst_obs.Telemetry.phases tel)
  in
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0. phases in
  let wall_s = sum (fun p -> p.Ssmst_obs.Telemetry.wall_s) in
  let frontier_wall =
    sum (fun p -> if p.Ssmst_obs.Telemetry.name = "flat.frontier" then p.wall_s else 0.)
  in
  let share = if wall_s > 0. then 100. *. frontier_wall /. wall_s else 0. in
  let minor_per_round =
    sum (fun p -> p.Ssmst_obs.Telemetry.minor_words) /. float_of_int burst_rounds
  in
  Fmt.pr "frontier share of round wall: %.1f%% (budget < %.0f%%)@." share frontier_budget_pct;
  Fmt.pr "minor words per round (flat.* phases): %.3e@." minor_per_round;
  let breakdown = Printf.sprintf "flat grid n=%d -d %d breakdown" n d in
  write_artifact ~pr:10 ~within_budget:(share < frontier_budget_pct)
    [
      row ~better:`Lower ~gated:true breakdown "frontier_share_pct" "%" share;
      row ~better:`Lower ~gated:true breakdown "minor_words_per_round" "words" minor_per_round;
      row ~better:`Lower ~gated:true breakdown "wall_s" "s" wall_s;
      row ~gated:true "PROF" "frontier_budget_pct" "%" frontier_budget_pct;
    ];
  exit_on_failures "PROF"
    (failures
    @
    if share < frontier_budget_pct then []
    else [ Fmt.str "frontier share %.1f%% >= budget %.0f%%" share frontier_budget_pct ])

(* ==================================================================== *)
(* PAR — parallel campaign scaling + byte-determinism + BENCH_PR5.json   *)
(* ==================================================================== *)

(* The fork pool's two contracts, measured on the real campaign sweep: the
   CSV/JSONL bytes are identical for every -j, and -j 4 is at least 2.5x
   faster than sequential (SSMST_PAR_MIN_SPEEDUP overrides the target). *)
let fig_par () =
  header "PAR — parallel campaign sweep: fork-pool scaling vs sequential";
  let min_speedup = max 1.0 (env_float "SSMST_PAR_MIN_SPEEDUP" ~default:2.5) in
  let families = [ "random"; "grid" ] and sizes = [ 48; 64 ] in
  let fault_counts = [ 1; 2; 4 ] and models = [ "uniform"; "clustered"; "near-root" ] in
  (* one trial per (instance, fault count, model) *)
  let instances = List.length families * List.length sizes * 3 in
  let per_instance = List.length fault_counts * List.length models in
  Fmt.pr "%d instances x %d trials each; %d trials total@." instances per_instance
    (instances * per_instance);
  scaling_gate ~gate:"PAR" ~pr:5 ~flag:"-j" ~multicore:true ~min_speedup
    ~params:[ ("trials", "trials", float_of_int (instances * per_instance)) ]
    (fun jobs ->
      let trials, t =
        wall (fun () ->
            Verifier_campaign.sweep ~jobs ~families ~sizes ~fault_counts ~models ~seeds:3
              ~seed:9500 ~max_rounds:20000 ())
      in
      (* the exact bytes msst campaign would write: CSV document + JSONL *)
      ( t,
        String.concat "\n" (Campaign.csv_header :: List.map Campaign.trial_to_csv trials)
        ^ "\n"
        ^ String.concat "\n" (List.map Campaign.trial_to_json trials) ))

(* ==================================================================== *)
(* SCALE — the million-node unlock: flat engine over streamed CSR graphs *)
(* ==================================================================== *)

(* The flat-core acceptance experiment: stream-build n ∈ {10^4, 10^5, 10^6}
   instances of each family directly into CSR (no intermediate edge list),
   run the packed ss-bfs election on {!Network.Flat} and gate

   - measured bytes/node: [8 * words] must stay within 64·⌈log2 n⌉ bits
     (the Section 2.4 memory-size claim, in whole 64-bit words);
   - throughput: at least 0.25 rounds/sec (a liveness floor, not a
     performance claim; the printed numbers are the claim);
   - residency: the VmHWM high-water delta of each instance must stay
     within 6x its accounted storage (CSR arrays + register file) plus a
     fixed GC slack — the "memory is the register file" honesty check.

   CI trims the sweep with SSMST_SCALE_MAX_N (the smoke job runs 10^5). *)
let scale_min_rps = 0.25

let vm_hwm_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec go acc =
        match input_line ic with
        | exception End_of_file ->
            close_in ic;
            acc
        | line ->
            let acc =
              if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
                try
                  Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
                    (fun k -> Some k)
                with Scanf.Scan_failure _ | Failure _ | End_of_file -> acc
              else acc
            in
            go acc
      in
      go None

(* the streamed instance of each family closest to the target size *)
let scale_instance family target seed =
  match family with
  | "grid" ->
      let side = int_of_float (sqrt (float_of_int target)) in
      Gen.stream_grid ~seed side side
  | "random" -> Gen.stream_random ~seed target
  | "hypertree" ->
      (* n = 2^(h+1) - 1: the height whose size is nearest the target *)
      let size h = (1 lsl (h + 1)) - 1 in
      let rec fit h = if size h >= target then h else fit (h + 1) in
      let h = fit 1 in
      let h = if h > 1 && target - size (h - 1) < size h - target then h - 1 else h in
      Gen.stream_hypertree ~seed h
  | f -> invalid_arg ("scale_instance: unknown family " ^ f)

let fig_scale () =
  header "SCALE — flat engine over streamed CSR instances (packed ss-bfs election)";
  let max_n = max 1 (env_int "SSMST_SCALE_MAX_N" ~default:1_000_000) in
  let sizes = List.filter (fun n -> n <= max_n) [ 10_000; 100_000; 1_000_000 ] in
  let rounds = 20 in
  (* SSMST_DOMAINS > 1 runs every instance's sync rounds domain-parallel;
     states/metrics are byte-identical, only rounds/s moves *)
  let domains = max 1 (env_int "SSMST_DOMAINS" ~default:1) in
  if domains > 1 then
    Fmt.pr "sync rounds sharded across %d domains (multicore runtime: %b)@." domains
      Ssmst_parallel.Domain_pool.available;
  Fmt.pr "%-10s %-9s %8s %6s %9s %9s %10s %9s %8s@." "family" "n" "build" "B/node" "budget"
    "run" "rounds/s" "rss MB" "rss ok";
  line ();
  let instance target family =
    let hwm0 = Option.value ~default:0 (vm_hwm_kb ()) in
    let g, build_s = wall (fun () -> scale_instance family target (6400 + target)) in
    let n = Graph.n g in
    let net, create_s = wall (fun () -> Flat_bfs.create ~domains g) in
    let (), run_s = wall (fun () -> Flat_bfs.run net Scheduler.Sync ~rounds) in
    let rps = float_of_int rounds /. run_s in
    let bytes_per_node = Flat_bfs.measured_bytes_per_node net in
    let budget_ok = Memory.within_log_budget ~c:64 ~n ~words:(Flat_bfs.words net) in
    let hwm1 = Option.value ~default:0 (vm_hwm_kb ()) in
    let rss_delta_mb = float_of_int (hwm1 - hwm0) /. 1024. in
    let accounted_mb =
      float_of_int ((8 * Graph.storage_words g) + (bytes_per_node * n)) /. (1024. *. 1024.)
    in
    (* 6x accounted + 256 MB GC slack; only meaningful when this instance
       actually raised the high-water mark *)
    let rss_ok = rss_delta_mb <= (6. *. accounted_mb) +. 256. in
    Fmt.pr "%-10s %-9d %7.2fs %6d %9s %8.2fs %10.2f %9.1f %8b@." family n (build_s +. create_s)
      bytes_per_node
      (if budget_ok then "ok" else "OVER")
      run_s rps rss_delta_mb rss_ok;
    let w = Printf.sprintf "%s n=%d" family n in
    ( budget_ok && rss_ok && rps >= scale_min_rps,
      [
        row ~better:`Lower ~gated:true w "build_s" "s" (build_s +. create_s);
        row ~better:`Lower ~gated:true w "bytes_per_node" "B" (float_of_int bytes_per_node);
        check ~gated:true w "log_budget_ok" budget_ok;
        row ~better:`Lower ~gated:true w "run_s" "s" run_s;
        row ~better:`Higher ~gated:true w "rounds_per_sec" "rounds/s" rps;
        row ~better:`Lower ~gated:true w "rss_delta_mb" "MB" rss_delta_mb;
        row ~gated:true w "accounted_mb" "MB" accounted_mb;
        check ~gated:true w "rss_ok" rss_ok;
      ] )
  in
  let results =
    List.concat_map
      (fun target -> List.map (instance target) [ "grid"; "random"; "hypertree" ])
      sizes
  in
  let within = List.for_all fst results in
  write_artifact ~pr:34 ~within_budget:within
    (List.concat_map snd results
    @ [
        row ~gated:true "SCALE" "rounds" "rounds" (float_of_int rounds);
        row ~gated:true "SCALE" "max_n" "nodes" (float_of_int max_n);
        row ~gated:true "SCALE" "domains" "domains" (float_of_int domains);
        row ~gated:true "SCALE" "min_rounds_per_sec" "rounds/s" scale_min_rps;
      ]);
  Fmt.pr "@.modeled bound: 64 * ceil(log2 n) bits/node; measured: 8 * words bytes/node.@.";
  if not within then begin
    Fmt.pr "SCALE gates missed (see the budget/rss columns above).@.";
    exit 1
  end

(* ==================================================================== *)
(* DOMAINS — intra-instance scaling: Flat sync rounds across domains     *)
(* ==================================================================== *)

(* One large Flat instance, its sync rounds sharded across -d 1/2/4
   domains: the register file and the metrics CSV row must be identical
   at every domain count, and -d 4 at least 2x faster than -d 1
   (SSMST_DOMAIN_MIN_SPEEDUP overrides the target). *)
let fig_domains () =
  header "DOMAINS — domain-parallel sync rounds on one Network.Flat instance";
  let min_speedup = max 1.0 (env_float "SSMST_DOMAIN_MIN_SPEEDUP" ~default:2.0) in
  let n = Graph.n (Lazy.force burst_grid) in
  Fmt.pr "grid n=%d, %d sync rounds with fault bursts; multicore runtime: %b@." n burst_rounds
    Ssmst_parallel.Domain_pool.available;
  scaling_gate ~gate:"DOMAINS" ~pr:7 ~flag:"-d" ~multicore:Ssmst_parallel.Domain_pool.available
    ~min_speedup
    ~params:[ ("n", "nodes", float_of_int n); ("rounds", "rounds", float_of_int burst_rounds) ]
    (fun d ->
      let s, net = grid_burst ~domains:d in
      (s, (Flat_bfs.registers net, Metrics.to_csv_row (Flat_bfs.metrics net))))

(* ==================================================================== *)
(* VSTEP — one verifier activation: rounds/s and words on Make and Flat  *)
(* ==================================================================== *)

(* The verifier never stops, so the cost of one activation sets the round
   rate.  On random graphs (Passive mode, sync) every node steps every
   round; after a short warm-up, three chunks of rounds are timed on the
   boxed (Make) and packed (Flat) stores.  rounds/s is the median chunk;
   minor words per node per round is the allocation of all three chunks,
   which barely moves between runs, so it is the gated figure: Make at
   n = 1024 must stay within [vstep_words_budget], a little above the
   44 words it allocates now that label bits come from the per-marker
   table and the train rules are built once. *)
let vstep_words_budget = 50.

let fig_vstep () =
  header "VSTEP — verifier activation cost: rounds/s and minor words/node/round";
  Fmt.pr "%-8s %-6s %8s %12s %18s@." "engine" "n" "rounds" "rounds/s" "words/node/round";
  line ();
  let measure ~n ~rounds run =
    run 5;
    let rates = Array.make 3 0. and w0 = Gc.minor_words () in
    for i = 0 to 2 do
      let t0 = Unix.gettimeofday () in
      run rounds;
      rates.(i) <- float_of_int rounds /. (Unix.gettimeofday () -. t0)
    done;
    let words = (Gc.minor_words () -. w0) /. float_of_int (3 * n * rounds) in
    Array.sort compare rates;
    (rates.(1), words)
  in
  let instance (n, rounds) =
    let g = Gen.random_connected (Gen.rng (8700 + n)) n in
    let module M = Verifier_campaign.Net (struct
      let marker = Marker.run g
      let mode = Verifier.Passive
    end) in
    let module F = Network.Flat (M.P) in
    let make = M.create g and flat = F.create g in
    let one engine (rate, words) =
      Fmt.pr "%-8s %-6d %8d %12.1f %18.0f@." engine n (3 * rounds) rate words;
      let w = Printf.sprintf "verifier %s random n=%d" engine n in
      let gated = engine = "make" && n = 1024 in
      ( (not gated) || words <= vstep_words_budget,
        [
          row ~better:`Higher ~gated:false w "rounds_per_s" "rounds/s" rate;
          row ~better:`Lower ~gated w "minor_words_per_node_round" "words" words;
        ] )
    in
    let on_make = one "make" (measure ~n ~rounds (fun r -> M.run make Scheduler.Sync ~rounds:r)) in
    let on_flat = one "flat" (measure ~n ~rounds (fun r -> F.run flat Scheduler.Sync ~rounds:r)) in
    [ on_make; on_flat ]
  in
  let results = List.concat_map instance [ (256, 200); (1024, 60); (4096, 15) ] in
  let within = List.for_all fst results in
  write_artifact ~pr:33 ~within_budget:within
    (List.concat_map snd results
    @ [ row ~gated:true "VSTEP" "words_budget" "words" vstep_words_budget ]);
  if not within then begin
    Fmt.pr "VSTEP: make n=1024 allocates more than %.0f words/node/round.@." vstep_words_budget;
    exit 1
  end

(* ==================================================================== *)
(* REPORT — merge every BENCH_PR*.json into one trend report             *)
(* ==================================================================== *)

(* A speedup measured on an un-gated run (too few cores for the
   parallelism to be physical) is NOT a measurement and must not read like
   one: REPORT renders it SKIPPED, in the headline and the trajectory. *)
let skipped r = r.metric = "speedup" && not r.gated

let shown r =
  if skipped r then
    "SKIPPED" ^ match r.cores with Some c -> Printf.sprintf " (%d core(s))" c | None -> ""
  else if r.unit = "bool" then string_of_bool (r.value <> 0.)
  else if Float.is_integer r.value && Float.abs r.value < 1e15 then Printf.sprintf "%.0f" r.value
  else Printf.sprintf "%.4g" r.value

let fig_report () =
  header "REPORT — merged bench artifacts (BENCH_PR*.json)";
  let artifacts =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_PR" f && Filename.check_suffix f ".json")
    |> List.map (fun file ->
           match read_artifact file with
           | pr, within, rows -> (pr, file, within, rows)
           | exception (Sys_error msg | Json.Bad msg) ->
               Fmt.epr "REPORT: cannot read %s: %s@." file msg;
               exit 1)
    |> List.sort (fun (p, f, _, _) (q, g, _, _) -> compare (p, f) (q, g))
  in
  if artifacts = [] then Fmt.pr "no BENCH_PR*.json artifacts in the current directory.@."
  else begin
    let b = Buffer.create 4096 in
    let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
    out "# Bench trend report";
    out "";
    (* cores beside the gate status: a speedup from a 2-core container and
       one from a 16-core workstation are different experiments *)
    out "| artifact | pr | rows | gated rows | cores | within budget |";
    out "|---|---|---|---|---|---|";
    List.iter
      (fun (pr, file, within, rows) ->
        let cores = List.sort_uniq compare (List.filter_map (fun r -> r.cores) rows) in
        out "| %s | %d | %d | %d | %s | %s |" file pr (List.length rows)
          (List.length (List.filter (fun r -> r.gated) rows))
          (if cores = [] then "-" else String.concat ", " (List.map string_of_int cores))
          (if within then "yes" else "NO"))
      artifacts;
    out "";
    out "## Workloads";
    let workloads rows =
      List.rev
        (List.fold_left
           (fun acc r -> if List.mem r.workload acc then acc else r.workload :: acc)
           [] rows)
    in
    List.iter
      (fun (_, file, _, rows) ->
        out "";
        out "### %s" file;
        out "";
        List.iter
          (fun w ->
            let values =
              List.filter_map
                (fun r ->
                  if r.workload <> w then None
                  else
                    Some
                      (Printf.sprintf "%s %s%s" r.metric (shown r)
                         (if skipped r || r.unit = "bool" then "" else " " ^ r.unit)))
                rows
            in
            out "- %s: %s" w (String.concat ", " values))
          (workloads rows))
      artifacts;
    (* ---- perf trajectory ----------------------------------------------
       Every row with a direction, charted per (workload, metric) across
       the artifacts in pr order.  Points of one series come from gates of
       the checkout that wrote the artifacts (REPLAY's and PROF's bare
       ENGINE runs, for one); comparing commits is benchmark/'s job.  A
       gated metric that worsens by more than 10% against the previous
       measured point is flagged; SKIPPED points are not measurements. *)
    let series = Hashtbl.create 32 and keys = ref [] in
    List.iter
      (fun (pr, _, _, rows) ->
        List.iter
          (fun r ->
            if r.better <> None then begin
              let key = (r.workload, r.metric) in
              if not (Hashtbl.mem series key) then keys := key :: !keys;
              Hashtbl.add series key (pr, r)
            end)
          rows)
      artifacts;
    let traj =
      List.rev_map
        (fun key ->
          let pts = List.rev (Hashtbl.find_all series key) in
          let delta, regression =
            match List.rev (List.filter (fun (_, r) -> not (skipped r)) pts) with
            | (_, last) :: (_, prev) :: _ when prev.value <> 0. ->
                let pct = 100. *. (last.value -. prev.value) /. Float.abs prev.value in
                let worsened = if last.better = Some `Higher then -.pct else pct in
                (Some pct, last.gated && worsened > 10.)
            | _ -> (None, false)
          in
          (key, pts, delta, regression))
        !keys
    in
    out "";
    out "## Perf trajectory";
    out "";
    out "| workload | metric | trajectory (pr:value) | delta vs prev point | flag |";
    out "|---|---|---|---|---|";
    List.iter
      (fun ((w, metric), pts, delta, regression) ->
        out "| %s | %s | %s | %s | %s |" w metric
          (String.concat " -> " (List.map (fun (pr, r) -> Printf.sprintf "%d:%s" pr (shown r)) pts))
          (match delta with Some d -> Printf.sprintf "%+.1f%%" d | None -> "-")
          (if regression then "REGRESSION" else if delta = None then "-" else "ok"))
      traj;
    (match List.filter (fun (_, _, _, r) -> r) traj with
    | [] -> ()
    | rs ->
        out "";
        out "%d gated metric(s) regressed > 10%% vs the previous point." (List.length rs));
    out "";
    let md = Buffer.contents b in
    print_string md;
    let write path contents =
      let oc = open_out path in
      output_string oc contents;
      close_out oc
    in
    write "BENCH_REPORT.md" md;
    let point (pr, r) =
      Json.Obj
        [
          ("pr", Json.Num (float_of_int pr));
          ("value", if skipped r then Json.Null else Json.Num r.value);
          ("gated", Json.Bool r.gated);
        ]
    in
    write "BENCH_REPORT.json"
      (Json.to_string
         (Json.Obj
            [
              ("merged_from", Json.Arr (List.map (fun (_, f, _, _) -> Json.Str f) artifacts));
              ( "trajectory",
                Json.Arr
                  (List.map
                     (fun ((w, metric), pts, delta, regression) ->
                       Json.Obj
                         [
                           ("workload", Json.Str w);
                           ("metric", Json.Str metric);
                           ("points", Json.Arr (List.map point pts));
                           ("delta_pct", match delta with Some d -> Json.Num d | None -> Json.Null);
                           ("regression", Json.Bool regression);
                         ])
                     traj) );
            ])
      ^ "\n");
    Fmt.pr "@.(written to BENCH_REPORT.md and BENCH_REPORT.json)@."
  end

(* ==================================================================== *)

let all_experiments =
  [
    ("T1", table1);
    ("T2", table2);
    ("F-CT", fig_construction_time);
    ("F-MEM", fig_memory);
    ("F-LB", fig_lower_bound);
    ("ENGINE", fig_engine);
    ("CAMPAIGN", fig_campaign);
    ("ABL", (fun () -> ablation_threshold (); ablation_window ()));
    ("OBS", fig_obs);
    ("REPLAY", fig_replay);
    ("PAR", fig_par);
    ("SCALE", fig_scale);
    ("DOMAINS", fig_domains);
    ("PROF", fig_prof);
    ("VSTEP", fig_vstep);
    ("REPORT", fig_report);
  ]

let () =
  let requested = List.filter (( <> ) "--") (List.tl (Array.to_list Sys.argv)) in
  let ids = List.map fst all_experiments in
  (match List.filter (fun id -> not (List.mem id ids)) requested with
  | [] -> ()
  | unknown ->
      Fmt.epr "bench: unknown experiment id(s): %s@.valid ids: %s@." (String.concat " " unknown)
        (String.concat " " ids);
      exit 2);
  let to_run =
    if requested = [] then all_experiments
    else List.filter (fun (name, _) -> List.mem name requested) all_experiments
  in
  List.iter (fun (_, f) -> f ()) to_run;
  Fmt.pr "@.all experiments completed.@."
