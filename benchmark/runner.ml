(* One workload run: repeated set-up, then the timed cycles, then the
   metrics.  Untraced, the run yields the end-to-end metrics.  Traced,
   even cycles run under telemetry and odd ones without, so the per-layer
   times come from the traced cycles, allocation counts from the untraced
   ones, and the tracing overhead from comparing the two halves' round
   rates within one process. *)

open Ssmst_graph

type metric = { name : string; value : float; unit : string; samples : int }

type result = {
  metrics : metric list;  (* BENCHMARK.json's set: end-to-end, or per-layer when traced *)
  extras : metric list;  (* numbers of layers only some workloads cross *)
  attempted : int;
  failures : string list;
  digest : string;  (* of the golden prefix *)
  layers : Layers.t option;
}

(* Set-up runs at least [min_setups] times and until [setup_budget_s] of
   it has elapsed (at most [max_setups] times), and is reported as the
   median; the last instance is the one the timed phase uses. *)
let min_setups = 3
let max_setups = 20
let setup_budget_s = 1.

let now = Unix.gettimeofday
let m name value unit samples = { name; value; unit; samples }
let listmax = List.fold_left max 0.

(* The workload process's peak resident set, from /proc (Linux). *)
let peak_rss_mb () =
  try
    let ic = open_in "/proc/self/status" in
    Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
    let rec go () =
      let line = input_line ic in
      if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun k ->
            float_of_int k /. 1024.)
      else go ()
    in
    go ()
  with Sys_error _ | End_of_file | Scanf.Scan_failure _ | Failure _ ->
    float_of_int (8 * (Gc.quick_stat ()).top_heap_words) /. 1048576.

(* The traced run's breakdown of the timed wall: the self time of each
   group of spans, as a share of the traced cycles' wall.  Whatever no
   library layer claims is the benchmark's own loop. *)
let attributed =
  [
    ("network.frontier_share", [ "make.frontier"; "flat.frontier" ]);
    ("network.compute_share", [ "make.compute"; "flat.compute" ]);
    ("network.apply_share", [ "make.apply"; "flat.apply" ]);
    (* the round loop outside those three phases: all of an async round,
       the run-until/alarm loop and the detection-distance BFS *)
    ("network.unprobed_share", [ "transformer.advance"; "bench.round" ]);
    ("transformer.construct_share", [ "transformer.construct" ]);
    (* an epoch minus its construction: reset bookkeeping and install *)
    ("transformer.epoch_share", [ "transformer.epoch" ]);
    (* a trial minus its make.* rounds: create, restore, inject, drive *)
    ("verifier_campaign.trial_share", [ "campaign.trial" ]);
    ("fault.inject_share", [ "bench.inject" ]);
  ]

(* Per-call costs of the library's own frames, engine counts where the
   workload can read the engine's metrics, and SYNC_MST and the marker
   timed on the workload graph. *)
let extras_of (w : Workloads.t) (r : Workloads.run) l =
  let per_call ?minus name metric unit scale =
    match Layers.find l name with
    | Some a when a.Layers.calls > 0 ->
        let sub =
          match Option.bind minus (Layers.find l) with Some b -> b.Layers.total | None -> 0.
        in
        [ m metric (scale *. (a.total -. sub) /. float_of_int a.calls) unit a.calls ]
    | _ -> []
  in
  let trial =
    match Layers.find l "campaign.trial" with
    | Some a when a.calls > 0 ->
        [ m "verifier_campaign.trial_self_s" (a.self /. float_of_int a.calls) "s" a.calls ]
    | _ -> []
  in
  let engine =
    if r.counted_rounds = 0 then []
    else
      let rounds = float_of_int r.counted_rounds and acts = float_of_int r.activations in
      let writes = float_of_int r.writes and skipped = float_of_int r.skipped in
      [
        m "network.activations_per_round" (acts /. rounds) "count" r.counted_rounds;
        m "network.writes_per_round" (writes /. rounds) "count" r.counted_rounds;
        m "network.useful_ratio" (writes /. acts) "ratio" r.counted_rounds;
        m "network.skipped_ratio" (skipped /. (acts +. skipped)) "ratio" r.counted_rounds;
      ]
  in
  let construct =
    match w.construct with
    | None -> []
    | Some f ->
        let sync_mst, marker, bits = f () in
        [
          m "sync_mst.run_s" sync_mst "s" 1;
          m "marker.assemble_s" marker "s" 1;
          m "marker.label_bits" (float_of_int bits) "bits" 1;
        ]
  in
  per_call "transformer.construct" "transformer.construct_s" "s" 1.
  @ per_call ~minus:"transformer.construct" "transformer.epoch" "transformer.install_s" "s" 1.
  @ trial
  @ per_call "bench.inject" "fault.inject_us" "us" 1e6
  @ engine @ construct

let run (w : Workloads.t) ~seconds ~trace =
  let r = Workloads.recorder () in
  let layers = if trace then Some (Layers.create ()) else None in
  let tracing on =
    match layers with Some l when on -> Layers.install l | _ -> Layers.uninstall ()
  in
  tracing true;
  let rec setup_loop acc spent =
    if List.length acc >= max_setups || (List.length acc >= min_setups && spent >= setup_budget_s)
    then List.rev acc
    else begin
      let t0 = now () in
      w.gen ();
      let t1 = now () in
      w.create ();
      let t2 = now () in
      Gc.full_major ();
      setup_loop ((t1 -. t0, t2 -. t0) :: acc) (spent +. t2 -. t0)
    end
  in
  let setups = setup_loop [] 0. in
  let setup_reps = List.length setups in
  w.ready r;
  Option.iter Layers.reset layers;
  let codec0 = w.codec_counts () in
  let gc_minor = ref 0. and gc_major = ref 0 and gc_rounds = ref 0 in
  let traced_wall = ref 0. and traced_cycles = ref 0 in
  let min_cycles = if trace then max 2 w.golden_cycles else w.golden_cycles in
  let digest = ref "" and rss = ref 0. in
  let t0 = now () in
  let i = ref 0 in
  while !i < min_cycles || now () -. t0 < seconds do
    let traced = trace && !i mod 2 = 0 in
    r.traced <- traced;
    tracing traced;
    let mw = Gc.minor_words () and mj = (Gc.quick_stat ()).major_collections in
    let rd = r.rounds in
    let c0 = now () in
    w.cycle r !i;
    let dt = now () -. c0 in
    if traced then begin
      traced_wall := !traced_wall +. dt;
      incr traced_cycles
    end
    else begin
      gc_minor := !gc_minor +. Gc.minor_words () -. mw;
      gc_major := !gc_major + (Gc.quick_stat ()).major_collections - mj;
      gc_rounds := !gc_rounds + r.rounds - rd
    end;
    (* The golden prefix is a fixed amount of work: its digest, and the
       resident high-water mark, which would otherwise grow with however
       many rounds the host's speed allows. *)
    if !i = w.golden_cycles - 1 then begin
      r.logging <- false;
      rss := peak_rss_mb ();
      digest := Digest.to_hex (Digest.string (Buffer.contents r.log ^ w.state_digest ()))
    end;
    incr i
  done;
  let gen = List.map fst setups and setup = List.map snd setups in
  let gc_n = max 1 !gc_rounds in
  let gc =
    [
      m "gc.minor_words_per_round" (!gc_minor /. float_of_int gc_n) "words" gc_n;
      m "gc.major_per_kround" (1000. *. float_of_int !gc_major /. float_of_int gc_n) "count" gc_n;
    ]
  in
  let ops = List.length r.ops in
  let metrics, extras =
    match layers with
    | None ->
        ( [
            m "setup_s" (Stats.median setup) "s" setup_reps;
            m "rounds_per_s" (Stats.median r.windows) "rounds/s" (List.length r.windows);
            m "op_s_p50" (Stats.median r.ops) "s" ops;
            m "peak_rss_mb" !rss "MB" 1;
          ],
          m "gen.build_s" (Stats.median gen) "s" setup_reps :: gc )
    | Some l ->
        let tw = !traced_wall and tc = !traced_cycles in
        let shares =
          List.map
            (fun (name, spans) ->
              m name (List.fold_left (fun acc s -> acc +. Layers.self l s) 0. spans /. tw) "ratio" tc)
            attributed
        in
        let rest = 1. -. List.fold_left (fun acc x -> acc +. x.value) 0. shares in
        let unpack_per_act, pack_per_write =
          match (codec0, w.codec_counts ()) with
          | Some (u0, p0), Some (u1, p1) ->
              ( float_of_int (u1 - u0) /. float_of_int (max 1 r.activations),
                float_of_int (p1 - p0) /. float_of_int (max 1 r.writes) )
          | _ -> (0., 0.)
        in
        let untraced = Stats.median r.windows and traced = Stats.median r.traced_windows in
        let ndet = List.length r.detect_rounds in
        let metrics =
          [
            m "gen.build_s" (Stats.median gen) "s" setup_reps;
            m "setup.create_s" (Stats.median (List.map2 ( -. ) setup gen)) "s" setup_reps;
            m "graph.storage_mb"
              (float_of_int (8 * Graph.storage_words (w.graph ())) /. 1048576.)
              "MB" 1;
            m "codec.bytes_per_node" (float_of_int (w.codec_bytes ())) "B" 1;
            m "network.round_us" (1e6 /. traced) "us" (List.length r.traced_windows);
          ]
          @ shares
          @ [ m "bench.self_share" rest "ratio" tc ]
          @ gc
          @ [
              m "codec.unpack_per_activation" unpack_per_act "count" r.activations;
              m "codec.pack_per_write" pack_per_write "count" r.writes;
              m "op.detect_rounds_p50"
                (if ndet = 0 then 0. else Stats.median r.detect_rounds)
                "rounds" ndet;
              m "op.detect_rounds_max" (listmax r.detect_rounds) "rounds" ndet;
              m "op.detect_distance_max" (listmax r.detect_distances) "hops"
                (List.length r.detect_distances);
              m "telemetry.overhead_pct"
                (100. *. ((untraced /. traced) -. 1.))
                "%"
                (List.length r.windows + List.length r.traced_windows);
            ]
        in
        (* the construction layers run traced, after the shares are taken *)
        tracing true;
        let extras = extras_of w r l in
        tracing false;
        (metrics, extras)
  in
  {
    metrics;
    extras;
    attempted = max 1 r.attempted;
    failures = List.rev r.failures;
    digest = !digest;
    layers;
  }
