(* msst — command-line driver for the self-stabilizing MST library.

   Subcommands:
     construct  build the MST + proof labels for a generated network
     verify     run the self-stabilizing verifier, optionally inject faults
     stabilize  run the transformer scenario (construct/verify/repair loop)
                (these three print the notes of report's run of the scenario)
     trace      fault-injection run emitting a JSONL event trace
     campaign   sweep fault models x sizes x fault counts; measure detection
     report     run a scenario with the observatory; render the combined report
     profile    the same run, rendered as the per-phase cost table
     labels     print the Roots/EndP/Parents/Or-EndP strings of an instance
     compare    compare construction algorithms on one instance *)

open Cmdliner
open Ssmst_graph
open Ssmst_sim
open Ssmst_core

(* ---------------- shared arguments ---------------- *)

let n_arg =
  Arg.(value & opt int 32 & info [ "n"; "nodes" ] ~docv:"N" ~doc:"Number of nodes.")

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let family_list = String.concat ", " Verifier_campaign.family_names

(* A usage error: "msst CMD: <message>" on stderr, exit 2. *)
let usage cmd fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "msst %s: %s@." cmd msg;
      exit 2)
    fmt

let require_positive cmd flag v = if v <= 0 then usage cmd "%s must be positive (got %d)" flag v

(* An unknown family, or a size below the smallest a family builds, is a
   usage error in every subcommand. *)
let check_families cmd families sizes =
  (match List.filter (fun f -> not (List.mem f Verifier_campaign.family_names)) families with
  | [] -> ()
  | unknown ->
      usage cmd "unknown family(s) %s (known: %s)" (String.concat ", " unknown) family_list);
  List.iter
    (fun f ->
      let least = Verifier_campaign.min_size f in
      List.iter
        (fun n -> if n < least then usage cmd "family %s needs n >= %d (got %d)" f least n)
        sizes)
    families

(* The one family and size arguments, over {!Verifier_campaign.build_graph}'s
   table: [f family n], once both are checked. *)
let with_instance cmd f =
  let doc =
    Fmt.str
      "Graph family: %s.  grid rounds n down to a square and hypertree (the Section 9 \
       lower-bound instances) to 2^(h+1)-1; from n = %d on, random, grid and hypertree \
       come from the streamed builders."
      family_list Verifier_campaign.stream_threshold
  in
  Term.(
    const (fun family n ->
        check_families cmd [ family ] [ n ];
        f family n)
    $ Arg.(value & opt string "random" & info [ "family" ] ~docv:"FAMILY" ~doc)
    $ n_arg)

let faults_arg =
  Arg.(value & opt int 1 & info [ "faults" ] ~docv:"F" ~doc:"Number of faults to inject.")

(* the one output-format selector shared by trace / report / explain / replay *)
type fmt = Json | Csv | Md

let fmt_conv = Arg.enum [ ("json", Json); ("csv", Csv); ("md", Md) ]

let format_arg default =
  Arg.(
    value & opt fmt_conv default
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: $(b,json), $(b,csv) or $(b,md).")

let md_cell s = String.concat "\\|" (String.split_on_char '|' s)

let async_arg =
  Arg.(value & flag & info [ "async" ] ~doc:"Use the asynchronous daemon and handshake mode.")

let domains_arg =
  Arg.(
    value & opt int 0
    & info [ "d"; "domains" ] ~docv:"N"
        ~doc:
          "Worker domains per synchronous round (intra-instance parallelism; OCaml 5 \
           runtimes only — ignored on 4.14).  0 (the default) reads $(b,MSST_DOMAINS), \
           falling back to 1 (sequential).  States, traces and metrics are byte-identical \
           at every count.")

(* the effective domain count: the flag wins, else MSST_DOMAINS, else 1 *)
let resolve_domains d =
  if d > 0 then d else Ssmst_parallel.Domain_pool.domains_from_env ~default:1 ()

(* the shared flags, as the one scenario record every driver takes *)
let params_of family n seed faults async =
  { Observatory.default_params with family; n; seed; faults; async }

(* a list on one line: [Fmt.comma] is [",@ "], whose break hint, outside
   any box, splits even short lists across lines *)
let commas pp = Fmt.(list ~sep:(any ", ") pp)

(* The exit status of every scenario command: 1 when a monitor reports a
   violation. *)
let monitors_exit cmd scenario ok =
  if ok then 0
  else begin
    Fmt.epr "msst %s: invariant monitor violation (see msst report %s)@." cmd scenario;
    1
  end

(* With nothing injected there is nothing to detect or explain: trace,
   explain, the campaigns and bounds refuse a run without a fault burst. *)
let require_faults ?(flag = "--faults") cmd faults =
  if faults < 1 then usage cmd "%s must be at least 1 (got %d)" flag faults

(* [f] on stdout, or on [out] (announced on stderr) *)
let with_out out f =
  match out with
  | None ->
      f stdout;
      flush stdout
  | Some path ->
      let oc = open_out path in
      f oc;
      close_out oc;
      Fmt.epr "written to %s@." path

(* ---------------- trace ---------------- *)

(* The verify scenario with a trace hung on the settled network (and on
   the monitors): the trace therefore opens at the injection and retains
   the fault-injected and alarm-raised events of the run.  The events go
   out as JSONL; the scenario's notes go to stderr. *)
let trace_run family n seed faults async_ out capacity fmt =
  require_positive "trace" "--capacity" capacity;
  require_faults "trace" faults;
  let p = { (params_of family n seed faults async_) with max_rounds = 200_000 } in
  let tel = Ssmst_obs.Telemetry.fake () and tr = Trace.create ~capacity () in
  let v = Observatory.verify_run ~listen:(Observatory.Trace tr) tel p in
  let r = Observatory.verify_report tel p v in
  List.iter (Fmt.epr "%s@.") (Ssmst_obs.Report.notes r);
  with_out out (fun oc ->
      match fmt with
      | Json -> Trace.write_jsonl oc tr
      | Csv -> Trace.write_csv oc tr
      | Md ->
          output_string oc "| # | event |\n|---|---|\n";
          let i = ref 0 in
          Trace.iter
            (fun e ->
              Printf.fprintf oc "| %d | %s |\n" !i (md_cell (Fmt.str "%a" Trace.pp_event e));
              incr i)
            tr);
  Fmt.epr "trace: %d events emitted (%d recorded, %d dropped by the ring buffer)@."
    (Trace.length tr) (Trace.total tr) (Trace.dropped tr);
  Fmt.epr "metrics: %a@." Metrics.pp v.Observatory.metrics;
  monitors_exit "trace" "verify" (Ssmst_obs.Report.all_monitors_ok r)

(* ---------------- campaign ---------------- *)

(* Sweep family x n x fault count x model over [seeds] instances each;
   print the min/median/p95 aggregate and optionally write the per-trial
   rows as CSV / JSONL.  Fully deterministic in --seed: identical seeds
   yield byte-identical campaign files. *)
let campaign families sizes fault_counts models seeds seed max_rounds jobs csv_out jsonl_out =
  let unknown = List.filter (fun m -> not (List.mem m Campaign.model_names)) models in
  if unknown <> [] then
    usage "campaign" "unknown model(s) %a (known: %a)" (commas Fmt.string) unknown
      (commas Fmt.string) Campaign.model_names;
  check_families "campaign" families sizes;
  List.iter (require_faults ~flag:"--fault-counts" "campaign") fault_counts;
  require_positive "campaign" "--seeds" seeds;
  (* -j 0 (the default) defers to MSST_JOBS, so CI and scripts can set a
     machine-wide degree without threading a flag through every call *)
  let jobs =
    if jobs > 0 then jobs
    else Ssmst_parallel.Pool.jobs_from_env ~var:"MSST_JOBS" ~default:1 ()
  in
  let trials =
    Verifier_campaign.sweep ~jobs ~families ~sizes ~fault_counts ~models ~seeds ~seed
      ~max_rounds ()
  in
  let aggs = Campaign.aggregate trials in
  Fmt.pr "campaign: %d trials (%d families x %d sizes x %d fault counts x %d models x %d \
          seeds)@.@."
    (List.length trials) (List.length families) (List.length sizes)
    (List.length fault_counts) (List.length models) seeds;
  Fmt.pr "%a" Campaign.pp_agg_table aggs;
  (* the paper's locality bound, as a shape check on the aggregate *)
  let logn n = Ssmst_sim.Memory.of_nat n in
  List.iter
    (fun (a : Campaign.agg) ->
      if a.Campaign.model = "uniform" && a.Campaign.dd_p95 >= 0 then
        Fmt.pr "  bound: %s n=%d f=%d: dd_p95 %d vs f*log n = %d@." a.Campaign.family
          a.Campaign.n a.Campaign.faults a.Campaign.dd_p95
          (a.Campaign.faults * logn a.Campaign.n))
    aggs;
  (match csv_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Campaign.write_csv oc trials;
      close_out oc;
      Fmt.pr "@.per-trial CSV written to %s@." path);
  (match jsonl_out with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Campaign.write_jsonl oc trials;
      close_out oc;
      Fmt.pr "per-trial JSONL written to %s@." path);
  0

(* ---------------- the scenario commands ---------------- *)

(* The one driver behind construct, verify, stabilize, report and profile:
   check the names, then run the scenario with the observatory attached
   and [tel] installed as the phase profiler.  The commands differ only in
   the params and profiler they pass and in what they render. *)
let run_scenario cmd tel scenario (p : Observatory.params) =
  if not (List.mem scenario Observatory.scenario_names) then
    usage cmd "unknown scenario %s (known: %a)" scenario (commas Fmt.string)
      Observatory.scenario_names;
  if scenario = "campaign" || scenario = "bounds" then begin
    require_faults cmd p.faults;
    require_positive cmd "--trials" p.trials
  end;
  Observatory.run ~scenario tel p

(* construct, verify and stabilize: the scenario's run through [report]'s
   driver, printed as the report's notes, one per line. *)
let plain scenario p =
  let r = run_scenario scenario (Ssmst_obs.Telemetry.fake ()) scenario p in
  List.iter (Fmt.pr "%s@.") (Ssmst_obs.Report.notes r);
  monitors_exit scenario scenario (Ssmst_obs.Report.all_monitors_ok r)

let construct family n seed = plain "construct" { Observatory.default_params with family; n; seed }

let verify family n seed faults async_ domains =
  plain "verify"
    {
      (params_of family n seed faults async_) with
      max_rounds = 200_000;
      domains = resolve_domains domains;
    }

let stabilize family n seed faults async_ domains =
  plain "stabilize"
    { (params_of family n seed faults async_) with domains = resolve_domains domains }

let write_file path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

(* The combined report (metrics + histograms + the phase tree's logical
   columns + monitor verdicts) as markdown, optionally mirroring the JSON
   form to a second file.  No wall-clock number reaches these bytes, so
   the profiler is the deterministic fake one. *)
let report family n scenario seed faults async_ epochs trials max_rounds md_out json_out fmt =
  let r =
    run_scenario "report" (Ssmst_obs.Telemetry.fake ()) scenario
      { (params_of family n seed faults async_) with epochs; trials; max_rounds }
  in
  let rendered =
    match fmt with
    | Md -> Ssmst_obs.Report.to_markdown r
    | Json -> Ssmst_obs.Report.to_json r ^ "\n"
    | Csv -> Ssmst_obs.Report.to_csv r
  in
  (match md_out with
  | None -> print_string rendered
  | Some path ->
      write_file path rendered;
      Fmt.epr "report written to %s@." path);
  (match json_out with
  | None -> ()
  | Some path ->
      write_file path (Ssmst_obs.Report.to_json r ^ "\n");
      Fmt.epr "JSON report written to %s@." path);
  monitors_exit "report" scenario (Ssmst_obs.Report.all_monitors_ok r)

(* The same run under a live profiler, rendered as the per-phase table
   (md/csv: both costs per phase) or the full report JSON with the
   telemetry block folded in.  Telemetry is out-of-band, so the
   scenario's registers, metrics and monitor verdicts are exactly
   [report]'s. *)
let profile family n scenario seed faults async_ epochs trials max_rounds domains fmt chrome
    fake =
  let d = resolve_domains domains in
  let tel = if fake then Ssmst_obs.Telemetry.fake () else Ssmst_obs.Telemetry.create () in
  let r =
    run_scenario "profile" tel scenario
      { (params_of family n seed faults async_) with epochs; trials; max_rounds; domains = d }
  in
  Ssmst_obs.Report.set_telemetry r (Ssmst_obs.Telemetry.to_json tel);
  (match chrome with
  | None -> ()
  | Some path ->
      write_file path (Ssmst_obs.Telemetry.to_chrome_trace tel ^ "\n");
      Fmt.epr "chrome trace written to %s (load in chrome://tracing or Perfetto)@." path);
  (match fmt with
  | Md ->
      (* the size built, as the report's header block records it *)
      Fmt.pr "# msst profile — %s (%s, n = %s, -d %d%s)@.@." scenario family
        (List.assoc "n" (Ssmst_obs.Report.scenario r))
        d
        (if fake then ", fake clock" else "");
      print_string (Ssmst_obs.Telemetry.to_markdown tel)
  | Csv -> print_string (Ssmst_obs.Telemetry.to_csv tel)
  | Json ->
      print_string (Ssmst_obs.Report.to_json r);
      print_newline ());
  monitors_exit "profile" scenario (Ssmst_obs.Report.all_monitors_ok r)

(* ---------------- explain ---------------- *)

let parse_alarm s =
  let int_of part =
    match int_of_string_opt part with
    | Some v when v >= 0 -> v
    | _ -> usage "explain" "bad --alarm %S (expected NODE or NODE@ROUND)" s
  in
  match String.index_opt s '@' with
  | None -> (int_of s, None)
  | Some i ->
      ( int_of (String.sub s 0 i),
        Some (int_of (String.sub s (i + 1) (String.length s - i - 1))) )

let flight_params cmd family n seed faults clustered interval capacity max_rounds
    distance_c =
  if interval <= 0 || capacity <= 0 then usage cmd "--interval and --capacity must be positive";
  {
    (params_of family n seed faults false) with
    clustered;
    interval;
    capacity;
    max_rounds;
    distance_c;
  }

let witness_json (w : Flight.witness) =
  let hops =
    String.concat ","
      (List.map
         (fun (r, v, fields) ->
           Fmt.str {|{"round":%d,"node":%d,"fields":[%s]}|} r v
             (String.concat ","
                (List.map (fun f -> Fmt.str {|"%s"|} (Trace.json_escape f)) fields)))
         w.Flight.hops)
  in
  Fmt.str
    {|{"alarm_node":%d,"alarm_round":%d,"fault":%s,"node_changes":%d,"bound":%d,"within_bound":%b,"error":%s,"path":[%s]}|}
    w.Flight.alarm_node w.Flight.alarm_round
    (match w.Flight.fault with None -> "null" | Some f -> string_of_int f)
    w.Flight.node_changes w.Flight.bound w.Flight.within_bound
    (match w.Flight.error with
    | None -> "null"
    | Some e -> Fmt.str {|"%s"|} (Trace.json_escape e))
    hops

let witness_path_string (w : Flight.witness) =
  String.concat " "
    (List.map
       (fun (r, v, fields) -> Fmt.str "%d:%d:%s" r v (String.concat "+" fields))
       w.Flight.hops)

(* Re-run a seeded verifier fault scenario with the flight recorder
   attached and walk each alarm's provenance chain back to its injection;
   the witness hop count is checked against the Section 2.4 bound. *)
let explain_run family n seed faults clustered interval capacity max_rounds distance_c
    alarm fmt out =
  require_faults "explain" faults;
  let p =
    flight_params "explain" family n seed faults clustered interval capacity max_rounds
      distance_c
  in
  let alarm = Option.map parse_alarm alarm in
  let r = Flight.record_verify ?alarm p in
  if r.Flight.dropped > 0 then
    Fmt.epr
      "msst explain: warning: the delta ring dropped %d write(s); chains crossing the \
       drop horizon will report as broken@."
      r.Flight.dropped;
  let int_list l = String.concat "," (List.map string_of_int l) in
  let v = r.Flight.facts in
  let n = Graph.n v.Observatory.graph in
  with_out out (fun oc ->
      match fmt with
      | Json ->
          Printf.fprintf oc
            {|{"family":"%s","n":%d,"seed":%d,"faults":%d,"settled_round":%d,"victims":[%s],"detection":%s,"alarms":[%s],"total_writes":%d,"dropped":%d,"checkpoints":[%s],"end_equal":%b,"witnesses":[%s]}|}
            (Trace.json_escape family) n seed faults v.settled_round (int_list v.victims)
            (match v.detection with None -> "null" | Some d -> string_of_int d)
            (int_list v.alarms) r.Flight.total_writes r.Flight.dropped
            (int_list r.Flight.checkpoints) r.Flight.end_equal
            (String.concat "," (List.map witness_json r.Flight.witnesses));
          output_char oc '\n'
      | Csv ->
          output_string oc
            "alarm_node,alarm_round,fault,node_changes,bound,within_bound,error,path\n";
          List.iter
            (fun (w : Flight.witness) ->
              Printf.fprintf oc "%d,%d,%s,%d,%d,%b,%s,%s\n" w.Flight.alarm_node
                w.Flight.alarm_round
                (match w.Flight.fault with None -> "" | Some f -> string_of_int f)
                w.Flight.node_changes w.Flight.bound w.Flight.within_bound
                (Trace.csv_escape (Option.value ~default:"" w.Flight.error))
                (Trace.csv_escape (witness_path_string w)))
            r.Flight.witnesses
      | Md ->
          Printf.fprintf oc "# msst explain — fault → alarm witnesses\n\n";
          Printf.fprintf oc "- **instance**: %s, n=%d, seed=%d, faults=%d (%s)\n" family n
            seed faults
            (if clustered then "clustered" else "uniform");
          Printf.fprintf oc "- **settled round**: %d; **victims**: %s\n" v.settled_round
            (int_list v.victims);
          Printf.fprintf oc "- **detection**: %s; **alarms**: %s\n"
            (match v.detection with None -> "none" | Some d -> Fmt.str "%d round(s)" d)
            (int_list v.alarms);
          Printf.fprintf oc
            "- **recorder**: %d write(s), %d dropped, checkpoints at %s; replayed end \
             state equals live: %b\n"
            r.Flight.total_writes r.Flight.dropped (int_list r.Flight.checkpoints)
            r.Flight.end_equal;
          List.iter
            (fun (w : Flight.witness) ->
              Printf.fprintf oc "\n## alarm at node %d (round %d)\n\n" w.Flight.alarm_node
                w.Flight.alarm_round;
              match w.Flight.error with
              | Some e -> Printf.fprintf oc "no witness: %s\n" (md_cell e)
              | None ->
                  Printf.fprintf oc
                    "fault #%s reached the alarm in %d graph hop(s) over %d write(s) — \
                     detection-distance bound %d: %s\n\n"
                    (match w.Flight.fault with None -> "?" | Some f -> string_of_int f)
                    w.Flight.node_changes
                    (List.length w.Flight.hops)
                    w.Flight.bound
                    (if w.Flight.within_bound then "ok" else "VIOLATED");
                  Printf.fprintf oc "| round | node | changed fields |\n|---|---|---|\n";
                  List.iter
                    (fun (rd, v, fields) ->
                      Printf.fprintf oc "| %d | %d | %s |\n" rd v
                        (md_cell (String.concat "," fields)))
                    w.Flight.hops)
            r.Flight.witnesses);
  if r.Flight.witnesses = [] then begin
    Fmt.epr "msst explain: no alarms were raised (nothing to explain)@.";
    0
  end
  else if
    List.exists
      (fun (w : Flight.witness) -> w.Flight.error <> None || w.Flight.fault = None)
      r.Flight.witnesses
  then begin
    Fmt.epr "msst explain: at least one provenance chain is broken@.";
    3
  end
  else if
    List.exists (fun (w : Flight.witness) -> not w.Flight.within_bound) r.Flight.witnesses
    || not r.Flight.end_equal
  then begin
    Fmt.epr "msst explain: witness outside the detection-distance bound@.";
    1
  end
  else
    monitors_exit "explain" "verify"
      (List.for_all (fun (_, m) -> Ssmst_obs.Monitor.verdict_ok m) v.Observatory.monitors)

(* ---------------- replay ---------------- *)

let replay_run family n seed faults clustered interval capacity max_rounds seek steps diff
    fmt out =
  let p =
    flight_params "replay" family n seed faults clustered interval capacity max_rounds
      Ssmst_obs.Monitor.default_distance_c
  in
  let r = Flight.replay_probe p ~seek ~steps ~diff in
  if r.Flight.dropped > 0 then
    Fmt.epr
      "msst replay: warning: the delta ring dropped %d write(s); rounds before %s replay \
       inexactly@."
      r.Flight.dropped
      (match r.Flight.sound_from with
      | None -> "the end of the recording"
      | Some s -> Fmt.str "round %d" s);
  let int_list l = String.concat "," (List.map string_of_int l) in
  with_out out (fun oc ->
      match fmt with
      | Json ->
          Printf.fprintf oc
            {|{"family":"%s","n":%d,"seed":%d,"start_round":%d,"last_round":%d,"total_writes":%d,"dropped":%d,"sound_from":%s,"checkpoints":[%s],"divergence":%s,"end_equal":%b,"views":[%s]}|}
            (Trace.json_escape family) n seed r.Flight.start_round r.Flight.last_round
            r.Flight.total_writes r.Flight.dropped
            (match r.Flight.sound_from with None -> "null" | Some s -> string_of_int s)
            (int_list r.Flight.checkpoints)
            (match r.Flight.divergence with
            | None -> "null"
            | Some (rd, v, f) ->
                Fmt.str {|{"round":%d,"node":%d,"field":"%s"}|} rd v (Trace.json_escape f))
            r.Flight.end_equal
            (String.concat ","
               (List.map
                  (fun (v : Flight.view) ->
                    Fmt.str {|{"round":%d,"exact":%b,"changed":%d}|} v.Flight.round
                      v.Flight.exact v.Flight.changed)
                  r.Flight.views));
          output_char oc '\n'
      | Csv ->
          output_string oc "round,exact,changed\n";
          List.iter
            (fun (v : Flight.view) ->
              Printf.fprintf oc "%d,%b,%d\n" v.Flight.round v.Flight.exact v.Flight.changed)
            r.Flight.views
      | Md ->
          Printf.fprintf oc "# msst replay — checkpointed time travel\n\n";
          Printf.fprintf oc "- **instance**: %s, n=%d, seed=%d, faults=%d\n" family n seed
            faults;
          Printf.fprintf oc
            "- **recording**: rounds %d..%d, %d write(s), %d dropped, checkpoints at %s\n"
            r.Flight.start_round r.Flight.last_round r.Flight.total_writes r.Flight.dropped
            (int_list r.Flight.checkpoints);
          (if diff then
             match r.Flight.divergence with
             | None ->
                 Printf.fprintf oc
                   "- **bisector**: event-driven and naive recordings agree (end states \
                    equal: %b)\n"
                   r.Flight.end_equal
             | Some (rd, v, f) ->
                 Printf.fprintf oc
                   "- **bisector**: first divergence at round %d, node %d, field %s\n" rd v
                   (md_cell f));
          Printf.fprintf oc "\n| round | exact | changed nodes |\n|---|---|---|\n";
          List.iter
            (fun (v : Flight.view) ->
              Printf.fprintf oc "| %d | %b | %d |\n" v.Flight.round v.Flight.exact
                v.Flight.changed)
            r.Flight.views);
  if diff && (r.Flight.divergence <> None || not r.Flight.end_equal) then begin
    Fmt.epr "msst replay: the two engines diverged@.";
    1
  end
  else 0

(* ---------------- labels ---------------- *)

let labels family n seed =
  let g = Verifier_campaign.build_graph ~family ~seed n in
  let m = Marker.run g in
  let labels = Labels.of_hierarchy m.hierarchy in
  let len = labels.(0).Labels.len in
  Fmt.pr "%-6s %-*s %-*s %-*s %s@." "node" ((len * 2) + 2) "Roots" ((len * 5) + 2) "EndP"
    ((len * 2) + 2) "Parents" "Or-EndP";
  for v = 0 to Graph.n g - 1 do
    let l = labels.(v) in
    let roots = Fmt.str "%a" Fmt.(array ~sep:(any " ") Labels.pp_rsym) l.Labels.roots in
    let endp =
      Fmt.str "%a"
        Fmt.(array ~sep:(any " ") (fun ppf e -> Fmt.pf ppf "%-4s" (Fmt.str "%a" Labels.pp_esym e)))
        l.Labels.endp
    in
    let parents =
      Fmt.str "%a"
        Fmt.(array ~sep:(any " ") (fun ppf b -> Fmt.string ppf (if b then "1" else "0")))
        l.Labels.parents
    in
    let orep =
      Fmt.str "%a"
        Fmt.(array ~sep:(any " ") (fun ppf c -> Fmt.string ppf (if c > 0 then "1" else "0")))
        l.Labels.cnt
    in
    Fmt.pr "%-6d %-*s %-*s %-*s %s@." v ((len * 2) + 2) roots ((len * 5) + 2) endp
      ((len * 2) + 2) parents orep
  done;
  0

(* ---------------- compare ---------------- *)

let compare_cmd family n seed =
  let g = Verifier_campaign.build_graph ~family ~seed n in
  let w = Graph.plain_weight_fn g in
  let sm = Sync_mst.run g in
  let ghs = Ssmst_baselines.Ghs.run g in
  let hl = Ssmst_baselines.Higham_liang.run g in
  let bl = Ssmst_baselines.Blin.run g in
  Fmt.pr "%-24s %-10s %-8s@." "algorithm" "rounds" "is MST";
  Fmt.pr "%-24s %-10d %-8b@." "SYNC_MST (this paper)" sm.Sync_mst.rounds
    (Mst.is_mst g w sm.Sync_mst.tree);
  Fmt.pr "%-24s %-10d %-8b@." "GHS" ghs.Ssmst_baselines.Ghs.rounds
    (Mst.is_mst g w ghs.Ssmst_baselines.Ghs.tree);
  let mp = Ssmst_mp.Ghs_mp.run g in
  Fmt.pr "%-24s %-10d %-8b@." "GHS (message passing)" mp.Ssmst_mp.Ghs_mp.rounds
    (Mst.is_mst g w mp.Ssmst_mp.Ghs_mp.tree);
  Fmt.pr "%-24s %-10d %-8b@." "Higham-Liang-style" hl.Ssmst_baselines.Higham_liang.rounds
    (Mst.is_mst g w hl.Ssmst_baselines.Higham_liang.tree);
  Fmt.pr "%-24s %-10d %-8b@." "Blin-et-al-style" bl.Ssmst_baselines.Blin.rounds
    (Mst.is_mst g w bl.Ssmst_baselines.Blin.tree);
  0

(* ---------------- command wiring ---------------- *)

let plain_doc what =
  what
  ^ "  Runs the scenario through $(b,msst report)'s driver, prints the report's notes \
     one per line and exits 1 if an invariant monitor reports a violation."

let construct_cmd =
  Cmd.v
    (Cmd.info "construct" ~doc:(plain_doc "Build the MST and its proof labels."))
    Term.(with_instance "construct" construct $ seed_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         (plain_doc
            "Run the self-stabilizing verifier; optionally inject faults and wait up to \
             200 000 rounds for the first alarm."))
    Term.(with_instance "verify" verify $ seed_arg $ faults_arg $ async_arg $ domains_arg)

let stabilize_cmd =
  Cmd.v
    (Cmd.info "stabilize"
       ~doc:(plain_doc "Run the transformer-based self-stabilizing MST scenario."))
    Term.(with_instance "stabilize" stabilize $ seed_arg $ faults_arg $ async_arg $ domains_arg)

(* [-o FILE], documented by what the command writes there *)
let out_arg what =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:("Write " ^ what ^ " to $(docv) instead of stdout."))

let capacity_arg =
  Arg.(
    value
    & opt int Trace.default_capacity
    & info [ "capacity" ] ~docv:"K" ~doc:"Ring-buffer capacity (oldest events are dropped beyond it).")

let max_rounds_arg =
  Arg.(
    value & opt int 20000
    & info [ "max-rounds" ] ~docv:"R"
        ~doc:
          "Per-trial detection budget in rounds.  Benign faults (e.g. crash-reset of a \
           settled verifier node) never alarm and run the whole budget, so this bounds \
           the cost of undetected trials.")

let trace_cmd =
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the verify scenario (monitors on) and emit the engine's event trace from the \
          burst on as JSON lines; its notes go to stderr.  Exits 1 on a monitor violation.")
    Term.(with_instance "trace" trace_run $ seed_arg $ faults_arg $ async_arg
          $ out_arg "the event trace (in $(b,--format), JSON lines by default)"
          $ capacity_arg $ format_arg Json)

(* ---------------- explain / replay wiring ---------------- *)

let interval_arg =
  Arg.(
    value & opt int 64
    & info [ "interval" ] ~docv:"K" ~doc:"Checkpoint every at most $(docv) rounds.")

let clustered_arg =
  Arg.(
    value & flag
    & info [ "clustered" ] ~doc:"Clustered fault placement (radius 2) instead of uniform.")

let distance_c_arg =
  Arg.(
    value
    & opt int Ssmst_obs.Monitor.default_distance_c
    & info [ "distance-c" ] ~docv:"C"
        ~doc:"Constant in the detection-distance bound C*f*ceil(log2 n).")

let alarm_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "alarm" ] ~docv:"NODE[@ROUND]"
        ~doc:
          "Explain only this alarm: the node's first alarming write (at or before ROUND \
           when given).  Default: every alarming node.")

let explain_cmd =
  Cmd.v
    (Cmd.info "explain"
       ~doc:
         "Record a verifier fault scenario with the flight recorder attached and walk the \
          causal provenance of each alarm backwards — register write by register write — \
          to the fault injection that seeded it.  Each witness's graph-hop count is \
          checked against the detection-distance bound C*f*ceil(log2 n) (Section 2.4).  \
          Exits 3 when a provenance chain is broken, 1 when a witness or a monitor fails.")
    Term.(
      with_instance "explain" explain_run $ seed_arg $ faults_arg $ clustered_arg
      $ interval_arg $ capacity_arg $ max_rounds_arg $ distance_c_arg $ alarm_arg
      $ format_arg Md
      $ out_arg "the alarm witnesses (in $(b,--format), markdown by default)")

let seek_arg =
  Arg.(
    value & opt int 0
    & info [ "seek" ] ~docv:"R" ~doc:"Reconstruct the state at round $(docv) first.")

let steps_arg =
  Arg.(
    value & opt int 10
    & info [ "steps" ] ~docv:"K" ~doc:"Step $(docv) recorded rounds forward from the seek point.")

let diff_arg =
  Arg.(
    value & flag
    & info [ "diff" ]
        ~doc:
          "Also record the naive reference engine's twin run and bisect for the first \
           (round, node, field) divergence.")

let replay_cmd =
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Record an ss-bfs stabilization run (plus one fault burst) with the checkpointed \
          flight recorder, then time-travel: seek to any round in O(interval + writes), \
          step forward, and optionally bisect the event-driven engine against the naive \
          reference for the first diverging (round, node, field).  Exits 1 when --diff \
          finds a divergence.")
    Term.(
      with_instance "replay" replay_run $ seed_arg $ faults_arg $ clustered_arg
      $ interval_arg $ capacity_arg $ max_rounds_arg $ seek_arg $ steps_arg $ diff_arg
      $ format_arg Md
      $ out_arg "the replayed round views and any divergence (in $(b,--format), markdown by default)")

let families_arg =
  Arg.(
    value
    & opt (list string) [ "random"; "grid" ]
    & info [ "families" ] ~docv:"FAMILY,..."
        ~doc:("Graph families to sweep: " ^ family_list ^ "."))

let sizes_arg =
  Arg.(
    value
    & opt (list int) [ 32; 64 ]
    & info [ "sizes" ] ~docv:"N,..." ~doc:"Network sizes to sweep.")

let fault_counts_arg =
  Arg.(
    value
    & opt (list int) [ 1; 2; 4; 8 ]
    & info [ "fault-counts" ] ~docv:"F,..." ~doc:"Fault counts f to sweep.")

let models_arg =
  Arg.(
    value
    & opt (list string) [ "uniform"; "clustered"; "near-root"; "crash"; "bit-flip" ]
    & info [ "models" ] ~docv:"MODEL,..."
        ~doc:
          "Fault models to sweep: uniform, clustered, near-root, targeted, crash, bit-flip, \
           intermittent.")

let seeds_arg =
  Arg.(
    value & opt int 3
    & info [ "seeds" ] ~docv:"K" ~doc:"Instances (seeds) per family x size grid point.")

let jobs_arg =
  Arg.(
    value & opt int 0
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run the sweep across $(docv) forked worker processes.  Output is byte-identical \
           to a sequential run for any value.  0 (the default) reads \\$MSST_JOBS, falling \
           back to 1.")

let campaign_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the per-trial rows as CSV to $(docv).")

let campaign_jsonl_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "jsonl" ] ~docv:"FILE" ~doc:"Write the per-trial rows as JSONL to $(docv).")

let campaign_cmd =
  Cmd.v
    (Cmd.info "campaign"
       ~doc:
         "Run a deterministic fault-injection campaign on the verifier: sweep graph family x \
          size x fault count x fault model over several seeded instances, measure detection \
          time and detection distance per trial, print min/median/p95 aggregates and \
          optionally emit the per-trial rows as CSV/JSONL.")
    Term.(
      const campaign $ families_arg $ sizes_arg $ fault_counts_arg $ models_arg $ seeds_arg
      $ seed_arg $ max_rounds_arg $ jobs_arg $ campaign_csv_arg $ campaign_jsonl_arg)

let scenario_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SCENARIO"
        ~doc:"Scenario to report on: construct, verify, stabilize, campaign, bounds.")

let epochs_arg =
  Arg.(
    value & opt int 3
    & info [ "epochs" ] ~docv:"E" ~doc:"Fault-injection epochs (stabilize scenario).")

let trials_arg =
  Arg.(
    value & opt int 3
    & info [ "trials" ] ~docv:"K" ~doc:"Injection seeds per fault model (campaign scenario).")

let report_md_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write the markdown report to $(docv) instead of stdout.")

let report_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "json" ] ~docv:"FILE" ~doc:"Also write the report as one JSON object to $(docv).")

let report_cmd =
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Run a scenario with the runtime observatory attached — phase profiler, \
          log-bucketed histograms, online invariant monitors — and render one combined \
          report as markdown (and optionally JSON), with the phase tree's logical costs \
          (rounds, activations, writes, peak bits).  The bounds scenario runs the \
          campaign's trials at n = 64, 256, 1024, 4096 up to $(b,-n), in sync and under \
          both async daemons, and checks the paper's detection-time, detection-distance \
          and register-size bounds.  Exits non-zero if any invariant monitor or bound \
          reports a violation.")
    Term.(
      with_instance "report" report $ scenario_arg $ seed_arg $ faults_arg $ async_arg
      $ epochs_arg $ trials_arg $ max_rounds_arg $ report_md_arg $ report_json_arg
      $ format_arg Md)

let chrome_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "chrome" ] ~docv:"FILE"
        ~doc:"Also write a chrome://tracing-loadable JSON trace (one track per worker domain) \
              to $(docv).")

let fake_clock_arg =
  Arg.(
    value & flag
    & info [ "fake-clock" ]
        ~doc:"Replace the wall clock with a deterministic 1 ms-per-reading counter and zero \
              the GC sampler, making the profile output byte-reproducible (single-domain \
              runs only; used by the determinism tests).")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run a scenario (construct, verify, stabilize, campaign, bounds) exactly as $(b,report) \
          does and print the per-phase table — calls, wall time, %, minor/major words and \
          collections, and the paper's rounds, activations, writes and peak bits — plus \
          optionally a Chrome-trace JSON.  Telemetry is strictly out-of-band: registers, \
          metrics and monitors are byte-identical to an unprofiled run at every -d.  Exits \
          1 if an invariant monitor reports a violation.")
    Term.(
      with_instance "profile" profile $ scenario_arg $ seed_arg $ faults_arg
      $ async_arg $ epochs_arg $ trials_arg $ max_rounds_arg $ domains_arg $ format_arg Md
      $ chrome_arg $ fake_clock_arg)

let labels_cmd =
  Cmd.v
    (Cmd.info "labels" ~doc:"Print the Section 5 label strings of an instance.")
    Term.(with_instance "labels" labels $ seed_arg)

let compare_cmdliner =
  Cmd.v
    (Cmd.info "compare" ~doc:"Compare MST construction algorithms on one instance.")
    Term.(with_instance "compare" compare_cmd $ seed_arg)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "msst" ~version:"1.0.0"
      ~doc:"Fast and compact self-stabilizing verification, computation and fault detection of an MST"
  in
  exit
    (Cmd.eval'
       (Cmd.group ~default info
          [ construct_cmd; verify_cmd; stabilize_cmd; trace_cmd; campaign_cmd; report_cmd;
            profile_cmd; explain_cmd; replay_cmd; labels_cmd; compare_cmdliner ]))
