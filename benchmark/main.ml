(* The benchmark: the paper's construct -> verify -> detect -> repair
   pipeline, timed end to end and per layer.  See README.md.

     main.exe --workload W --seed N --seconds S --trace 0|1
         one workload in this process; every metric as
         "workload metric value unit (samples=N)", then one JSON line
     main.exe run all|W [--seed N] [--seconds S] [--trace] [--out DIR]
         each workload in its own process; exits non-zero on any failed check
     main.exe compare A/ B/
         the regression / gain rules over two directories of row files *)

open Cmdliner

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    Sys.mkdir d 0o755
  end

let write path contents =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc contents)

let json_str s = "\"" ^ Ssmst_sim.Trace.json_escape s ^ "\""

let layers_json ~workload ~seed l (metrics : Runner.metric list) =
  let span (name, (a : Layers.acc)) =
    Printf.sprintf {|{"name":%s,"calls":%d,"total_s":%s,"self_s":%s}|} (json_str name) a.calls
      (num a.total) (num a.self)
  in
  let metric (x : Runner.metric) =
    Printf.sprintf {|{"name":%s,"value":%s,"unit":%s,"samples":%d}|} (json_str x.name) (num x.value)
      (json_str x.unit) x.samples
  in
  Printf.sprintf {|{"workload":%s,"seed":%d,"spans":[%s],"metrics":[%s]}|} (json_str workload) seed
    (String.concat "," (List.map span (Layers.spans l)))
    (String.concat "," (List.map metric metrics))

let single workload seed seconds trace out toy =
  let size = if toy then Workloads.Toy else Workloads.Full in
  let trace = trace <> 0 in
  let w = Workloads.make ~size ~trace ~seed workload in
  let res = Runner.run w ~seconds ~trace in
  let golden_ok =
    match Golden.expected ~seed ~size workload with
    | Some d when d = res.digest -> true
    | Some d ->
        Printf.eprintf "FAILED %s: golden digest %s, expected %s\n" workload res.digest d;
        false
    | None ->
        Printf.eprintf "%s digest %s (no golden at this seed)\n" workload res.digest;
        true
  in
  List.iter (fun f -> Printf.eprintf "FAILED %s: %s\n%!" workload f) res.failures;
  let all = res.metrics @ res.extras in
  List.iter
    (fun (x : Runner.metric) ->
      Printf.printf "%s %s %s %s (samples=%d)\n" workload x.name (num x.value) x.unit x.samples)
    all;
  mkdir_p out;
  let base =
    Filename.concat out
      (Printf.sprintf "%s-seed%d%s%s" workload seed
         (if toy then "-toy" else "")
         (if trace then "-trace" else ""))
  in
  let cores = Ssmst_parallel.Pool.cpu_count () in
  write (base ^ ".jsonl")
    (String.concat ""
       (List.map
          (fun (x : Runner.metric) ->
            Printf.sprintf
              {|{"workload":%s,"metric":%s,"value":%s,"unit":%s,"samples":%d,"seed":%d,"cores":%d}|}
              (json_str workload) (json_str x.name) (num x.value) (json_str x.unit) x.samples seed
              cores
            ^ "\n")
          all));
  Option.iter
    (fun l ->
      write (base ^ ".layers.json") (layers_json ~workload ~seed l all);
      write (base ^ ".chrome.json") (Layers.chrome_trace l))
    res.layers;
  let failed = min res.attempted (List.length res.failures) in
  let correct = failed = 0 && golden_ok in
  Printf.printf {|{"correct":%b,"attempted":%d,"failed":%d,"metrics":{%s}}|} correct res.attempted
    failed
    (String.concat ","
       (List.map
          (fun (x : Runner.metric) ->
            Printf.sprintf {|%s:{"value":%s,"unit":%s}|} (json_str x.name) (num x.value)
              (json_str x.unit))
          res.metrics));
  print_newline ();
  if correct then 0 else 1

(* Each workload in a child process of its own, so peak RSS and GC state
   stay per workload. *)
let run_all target seed seconds trace out toy =
  let targets = if target = "all" then Workloads.names else [ target ] in
  List.fold_left
    (fun status w ->
      let args =
        [ Sys.executable_name; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
          num seconds; "--trace"; (if trace then "1" else "0"); "--out"; out ]
        @ if toy then [ "--toy" ] else []
      in
      flush stdout;
      let pid =
        Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
          Unix.stderr
      in
      match snd (Unix.waitpid [] pid) with
      | Unix.WEXITED 0 -> status
      | _ ->
          Printf.eprintf "workload %s failed\n%!" w;
          1)
    0 targets

let seed = Arg.(value & opt int Golden.default_seed & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.")

let seconds =
  Arg.(value & opt float 15. & info [ "seconds" ] ~docv:"S" ~doc:"Length of the timed phase.")

let out =
  Arg.(
    value
    & opt string (Filename.concat "benchmark" "results")
    & info [ "out" ] ~docv:"DIR" ~doc:"Directory for the row files and trace artifacts.")

let toy =
  Arg.(value & flag & info [ "toy" ] ~doc:"Toy sizes (n <= 64, a 32x32 grid): the smoke test.")

let single_term =
  let workload =
    Arg.(
      required
      & opt (some string) None
      & info [ "workload" ] ~docv:"W" ~doc:(String.concat ", " Workloads.names))
  in
  let trace =
    Arg.(value & opt int 0 & info [ "trace" ] ~docv:"0|1" ~doc:"1: per-layer metrics.")
  in
  Term.(const single $ workload $ seed $ seconds $ trace $ out $ toy)

let run_cmd =
  let target =
    Arg.(value & pos 0 string "all" & info [] ~docv:"WORKLOAD" ~doc:"A workload, or all.")
  in
  let trace = Arg.(value & flag & info [ "trace" ] ~doc:"Traced runs: per-layer metrics.") in
  Cmd.v
    (Cmd.info "run" ~doc:"Run workloads, each in its own process.")
    Term.(const run_all $ target $ seed $ seconds $ trace $ out $ toy)

let compare_cmd =
  let dir i name = Arg.(required & pos i (some dir) None & info [] ~docv:name) in
  Cmd.v
    (Cmd.info "compare"
       ~doc:
         "Compare two directories of result rows (A = parent, B = change) under the bounds of \
          ./BENCHMARK.json.")
    Term.(const (fun a b -> Compare.run ~spec:"BENCHMARK.json" a b) $ dir 0 "A" $ dir 1 "B")

let () =
  exit
    (Cmd.eval'
       (Cmd.group ~default:single_term
          (Cmd.info "main" ~doc:"Benchmark of the construct, verify, detect and repair pipeline.")
          [ run_cmd; compare_cmd ]))
