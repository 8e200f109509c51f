(* Fault-injection campaigns (see the interface).  Everything in this file
   is deterministic in the seeds carried by the specs: trial rows are
   produced in grid order, victims are sorted, and the CSV/JSONL encoders
   are pure, so one seed reproduces one byte-identical campaign file. *)

type spec = {
  family : string;
  n : int;  (* actual graph size (Graph.n), the one bound checks use *)
  requested_n : int;  (* the size the grid asked for, before family rounding *)
  faults : int;
  model : string;
  seed : int;
}

type outcome = {
  victims : int list;
  injections : int;
  detection_rounds : int option;
  detection_distance : int option;
  rounds_run : int;
}

type trial = { spec : spec; outcome : outcome }

(* ---------------- the named model vocabulary ---------------- *)

let model_names =
  [ "uniform"; "clustered"; "near-root"; "targeted"; "crash"; "bit-flip"; "intermittent" ]

(* The clustered placement keeps every fault within a 2-ball of one random
   center: the containment worst case where f faults share one small
   neighbourhood instead of being spread over the graph. *)
let clustered_radius = 2

(* The intermittent cadence drips further bursts while detection runs. *)
let intermittent_period = 25
let intermittent_repeats = 3

let resolve_model name ~n ~root ~count =
  match name with
  | "uniform" -> Fault.uniform ~count
  | "clustered" ->
      Fault.make ~placement:(Clustered { center = None; radius = clustered_radius }) ~count ()
  | "near-root" -> Fault.make ~placement:(Near_root { root }) ~count ()
  | "targeted" ->
      (* an explicit, evenly spread victim list (dedup keeps it <= count;
         no victim at count 0) *)
      let k = min count n in
      Fault.make ~placement:(Targeted (List.init k (fun i -> i * n / k))) ~count ()
  | "crash" -> Fault.make ~severity:Crash_reset ~count ()
  | "bit-flip" -> Fault.make ~severity:Bit_flip ~count ()
  | "intermittent" ->
      Fault.make
        ~cadence:(Intermittent { period = intermittent_period; repeats = intermittent_repeats })
        ~count ()
  | _ -> invalid_arg (Fmt.str "Campaign.resolve_model: unknown model %S" name)

(* ---------------- one trial ---------------- *)

let drive ~rng ~(model : Fault.t) ~max_rounds ~round ~any_alarm ~inject ~distance =
  let victims = ref (inject rng model) in
  let injections = ref (List.length !victims) in
  let period, repeats =
    match model.Fault.cadence with
    | Fault.One_shot -> (max_int, 0)
    | Fault.Intermittent { period; repeats } -> (period, repeats)
  in
  let remaining = ref repeats in
  let detected = ref (any_alarm ()) in
  let r = ref 0 in
  while (not !detected) && !r < max_rounds do
    round ();
    incr r;
    detected := any_alarm ();
    if (not !detected) && !remaining > 0 && !r mod period = 0 then begin
      let burst = inject rng model in
      injections := !injections + List.length burst;
      victims := List.sort_uniq compare (List.rev_append burst !victims);
      decr remaining
    end
  done;
  {
    victims = !victims;
    injections = !injections;
    detection_rounds = (if !detected then Some !r else None);
    detection_distance = (if !detected then distance ~faults:!victims else None);
    rounds_run = !r;
  }

(* ---------------- sinks ---------------- *)

let csv_header =
  "family,n,requested_n,faults,model,seed,detected,detection_rounds,detection_distance,"
  ^ "injections,rounds_run,victims"

let opt_csv = function None -> "" | Some x -> string_of_int x

let trial_to_csv { spec; outcome } =
  Fmt.str "%s,%d,%d,%d,%s,%d,%b,%s,%s,%d,%d,%s" spec.family spec.n spec.requested_n
    spec.faults spec.model spec.seed
    (outcome.detection_rounds <> None)
    (opt_csv outcome.detection_rounds)
    (opt_csv outcome.detection_distance)
    outcome.injections outcome.rounds_run
    (String.concat ";" (List.map string_of_int outcome.victims))

let opt_json = function None -> "null" | Some x -> string_of_int x

let trial_to_json { spec; outcome } =
  Fmt.str
    {|{"family":%S,"n":%d,"requested_n":%d,"faults":%d,"model":%S,"seed":%d,"detected":%b,"detection_rounds":%s,"detection_distance":%s,"injections":%d,"rounds_run":%d,"victims":[%s]}|}
    spec.family spec.n spec.requested_n spec.faults spec.model spec.seed
    (outcome.detection_rounds <> None)
    (opt_json outcome.detection_rounds)
    (opt_json outcome.detection_distance)
    outcome.injections outcome.rounds_run
    (String.concat "," (List.map string_of_int outcome.victims))

let write_csv oc trials =
  output_string oc (csv_header ^ "\n");
  List.iter (fun t -> output_string oc (trial_to_csv t ^ "\n")) trials

let write_jsonl oc trials =
  List.iter (fun t -> output_string oc (trial_to_json t ^ "\n")) trials

(* ---------------- aggregation ---------------- *)

type agg = {
  family : string;
  n : int;
  faults : int;
  model : string;
  trials : int;
  detected : int;
  dt_min : int;
  dt_med : int;
  dt_p95 : int;
  dd_min : int;
  dd_med : int;
  dd_p95 : int;
}

(* percentiles over a non-empty sorted list: lower median, ceiling p95 *)
let percentiles = function
  | [] -> (-1, -1, -1)
  | xs ->
      let a = Array.of_list (List.sort Int.compare xs) in
      let last = Array.length a - 1 in
      (a.(0), a.(last / 2), a.(((95 * last) + 99) / 100))

let aggregate trials =
  let order = ref [] and tbl = Hashtbl.create 16 in
  List.iter
    (fun t ->
      let key = (t.spec.family, t.spec.n, t.spec.faults, t.spec.model) in
      if not (Hashtbl.mem tbl key) then begin
        Hashtbl.add tbl key [];
        order := key :: !order
      end;
      Hashtbl.replace tbl key (t :: Hashtbl.find tbl key))
    trials;
  List.rev_map
    (fun ((family, n, faults, model) as key) ->
      let ts = List.rev (Hashtbl.find tbl key) in
      let dts = List.filter_map (fun t -> t.outcome.detection_rounds) ts in
      let dds = List.filter_map (fun t -> t.outcome.detection_distance) ts in
      let dt_min, dt_med, dt_p95 = percentiles dts in
      let dd_min, dd_med, dd_p95 = percentiles dds in
      {
        family;
        n;
        faults;
        model;
        trials = List.length ts;
        detected = List.length dts;
        dt_min;
        dt_med;
        dt_p95;
        dd_min;
        dd_med;
        dd_p95;
      })
    !order

let pp_agg_table ppf aggs =
  Fmt.pf ppf "%-10s %-6s %-4s %-14s %9s %12s %12s %10s %10s@." "family" "n" "f" "model"
    "detected" "dt med" "dt p95" "dd med" "dd p95";
  List.iter
    (fun a ->
      let cell x = if x < 0 then "-" else string_of_int x in
      Fmt.pf ppf "%-10s %-6d %-4d %-14s %6d/%-2d %12s %12s %10s %10s@." a.family a.n a.faults
        a.model a.detected a.trials (cell a.dt_med) (cell a.dt_p95) (cell a.dd_med)
        (cell a.dd_p95))
    aggs
