open Ssmst_graph
open Ssmst_sim

(* Unit tests for the observability layer: the {!Trace} ring buffer and
   sinks, and the {!Metrics} counters as maintained by the event-driven
   engine. *)

(* ---------------- the ring buffer ---------------- *)

let ev r = Trace.Activation { round = r; node = r }

let test_ring_buffer () =
  let t = Trace.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Trace.length t);
  for r = 1 to 6 do
    Trace.record t (ev r)
  done;
  Alcotest.(check int) "length capped at capacity" 4 (Trace.length t);
  Alcotest.(check int) "total counts everything" 6 (Trace.total t);
  Alcotest.(check int) "dropped = total - retained" 2 (Trace.dropped t);
  Alcotest.(check (list int)) "oldest-first retained window" [ 3; 4; 5; 6 ]
    (List.map Trace.event_round (Trace.to_list t));
  Trace.clear t;
  Alcotest.(check int) "cleared" 0 (Trace.total t)

let test_json_csv () =
  let a = Trace.Alarm_raised { round = 12; node = 5 } in
  Alcotest.(check string)
    "alarm json" {|{"event":"alarm_raised","round":12,"node":5}|} (Trace.event_to_json a);
  let c = Trace.Convergence { round = 20; reached = true } in
  Alcotest.(check string)
    "convergence json" {|{"event":"convergence","round":20,"reached":true}|}
    (Trace.event_to_json c);
  let w = Trace.Register_write { round = 3; node = 1; bits = 17; prov = None } in
  Alcotest.(check string)
    "write json" {|{"event":"register_write","round":3,"node":1,"bits":17}|}
    (Trace.event_to_json w);
  let prov =
    Some
      {
        Trace.cause = Trace.Neighbor_read [ 0; 2 ];
        changes = [ { Trace.field = "dist"; old_enc = 3; new_enc = 4 } ];
      }
  in
  let wp = Trace.Register_write { round = 3; node = 1; bits = 17; prov } in
  Alcotest.(check string)
    "write json with provenance"
    {|{"event":"register_write","round":3,"node":1,"bits":17,"cause":"read:0,2","changes":"dist:3>4"}|}
    (Trace.event_to_json wp);
  Alcotest.(check string) "write csv" "register_write,3,1,17,,,,,,," (Trace.event_to_csv w);
  Alcotest.(check string)
    "write csv with provenance" "register_write,3,1,17,,,,,,\"read:0,2\",dist:3>4"
    (Trace.event_to_csv wp);
  Alcotest.(check string) "convergence csv" "convergence,20,,,true,,,,,," (Trace.event_to_csv c);
  (* every event's CSV row matches the header's arity (quoted cells hold no
     commas here except the cause, handled above) *)
  let arity s = List.length (String.split_on_char ',' s) in
  List.iter
    (fun e ->
      Alcotest.(check int)
        (Fmt.str "csv arity: %s" (Trace.event_to_csv e))
        (arity Trace.csv_header) (arity (Trace.event_to_csv e)))
    [
      a; c; w;
      Trace.Fault_injected { round = 2; node = 7; fault = Some 0 };
      Trace.Invariant_violation { round = 4; node = None; monitor = "plain"; detail = "" };
      Trace.Invariant_violation
        { round = 9; node = Some 3; monitor = "forest"; detail = "plain detail" };
    ]

(* What [event_to_json] must write for [e], field by field, as
   [Json_lite] reads the line back. *)
let json_fields e =
  let open Ssmst_obs.Json_lite in
  let int i = Num (float_of_int i) in
  let opt key = function None -> [] | Some v -> [ (key, int v) ] in
  let rest =
    match e with
    | Trace.Activation { node; _ } | Alarm_raised { node; _ } | Alarm_cleared { node; _ } ->
        [ ("node", int node) ]
    | Register_write { node; bits; prov; _ } -> (
        [ ("node", int node); ("bits", int bits) ]
        @
        match prov with
        | None -> []
        | Some { cause; changes } ->
            [
              ("cause", Str (Trace.cause_to_string cause));
              ("changes", Str (Trace.changes_to_string changes));
            ])
    | Fault_injected { node; fault; _ } -> ("node", int node) :: opt "fault" fault
    | Convergence { reached; _ } -> [ ("reached", Bool reached) ]
    | Invariant_violation { node; monitor; detail; _ } ->
        opt "node" node @ [ ("monitor", Str monitor); ("detail", Str detail) ]
  in
  Obj ([ ("event", Str (Trace.event_name e)); ("round", int (Trace.event_round e)) ] @ rest)

let check_json_fields e =
  let j = Trace.event_to_json e in
  Alcotest.(check bool) (Fmt.str "fields of %s" j) true (Ssmst_obs.Json_lite.parse j = json_fields e)

(* both write shapes, with and without provenance, read back field by
   field; the provenance strings are pinned for every cause *)
let test_prov_roundtrip () =
  List.iter
    (fun (e, cause, changes) ->
      check_json_fields e;
      match e with
      | Trace.Register_write { prov = Some p; _ } ->
          Alcotest.(check string) "cause" cause (Trace.cause_to_string p.Trace.cause);
          Alcotest.(check string) "changes" changes (Trace.changes_to_string p.Trace.changes)
      | _ -> ())
    [
      (Trace.Register_write { round = 3; node = 1; bits = 17; prov = None }, "", "");
      ( Trace.Register_write
          {
            round = 3;
            node = 1;
            bits = 17;
            prov = Some { Trace.cause = Trace.Init; changes = [] };
          },
        "init",
        "" );
      ( Trace.Register_write
          {
            round = 5;
            node = 2;
            bits = 9;
            prov =
              Some
                {
                  Trace.cause = Trace.Neighbor_read [ 0; 1; 3 ];
                  changes =
                    [
                      { Trace.field = "dist"; old_enc = -1; new_enc = 4 };
                      { Trace.field = "parent"; old_enc = 2; new_enc = -7 };
                    ];
                };
          },
        "read:0,1,3",
        "dist:-1>4;parent:2>-7" );
      ( Trace.Register_write
          {
            round = 6;
            node = 0;
            bits = 4;
            prov = Some { Trace.cause = Trace.Fault 3; changes = [] };
          },
        "fault:3",
        "" );
      (Trace.Fault_injected { round = 2; node = 7; fault = None }, "", "");
      (Trace.Fault_injected { round = 2; node = 7; fault = Some 11 }, "", "");
    ]

(* ---------------- a fault-detecting toy protocol ---------------- *)

(* legal configurations have all values equal; a node seeing a disagreeing
   neighbour latches its alarm on the next activation *)
module Watch = struct
  type state = { value : int; alarmed : bool }

  let init _ _ = { value = 0; alarmed = false }

  let step g v (s : state) read =
    let disagree = Graph.exists_ports g v (fun p _ -> (read p).value <> s.value) in
    { s with alarmed = s.alarmed || disagree }

  let alarm s = s.alarmed
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.value + 1
  let corrupt st _ _ (s : state) = { s with value = 1 + Random.State.int st 100 }
  let corrupt_field st _ _ (s : state) = { s with value = 1 + Random.State.int st 100 }
  let field_names = [| "value"; "alarmed" |]
  let encode (s : state) = [| s.value; Bool.to_int s.alarmed |]
end

module Net = Network.Make (Watch)

let path_graph n = Graph.of_edges ~n (List.init (n - 1) (fun i -> (i, i + 1, 1)))

let test_alarm_events_at_detection () =
  let g = path_graph 10 in
  let tr = Trace.create () in
  let net = Net.create ~trace:tr g in
  (* legal initial configuration: run a while, nothing happens *)
  Net.run net Scheduler.Sync ~rounds:5;
  Alcotest.(check bool) "no alarm on legal config" false (Net.any_alarm net);
  Alcotest.(check int) "no alarm events yet" 0
    (List.length
       (List.filter
          (fun e -> match e with Trace.Alarm_raised _ -> true | _ -> false)
          (Trace.to_list tr)));
  let injected_at = Net.rounds net in
  let faults = Net.inject_faults net (Gen.rng 77) ~count:1 in
  let f = List.hd faults in
  (match Net.detection_time net Scheduler.Sync ~max_rounds:10 with
  | None -> Alcotest.fail "fault must be detected"
  | Some dt ->
      Alcotest.(check int) "disagreement detected in one round" 1 dt;
      let events = Trace.to_list tr in
      let fault_events =
        List.filter_map
          (fun e -> match e with Trace.Fault_injected { round; node; _ } -> Some (round, node) | _ -> None)
          events
      in
      Alcotest.(check (list (pair int int)))
        "fault event at injection round" [ (injected_at, f) ] fault_events;
      let alarm_rounds =
        List.filter_map
          (fun e -> match e with Trace.Alarm_raised { round; _ } -> Some round | _ -> None)
          events
      in
      Alcotest.(check bool) "alarms fired" true (alarm_rounds <> []);
      List.iter
        (fun r ->
          Alcotest.(check int) "alarm raised exactly at detection round" (injected_at + dt) r)
        alarm_rounds);
  let m = Net.metrics net in
  Alcotest.(check int) "one fault counted" 1 m.Metrics.faults_injected;
  Alcotest.(check bool) "alarm transitions counted" true (m.Metrics.alarms_raised >= 1)

(* ---------------- quiescence accounting ---------------- *)

module Flood = struct
  type state = { best : int }

  let init g v = { best = Graph.id g v }

  let step g v (s : state) read =
    Graph.fold_ports g v (fun acc p _ -> { best = max acc.best (read p).best }) s

  let alarm _ = false
  let equal (a : state) (b : state) = a = b
  let bits _g _v s = Memory.of_int s.best
  let corrupt st _ _ _ = { best = Random.State.int st 64 }
  let corrupt_field st _ _ _ = { best = Random.State.int st 64 }
  let field_names = [| "best" |]
  let encode (s : state) = [| s.best |]
end

module FNet = Network.Make (Flood)

let test_rounds_to_quiescence () =
  let g = path_graph 12 in
  let tr = Trace.create () in
  let net = FNet.create ~trace:tr g in
  let all_agree net =
    Array.for_all (fun (s : Flood.state) -> s.Flood.best = 11) (FNet.states net)
  in
  let executed, reached = FNet.run_until net Scheduler.Sync ~max_rounds:50 all_agree in
  Alcotest.(check bool) "converged" true reached;
  let m = FNet.metrics net in
  Alcotest.(check int) "rounds-to-quiescence matches run_until" executed
    (Metrics.rounds_to_quiescence m);
  (* the convergence event carries the stopping round *)
  (match List.rev (Trace.to_list tr) with
  | Trace.Convergence { round; reached } :: _ ->
      Alcotest.(check int) "convergence event round" executed round;
      Alcotest.(check bool) "convergence event reached" true reached
  | _ -> Alcotest.fail "last event must be Convergence");
  (* one flush round re-steps the last writers (confirming their no-ops);
     after that the dirty set is empty and rounds cost zero activations *)
  FNet.run net Scheduler.Sync ~rounds:1;
  let before = m.Metrics.activations in
  FNet.run net Scheduler.Sync ~rounds:10;
  Alcotest.(check int) "quiescent rounds execute no steps" before m.Metrics.activations;
  Alcotest.(check int) "but ideal time still advances" (executed + 11) (FNet.rounds net)

let test_metrics_rows () =
  let m = Metrics.create () in
  m.Metrics.rounds <- 7;
  m.Metrics.activations <- 5;
  m.Metrics.last_write_round <- 4;
  Alcotest.(check int) "csv row arity matches header"
    (List.length (String.split_on_char ',' Metrics.csv_header))
    (List.length (String.split_on_char ',' (Metrics.to_csv_row m)));
  let j = Metrics.to_json ~label:"x" m in
  Alcotest.(check bool) "json row shaped" true
    (String.length j > 2 && j.[0] = '{' && j.[String.length j - 1] = '}')

let suite =
  [
    Alcotest.test_case "ring buffer drops oldest" `Quick test_ring_buffer;
    Alcotest.test_case "json and csv event encodings" `Quick test_json_csv;
    Alcotest.test_case "provenance round-trips both shapes" `Quick test_prov_roundtrip;
    Alcotest.test_case "alarm events fire at detection time" `Quick test_alarm_events_at_detection;
    Alcotest.test_case "rounds-to-quiescence = run_until" `Quick test_rounds_to_quiescence;
    Alcotest.test_case "metrics csv/json rows" `Quick test_metrics_rows;
  ]
