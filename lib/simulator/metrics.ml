(* Aggregate execution counters for the event-driven engine.

   Where {!Trace} answers "what happened when", this module answers "how
   much work did the run do": activations actually executed, register
   writes, wasted steps (activations that left the register unchanged),
   activations the dirty-set filter skipped, rounds to quiescence, faults,
   alarm transitions and peak register size.  Counters are cheap enough to
   keep always-on; every event-driven engine instance ({!Network.Make} or
   {!Network.Flat}) owns one. *)

type t = {
  mutable rounds : int;  (* rounds executed *)
  mutable activations : int;  (* node steps actually executed *)
  mutable register_writes : int;  (* writes that changed a register *)
  mutable wasted_steps : int;  (* executed steps with an unchanged register *)
  mutable skipped_activations : int;  (* scheduled but skipped as clean *)
  mutable last_write_round : int;  (* most recent round with a write *)
  mutable faults_injected : int;
  mutable alarms_raised : int;  (* false -> true transitions *)
  mutable alarms_cleared : int;  (* true -> false transitions *)
  mutable peak_bits : int;  (* largest register ever held *)
  mutable monitor_violations : int;  (* online invariant-monitor verdicts *)
}

let create () =
  {
    rounds = 0;
    activations = 0;
    register_writes = 0;
    wasted_steps = 0;
    skipped_activations = 0;
    last_write_round = 0;
    faults_injected = 0;
    alarms_raised = 0;
    alarms_cleared = 0;
    peak_bits = 0;
    monitor_violations = 0;
  }

let reset t =
  t.rounds <- 0;
  t.activations <- 0;
  t.register_writes <- 0;
  t.wasted_steps <- 0;
  t.skipped_activations <- 0;
  t.last_write_round <- 0;
  t.faults_injected <- 0;
  t.alarms_raised <- 0;
  t.alarms_cleared <- 0;
  t.peak_bits <- 0;
  t.monitor_violations <- 0

(* The round after which no register changed again: the run's effective
   convergence point (writes at round r happen *during* round r, counted
   from 1). *)
let rounds_to_quiescence t = t.last_write_round

let csv_header =
  "rounds,activations,register_writes,wasted_steps,skipped_activations,"
  ^ "rounds_to_quiescence,faults_injected,alarms_raised,alarms_cleared,peak_bits,"
  ^ "monitor_violations"

let to_csv_row t =
  Fmt.str "%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d" t.rounds t.activations t.register_writes
    t.wasted_steps t.skipped_activations (rounds_to_quiescence t) t.faults_injected
    t.alarms_raised t.alarms_cleared t.peak_bits t.monitor_violations

let to_json ?(label = "") t =
  let prefix = if label = "" then "" else Fmt.str {|"label":%S,|} label in
  Fmt.str
    {|{%s"rounds":%d,"activations":%d,"register_writes":%d,"wasted_steps":%d,"skipped_activations":%d,"rounds_to_quiescence":%d,"faults_injected":%d,"alarms_raised":%d,"alarms_cleared":%d,"peak_bits":%d,"monitor_violations":%d}|}
    prefix t.rounds t.activations t.register_writes t.wasted_steps t.skipped_activations
    (rounds_to_quiescence t) t.faults_injected t.alarms_raised t.alarms_cleared t.peak_bits
    t.monitor_violations

let pp ppf t =
  Fmt.pf ppf
    "rounds %d; activations %d (writes %d, wasted %d, skipped %d); quiescent after %d; faults \
     %d; alarms +%d/-%d; peak %d bits; violations %d"
    t.rounds t.activations t.register_writes t.wasted_steps t.skipped_activations
    (rounds_to_quiescence t) t.faults_injected t.alarms_raised t.alarms_cleared t.peak_bits
    t.monitor_violations
