open Ssmst_sim

(* Typed phase-span profiler: a stack of nested spans, each tagged with the
   paper phase it covers, accumulating the ideal-time rounds, activations,
   register writes and register-bit high-water marks spent inside it.

   Two feeding paths coexist:

   - sampling: a span profiler created over an engine's {!Metrics} snapshots
     the counters at [open_] and charges the delta at [close] — the
     hook-free path for anything executing on the event-driven engine;
   - explicit charging: algorithms with their own cost model ({!Sync_mst}'s
     timetable, the marker's wave passes) call {!charge}, which adds to
     every currently open span.

   Counts are inclusive (a parent includes its children), like any
   tree profiler.  Every open/close also lands in the attached {!Trace} as
   a [Span_mark] event, so the JSONL/CSV sinks see phase boundaries in
   stream order. *)

type tag =
  | Fragment_level of int  (* one SYNC_MST phase (Section 4 timetable) *)
  | Wave_sweep  (* one wave/echo traversal or verifier window sweep *)
  | Epoch of int  (* one transformer verify-inject-repair epoch *)
  | Campaign_trial of int  (* one campaign trial *)
  | Construct  (* SYNC_MST + marker assembly *)
  | Settle  (* verifier settling run *)
  | Inject  (* fault injection burst *)
  | Detect  (* injection-to-alarm window *)
  | Verify  (* a verification regime window *)
  | Named of string  (* anything else *)

let tag_label = function
  | Fragment_level i -> Fmt.str "fragment-level %d" i
  | Wave_sweep -> "wave-sweep"
  | Epoch i -> Fmt.str "epoch %d" i
  | Campaign_trial i -> Fmt.str "campaign-trial %d" i
  | Construct -> "construct"
  | Settle -> "settle"
  | Inject -> "inject"
  | Detect -> "detect"
  | Verify -> "verify"
  | Named s -> s

type counters = { rounds : int; activations : int; writes : int; peak_bits : int }

let zero_counters = { rounds = 0; activations = 0; writes = 0; peak_bits = 0 }

let sampler_of_metrics (m : Metrics.t) () =
  {
    rounds = m.Metrics.rounds;
    activations = m.Metrics.activations;
    writes = m.Metrics.register_writes;
    peak_bits = m.Metrics.peak_bits;
  }

type node = {
  tag : tag;
  mutable rounds : int;
  mutable activations : int;
  mutable writes : int;
  mutable peak_bits : int;
  mutable children_rev : node list;
  mutable opened_at : counters;  (* snapshot at [open_] *)
}

type t = {
  sample : unit -> counters;
  mutable trace : Trace.t option;
  root : node;
  mutable stack : node list;  (* innermost open span first; root always last *)
}

let fresh_node tag =
  { tag; rounds = 0; activations = 0; writes = 0; peak_bits = 0; children_rev = []; opened_at = zero_counters }

let create ?trace ?(sample = fun () -> zero_counters) () =
  let root = fresh_node (Named "run") in
  root.opened_at <- sample ();
  { sample; trace; root; stack = [ root ] }

let attach_trace t tr = t.trace <- Some tr

let emit t ~enter label =
  match t.trace with
  | None -> ()
  | Some tr ->
      Trace.record tr (Trace.Span_mark { round = (t.sample ()).rounds; label; enter })

let open_ t tag =
  let n = fresh_node tag in
  n.opened_at <- t.sample ();
  (match t.stack with
  | parent :: _ -> parent.children_rev <- n :: parent.children_rev
  | [] -> assert false);
  t.stack <- n :: t.stack;
  emit t ~enter:true (tag_label tag)

(* Add the sampled delta since [open_] to the node being closed. *)
let settle_delta t (n : node) =
  let s = t.sample () in
  n.rounds <- n.rounds + (s.rounds - n.opened_at.rounds);
  n.activations <- n.activations + (s.activations - n.opened_at.activations);
  n.writes <- n.writes + (s.writes - n.opened_at.writes);
  n.peak_bits <- max n.peak_bits s.peak_bits

let close t =
  match t.stack with
  | [] | [ _ ] -> invalid_arg "Span.close: no open span"
  | n :: rest ->
      settle_delta t n;
      t.stack <- rest;
      emit t ~enter:false (tag_label n.tag)

let with_ t tag f =
  open_ t tag;
  Fun.protect ~finally:(fun () -> close t) f

(* Explicit charging for algorithms that account their own cost (the
   SYNC_MST timetable, the marker's wave passes): adds to every open span —
   the inclusive-count analogue of the sampled delta. *)
let charge t ?(rounds = 0) ?(activations = 0) ?(writes = 0) ?(peak_bits = 0) () =
  List.iter
    (fun n ->
      n.rounds <- n.rounds + rounds;
      n.activations <- n.activations + activations;
      n.writes <- n.writes + writes;
      n.peak_bits <- max n.peak_bits peak_bits)
    t.stack

(* Close every open span (including the root's sampling window) and return
   the root. *)
let finish t =
  while List.length t.stack > 1 do
    close t
  done;
  (match t.stack with [ root ] -> settle_delta t root | _ -> assert false);
  (* re-open the root window so a later [finish] doesn't double-charge *)
  t.root.opened_at <- t.sample ();
  t.root

let root t = t.root
let children n = List.rev n.children_rev
let depth_first n =
  let rec go acc depth n =
    List.fold_left (fun acc c -> go acc (depth + 1) c) ((depth, n) :: acc) (children n)
  in
  List.rev (go [] 0 n)

let rec node_to_json (n : node) =
  Fmt.str
    {|{"tag":"%s","rounds":%d,"activations":%d,"writes":%d,"peak_bits":%d,"children":[%s]}|}
    (Trace.json_escape (tag_label n.tag))
    n.rounds n.activations n.writes n.peak_bits
    (String.concat "," (List.map node_to_json (children n)))

let pp_node ppf (n : node) =
  Fmt.pf ppf "%s [rounds %d, activations %d, writes %d, peak %d bits]" (tag_label n.tag)
    n.rounds n.activations n.writes n.peak_bits

let pp_tree ppf (n : node) =
  List.iter
    (fun (depth, n) -> Fmt.pf ppf "%s- %a@." (String.make (2 * depth) ' ') pp_node n)
    (depth_first n)
