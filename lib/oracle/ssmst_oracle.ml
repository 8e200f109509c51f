open Ssmst_graph
open Ssmst_sim

(* The naive reference engine: it re-steps every node every round, exactly
   as the paper's model reads, at O(sum deg) steps per round regardless of
   activity.  It is the oracle the event-driven engine ([Network.Make],
   [Network.Flat]) is tested and timed against; no scenario runs on it. *)

module Naive (P : Protocol.S) = struct
  type t = {
    graph : Graph.t;
    mutable states : P.state array;
    mutable rounds : int;  (* ideal time elapsed *)
    mutable peak_bits : int;
  }

  let create graph =
    let states = Array.init (Graph.n graph) (P.init graph) in
    let peak = ref 0 in
    Array.iteri (fun v s -> peak := max !peak (P.bits graph v s)) states;
    let peak = !peak in
    { graph; states; rounds = 0; peak_bits = peak }

  let graph t = t.graph
  let state t v = t.states.(v)
  let states t = t.states

  (* Peak bits are maintained incrementally: every state the network ever
     holds passes through [create], [touch] (on change) or [set_state]. *)
  let touch t v s =
    let b = P.bits t.graph v s in
    if b > t.peak_bits then t.peak_bits <- b

  let set_state t v s =
    t.states.(v) <- s;
    touch t v s

  let rounds t = t.rounds
  let peak_bits t = t.peak_bits

  (* The register behind port [p] of [v]: a port outside [0, degree v)
     names no neighbour. *)
  let port_read g states v p =
    if p < 0 || p >= Graph.degree g v then invalid_arg "Network.step: reading a non-neighbour";
    states.(Graph.peer_at g v p)

  (* One synchronous round: all nodes step on a snapshot. *)
  let sync_round t =
    let snapshot = t.states in
    t.states <-
      Array.mapi
        (fun v s ->
          let s' = P.step t.graph v s (port_read t.graph snapshot v) in
          if not (P.equal s' s) then touch t v s';
          s')
        snapshot;
    t.rounds <- t.rounds + 1

  (* One asynchronous round under a fair daemon: nodes fire sequentially per
     the daemon's schedule and read fresh registers. *)
  let async_round t daemon =
    let schedule = Scheduler.round_schedule daemon (Graph.n t.graph) in
    List.iter
      (fun v ->
        let s = t.states.(v) in
        let s' = P.step t.graph v s (port_read t.graph t.states v) in
        if not (P.equal s' s) then begin
          t.states.(v) <- s';
          touch t v s'
        end
        else t.states.(v) <- s')
      schedule;
    t.rounds <- t.rounds + 1

  let round t daemon = if Scheduler.is_sync daemon then sync_round t else async_round t daemon

  let run t daemon ~rounds =
    for _ = 1 to rounds do
      round t daemon
    done

  let any_alarm t = Array.exists P.alarm t.states

  let alarming_nodes t =
    let acc = ref [] in
    Array.iteri (fun v s -> if P.alarm s then acc := v :: !acc) t.states;
    !acc

  (* Run until [stop] holds or [max_rounds] elapse; returns the number of
     rounds executed and whether [stop] was reached. *)
  let run_until t daemon ~max_rounds stop =
    let executed = ref 0 and reached = ref (stop t) in
    while (not !reached) && !executed < max_rounds do
      round t daemon;
      incr executed;
      reached := stop t
    done;
    (!executed, !reached)

  (* Rounds until the first alarm, or [None] if none within [max_rounds]. *)
  let detection_time t daemon ~max_rounds =
    let executed, reached = run_until t daemon ~max_rounds any_alarm in
    if reached then Some executed else None

  module Inject = Fault.Apply (P)

  (* Apply one burst of [model]: the victim set and the corruption order
     are deterministic (ascending node index; see {!Fault}), so identical
     seeds reproduce identical post-fault configurations. *)
  let inject t st (model : Fault.t) =
    Inject.apply st t.graph model
      ~get:(fun v -> t.states.(v))
      ~set:(fun v s' -> set_state t v s')

  (* Corrupt [count] distinct random nodes; returns the sorted list of
     faulty nodes. *)
  let inject_faults t st ~count = inject t st (Fault.uniform ~count)

  (* Max hop distance from any fault to the closest alarming node: the
     paper's detection distance (Section 2.4). *)
  let detection_distance t ~faults =
    Dist.detection_distance t.graph ~faults ~alarms:(alarming_nodes t)
end
