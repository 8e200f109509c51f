open Ssmst_graph
open Ssmst_sim

(* The alpha synchronizer (Awerbuch), the component Section 10 uses to run
   the synchronous SYNC_MST under an asynchronous daemon.

   Each node keeps a pulse counter and two state buffers.  It advances from
   pulse p to p+1 only when every neighbour's pulse is >= p, computing the
   wrapped protocol's synchronous round p against each neighbour's
   pulse-p snapshot: the current buffer of a neighbour still at pulse p, or
   the previous buffer of a neighbour already at p+1 (neighbouring pulses
   never differ by more than one).  The wrapped protocol therefore observes
   exactly the synchronous execution, at a constant time overhead — each
   asynchronous round advances every pulse at least once under a fair
   daemon.

   Pulse counters are kept as plain integers here; bounding them mod a
   small constant (as the self-stabilizing variants of [10, 11] do, paired
   with a reset) only changes the comparison to a windowed one. *)

module Make (P : Protocol.S) = struct
  type state = {
    pulse : int;
    cur : P.state;  (* state at [pulse] *)
    prev : P.state;  (* state at [pulse - 1] *)
  }

  let init g v =
    let s = P.init g v in
    { pulse = 0; cur = s; prev = s }

  let step g v (s : state) read =
    let ready =
      Graph.for_all_ports g v (fun p _ -> (read p).pulse >= s.pulse)
    in
    if not ready then s
    else begin
      (* neighbours are at pulse or pulse+1; select their pulse-[s.pulse]
         snapshot *)
      let snapshot p =
        let su = read p in
        if su.pulse = s.pulse then su.cur
        else if su.pulse = s.pulse + 1 then su.prev
        else (* > pulse + 1 cannot happen under the advance rule *) su.prev
      in
      let next = P.step g v s.cur snapshot in
      { pulse = s.pulse + 1; cur = next; prev = s.cur }
    end

  let alarm s = P.alarm s.cur

  let equal (a : state) (b : state) =
    a.pulse = b.pulse && P.equal a.cur b.cur && P.equal a.prev b.prev

  let bits g v s = Memory.of_nat s.pulse + P.bits g v s.cur + P.bits g v s.prev

  let corrupt st g v s = { s with cur = P.corrupt st g v s.cur }

  (* the pulse counter is load-bearing for the advance rule (the
     synchronizer itself is not self-stabilizing), so the targeted-field
     fault perturbs one field of the wrapped register instead *)
  let corrupt_field st g v s = { s with cur = P.corrupt_field st g v s.cur }

  let field_names = [| "pulse"; "cur"; "prev" |]
  let encode s = [| s.pulse; Protocol.hash_field s.cur; Protocol.hash_field s.prev |]

  let pulse s = s.pulse
  let current s = s.cur
end
