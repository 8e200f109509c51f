open Ssmst_graph
open Ssmst_sim

(* A self-stabilizing reset service (the [13]-style component the enhanced
   transformer relies on, Section 10).

   Built on the self-stabilizing BFS tree ({!Ss_bfs}): the leader owns an
   epoch counter.  Any node can raise a reset *request*; requests propagate
   up the BFS tree, the leader bumps the epoch, and the new epoch floods
   down, re-initializing the wrapped application's state on every node it
   reaches.  From an arbitrary initial configuration the BFS tree
   stabilizes in O(n) rounds and epoch inconsistencies are flushed by the
   flood, after which a reset costs O(D) rounds.  While a request burst
   drains, the leader may bump the epoch several times; each bump
   re-initializes idempotently, so only the convergence matters (the full
   three-phase handshake of [13] trades this slack for message economy).

   The application is any {!Protocol.S}; its [alarm] doubles as the reset
   request (exactly how the transformer turns the verifier's detection into
   a reconstruction). *)

module Make (App : Protocol.S) = struct
  type state = {
    bfs : Ss_bfs.P.state;
    epoch : int;
    request : bool;  (* a reset request travelling towards the leader *)
    app : App.state;
  }

  let init g v =
    { bfs = Ss_bfs.P.init g v; epoch = 0; request = false; app = App.init g v }

  let step g v (s : state) read =
    let bfs = Ss_bfs.P.step g v s.bfs (fun p -> (read p).bfs) in
    let is_leader = bfs.Ss_bfs.parent < 0 in
    (* requests: mine (app alarm) or bubbling up from BFS children *)
    let child_request =
      Graph.exists_ports g v (fun p _ ->
          let su = read p in
          su.bfs.Ss_bfs.parent = v && su.request)
    in
    let wants_reset = App.alarm s.app || child_request in
    if is_leader then begin
      (* the leader consumes requests by bumping the epoch *)
      let epoch = if wants_reset then s.epoch + 1 else s.epoch in
      let app =
        if wants_reset then App.init g v else App.step g v s.app (fun p -> (read p).app)
      in
      { bfs; epoch; request = false; app }
    end
    else begin
      let parent_epoch =
        if bfs.Ss_bfs.parent >= 0 then (read (Graph.port_to g v bfs.Ss_bfs.parent)).epoch
        else s.epoch
      in
      if parent_epoch <> s.epoch then
        (* a new epoch floods down: adopt it and restart the application *)
        { bfs; epoch = parent_epoch; request = false; app = App.init g v }
      else
        { bfs; epoch = s.epoch; request = wants_reset;
          app = App.step g v s.app (fun p -> (read p).app) }
    end

  let alarm _ = false (* alarms are consumed as reset requests *)

  let equal (a : state) (b : state) =
    a.epoch = b.epoch && a.request = b.request && Ss_bfs.P.equal a.bfs b.bfs
    && App.equal a.app b.app

  let bits g v s =
    Ss_bfs.P.bits g v s.bfs + Memory.of_nat s.epoch + 1 + App.bits g v s.app

  let corrupt st g v s =
    {
      s with
      bfs = Ss_bfs.P.corrupt st g v s.bfs;
      epoch = Random.State.int st 64;
      app = App.corrupt st g v s.app;
    }

  let corrupt_field st g v s =
    match Random.State.int st 3 with
    | 0 -> { s with epoch = Random.State.int st 64 }
    | 1 -> { s with bfs = Ss_bfs.P.corrupt_field st g v s.bfs }
    | _ -> { s with app = App.corrupt_field st g v s.app }

  let field_names =
    Array.append [| "bfs"; "epoch"; "request" |]
      (Array.map (fun f -> "app." ^ f) App.field_names)

  let encode s =
    Array.append
      [| Protocol.hash_field s.bfs; s.epoch; Bool.to_int s.request |]
      (App.encode s.app)

  let epoch s = s.epoch
  let app s = s.app
end
