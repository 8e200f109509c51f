open Ssmst_graph
open Ssmst_sim

(* Message passing over the shared-memory model (Section 2.2).

   The paper runs message-passing protocols (the Awerbuch-Varghese
   transformer, GHS) by emulating links with shared registers: the sender
   publishes (value, toggle) and waits for the receiver's acknowledgement,
   the toggle (mod 3) preventing duplication from arbitrary initial states —
   see {!Ssmst_protocols.Datalink}.  Sending a message costs O(1) ideal
   time, so message-passing time bounds carry over.

   This module provides the emulation as a {!Protocol.S} adapter: a
   message-passing protocol supplies per-node event handlers, and the
   adapter runs one datalink per direction per edge.  Queues make the
   emulation's memory proportional to the messages in flight; this layer is
   a substrate for non-stabilizing protocols (GHS, the transformer's inner
   algorithms), not itself a bounded-memory self-stabilizing protocol. *)

type 'm reaction = {
  sends : (int * 'm) list;  (** (port, message) to transmit *)
  defers : (int * 'm) list;  (** messages to re-deliver later, with ports *)
}

let nothing = { sends = []; defers = [] }
let send ps = { sends = ps; defers = [] }

module type MESSAGE_PROTOCOL = sig
  type state
  type message

  val init : Graph.t -> int -> state * (int * message) list
  (** Initial state and spontaneous sends, as [(port, message)] pairs. *)

  val on_message : Graph.t -> int -> state -> port:int -> message -> state * message reaction
  (** Handle one delivered message.  [defers] implements GHS's "place the
      message at the end of the queue": the message is re-delivered with its
      original port on a later activation. *)

  val message_bits : message -> int

  val state_bits : state -> int
end

module Emulate (M : MESSAGE_PROTOCOL) = struct
  (* one datalink per outgoing port: outbox + toggle, and an ack per
     incoming port *)
  type link = {
    outbox : M.message option;
    toggle : Ssmst_protocols.Datalink.toggle;
    queue : M.message list;  (* waiting to enter the outbox *)
  }

  type state = {
    inner : M.state;
    links : link array;  (* indexed by port *)
    acks : Ssmst_protocols.Datalink.toggle array;  (* last consumed, per port *)
    deferred : (int * M.message) list;  (* (port, msg) re-delivered later *)
    delivered : int;  (* messages consumed so far (diagnostics) *)
  }

  let fresh_link = { outbox = None; toggle = Ssmst_protocols.Datalink.T0; queue = [] }

  let enqueue links (port, msg) =
    links.(port) <- { (links.(port)) with queue = links.(port).queue @ [ msg ] }

  let init g v =
    let inner, sends = M.init g v in
    let links = Array.make (Graph.degree g v) fresh_link in
    List.iter (enqueue links) sends;
    {
      inner;
      links;
      acks = Array.make (Graph.degree g v) Ssmst_protocols.Datalink.T0;
      deferred = [];
      delivered = 0;
    }

  let step g v (s : state) read =
    let deg = Graph.degree g v in
    let links = Array.copy s.links in
    let acks = Array.copy s.acks in
    let inner = ref s.inner in
    let delivered = ref s.delivered in
    let new_defers = ref [] in
    let handle ~port msg =
      let inner', reaction = M.on_message g v !inner ~port msg in
      inner := inner';
      incr delivered;
      List.iter (enqueue links) reaction.sends;
      new_defers := !new_defers @ reaction.defers
    in
    (* 1. re-deliver deferred messages with their original ports; fresh
       deferrals accumulate for the *next* activation, so one activation
       cannot loop *)
    List.iter (fun (port, msg) -> handle ~port msg) s.deferred;
    (* 2. receive from every neighbour: consume its outbox toward us if the
       toggle moved *)
    for p = 0 to deg - 1 do
      let su = read p in
      let their_port = Graph.port_to g (Graph.peer_at g v p) v in
      let link = su.links.(their_port) in
      (match link.outbox with
      | Some m when link.toggle <> acks.(p) ->
          acks.(p) <- link.toggle;
          handle ~port:p m
      | Some _ | None -> ())
    done;
    (* 3. advance our outgoing links: retire acknowledged messages, publish
       the next queued one *)
    for p = 0 to deg - 1 do
      let su = read p in
      let their_port = Graph.port_to g (Graph.peer_at g v p) v in
      let their_ack = su.acks.(their_port) in
      let link = links.(p) in
      let link =
        match link.outbox with
        | Some _ when link.toggle <> their_ack -> link (* still in flight *)
        | _ -> (
            match link.queue with
            | [] -> { link with outbox = None }
            | m :: rest ->
                {
                  outbox = Some m;
                  toggle = Ssmst_protocols.Datalink.next link.toggle;
                  queue = rest;
                })
      in
      links.(p) <- link
    done;
    { inner = !inner; links; acks; deferred = !new_defers; delivered = !delivered }

  let alarm _ = false

  (* states are pure data (records, arrays, lists over M.state / M.message,
     which MESSAGE_PROTOCOL instantiations keep functional-value-free), so
     structural equality is register equality *)
  let equal (a : state) (b : state) = a = b

  let bits _g _v (s : state) =
    M.state_bits s.inner
    + Array.fold_left
        (fun acc l ->
          acc + 2
          + Memory.of_option M.message_bits l.outbox
          + Memory.of_list M.message_bits l.queue)
        0 s.links
    + (2 * Array.length s.acks)
    + Memory.of_list (fun (_, m) -> 4 + M.message_bits m) s.deferred

  let corrupt _ _ _ s = s (* the emulation hosts non-stabilizing protocols *)
  let corrupt_field _ _ _ s = s

  let field_names = [| "inner"; "links"; "acks"; "deferred"; "delivered" |]

  let encode (s : state) =
    [|
      Protocol.hash_field s.inner;
      Protocol.hash_field s.links;
      Protocol.hash_field s.acks;
      Protocol.hash_field s.deferred;
      s.delivered;
    |]

  (* no message queued, in flight, or deferred anywhere *)
  let quiescent_node (s : state) =
    s.deferred = []
    && Array.for_all (fun l -> l.outbox = None && l.queue = []) s.links

  let inner (s : state) = s.inner
end
