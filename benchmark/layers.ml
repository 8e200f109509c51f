(* The traced run's span accounting.  [Telemetry] keeps inclusive wall
   time per phase name; a layer's self time is its span minus the part its
   child spans cover, so this wraps the telemetry sink with a frame stack
   that charges every closed span's duration to its parent's child time.
   The spans come from two places: the probes the library already has
   (make.*, flat.*, transformer.*, campaign.trial) and the [bench.*] spans
   the workloads put around each public call they make. *)

type acc = { mutable calls : int; mutable total : float; mutable self : float }
type frame = { name : string; t0 : float; mutable child : float }

type t = {
  tel : Ssmst_obs.Telemetry.t;
  tbl : (string, acc) Hashtbl.t;
  mutable order_rev : string list;
  mutable stack : frame list;
}

let create () =
  { tel = Ssmst_obs.Telemetry.create (); tbl = Hashtbl.create 32; order_rev = []; stack = [] }

let acc t name =
  match Hashtbl.find_opt t.tbl name with
  | Some a -> a
  | None ->
      let a = { calls = 0; total = 0.; self = 0. } in
      Hashtbl.add t.tbl name a;
      t.order_rev <- name :: t.order_rev;
      a

let sink t =
  let base = Ssmst_obs.Telemetry.sink t.tel in
  let enter name =
    t.stack <- { name; t0 = Unix.gettimeofday (); child = 0. } :: t.stack;
    base.enter name
  in
  let leave name =
    base.leave name;
    match t.stack with
    | [] -> ()
    | f :: rest ->
        let d = Unix.gettimeofday () -. f.t0 in
        t.stack <- rest;
        (match rest with p :: _ -> p.child <- p.child +. d | [] -> ());
        let a = acc t f.name in
        a.calls <- a.calls + 1;
        a.total <- a.total +. d;
        a.self <- a.self +. (d -. f.child)
  in
  { base with enter; leave }

let install t = Ssmst_parallel.Probe.install (sink t)
let uninstall () = Ssmst_parallel.Probe.uninstall ()

(* Forget the accumulated spans (the set-up's), keeping the Chrome trace. *)
let reset t =
  Hashtbl.reset t.tbl;
  t.order_rev <- []

let find t name = Hashtbl.find_opt t.tbl name

let self t name = match find t name with Some a -> a.self | None -> 0.

(* Every span seen since the last [reset], in first-closed order. *)
let spans t = List.rev_map (fun name -> (name, Hashtbl.find t.tbl name)) t.order_rev

let chrome_trace t = Ssmst_obs.Telemetry.to_chrome_trace t.tel
