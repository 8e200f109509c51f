(* The phase profiler (see the interface).  A calling-context tree of
   [phase] nodes, a stack of open frames into it, and a bounded event
   buffer for the Chrome trace.  Everything here is main-domain state; the
   worker-side protocol is "stamp with the clock, hand the floats back"
   (see Domain_pool.run). *)

(* All-float on purpose: a flat (unboxed-field) record keeps the
   per-sample allocation to one small block on the hot probe path. *)
type gc_sample = {
  minor_words : float;
  major_words : float;
  minor_collections : float;
  major_collections : float;
}

type phase = {
  name : string;
  mutable calls : int;
  mutable wall_s : float;
  mutable minor_words : float;
  mutable major_words : float;
  mutable minor_collections : float;
  mutable major_collections : float;
  mutable rounds : int;
  mutable activations : int;
  mutable writes : int;
  mutable peak_bits : int;
  mutable children_rev : phase list;
}

type frame = { node : phase; t0 : float; g0 : gc_sample }
type event = { ename : string; tid : int; ts : float; dur : float }

type t = {
  clock : unit -> float;
  gc : unit -> gc_sample;
  root : phase;
  mutable stack : frame list;  (* innermost open frame first; never the root *)
  mutable events_rev : event list;
  mutable n_events : int;
  max_events : int;
  mutable dropped : int;
  t_start : float;
  mutable t_last : float;
}

(* The live sampler has a cost budget of its own: [Gc.quick_stat] is
   ~1.2 us a call on OCaml 5 — six of those per engine round is exactly
   the overhead the PROF gate forbids.  Words are read from the exact
   ~30 ns counters ([Gc.minor_words], [Gc.counters]); collection counts
   exist only in [quick_stat], so they are served from a cache that is
   refreshed once at least half a minor heap has been allocated since the
   last refresh — before that point no un-forced minor collection can
   have happened, so the cached counts are still exact.  (A [quick_stat]
   caveat survives on OCaml 5: its own minor_words field lags between
   collections, which is why the counters are read separately.) *)
let make_live_gc () =
  let heap_half = float_of_int (Gc.get ()).Gc.minor_heap_size /. 2. in
  let cached = ref (Gc.quick_stat ()) in
  let cached_at = ref (Gc.minor_words ()) in
  fun () ->
    let mw = Gc.minor_words () in
    if mw -. !cached_at >= heap_half then begin
      cached := Gc.quick_stat ();
      cached_at := mw
    end;
    let _, _, major = Gc.counters () in
    {
      minor_words = mw;
      major_words = major;
      minor_collections = float_of_int !cached.Gc.minor_collections;
      major_collections = float_of_int !cached.Gc.major_collections;
    }

let zero_gc =
  { minor_words = 0.; major_words = 0.; minor_collections = 0.; major_collections = 0. }

let node name =
  {
    name;
    calls = 0;
    wall_s = 0.;
    minor_words = 0.;
    major_words = 0.;
    minor_collections = 0.;
    major_collections = 0.;
    rounds = 0;
    activations = 0;
    writes = 0;
    peak_bits = 0;
    children_rev = [];
  }

let create ?(clock = Unix.gettimeofday) ?gc ?(max_events = 200_000) () =
  let gc = match gc with Some g -> g | None -> make_live_gc () in
  let t0 = clock () in
  let root = node "run" in
  root.calls <- 1;
  {
    clock;
    gc;
    root;
    stack = [];
    events_rev = [];
    n_events = 0;
    max_events;
    dropped = 0;
    t_start = t0;
    t_last = t0;
  }

let fake () =
  (* 1 ms per reading: big enough that %.6f-second renderings are exact,
     monotone, and independent of the machine.  Single-domain only — the
     counter is unsynchronised on purpose (workers never tick it in the
     -d 1 runs the determinism tests pin). *)
  let ticks = ref 0 in
  let clock () =
    incr ticks;
    float_of_int !ticks *. 1e-3
  in
  create ~clock ~gc:(fun () -> zero_gc) ()

let touch t now = if now > t.t_last then t.t_last <- now
let top t = match t.stack with f :: _ -> f.node | [] -> t.root

(* The [name] child of [parent], created on first use: same-name siblings
   share a node.  Probe names are mostly literals, so [String.equal]'s
   physical-equality check usually answers at once. *)
let child parent name =
  let rec find = function
    | c :: rest -> if String.equal c.name name then c else find rest
    | [] ->
        let c = node name in
        parent.children_rev <- c :: parent.children_rev;
        c
  in
  find parent.children_rev

let record_event t ename tid ts dur =
  if t.n_events >= t.max_events then t.dropped <- t.dropped + 1
  else begin
    t.events_rev <- { ename; tid; ts; dur } :: t.events_rev;
    t.n_events <- t.n_events + 1
  end

let enter t name =
  let node = child (top t) name in
  t.stack <- { node; t0 = t.clock (); g0 = t.gc () } :: t.stack

let leave t _name =
  match t.stack with
  | [] -> ()
  | f :: rest ->
      t.stack <- rest;
      let now = t.clock () and g1 = t.gc () in
      touch t now;
      let p = f.node in
      p.calls <- p.calls + 1;
      p.wall_s <- p.wall_s +. (now -. f.t0);
      p.minor_words <- p.minor_words +. (g1.minor_words -. f.g0.minor_words);
      p.major_words <- p.major_words +. (g1.major_words -. f.g0.major_words);
      p.minor_collections <- p.minor_collections +. (g1.minor_collections -. f.g0.minor_collections);
      p.major_collections <- p.major_collections +. (g1.major_collections -. f.g0.major_collections);
      record_event t p.name 0 (f.t0 -. t.t_start) (now -. f.t0)

let add_logical p ~rounds ~activations ~writes ~peak_bits =
  p.rounds <- p.rounds + rounds;
  p.activations <- p.activations + activations;
  p.writes <- p.writes + writes;
  p.peak_bits <- max p.peak_bits peak_bits

let charge t ~rounds ~activations ~writes ~peak_bits =
  add_logical t.root ~rounds ~activations ~writes ~peak_bits;
  List.iter (fun f -> add_logical f.node ~rounds ~activations ~writes ~peak_bits) t.stack

let span t ~tid name t0 t1 =
  touch t t1;
  let p = child (top t) (Printf.sprintf "%s.d%d" name tid) in
  p.calls <- p.calls + 1;
  p.wall_s <- p.wall_s +. (t1 -. t0);
  record_event t name tid (t0 -. t.t_start) (t1 -. t0)

let sink t =
  {
    Ssmst_parallel.Probe.now = t.clock;
    enter = enter t;
    leave = leave t;
    span = (fun ~tid name t0 t1 -> span t ~tid name t0 t1);
    charge = charge t;
  }

let install t = Ssmst_parallel.Probe.install (sink t)
let uninstall () = Ssmst_parallel.Probe.uninstall ()

let metered name (m : Ssmst_sim.Metrics.t) f =
  match Ssmst_parallel.Probe.get () with
  | None -> f ()
  | Some s ->
      let r0 = m.rounds and a0 = m.activations and w0 = m.register_writes in
      let close () =
        s.charge ~rounds:(m.rounds - r0) ~activations:(m.activations - a0)
          ~writes:(m.register_writes - w0) ~peak_bits:m.peak_bits;
        s.leave name
      in
      s.enter name;
      (match f () with
      | v ->
          close ();
          v
      | exception e ->
          close ();
          raise e)

(* ---------------- the tree ---------------- *)

let root t = t.root
let children p = List.rev p.children_rev

let depth_first p =
  let rec go acc depth p =
    List.fold_left (fun acc c -> go acc (depth + 1) c) ((depth, p) :: acc) (children p)
  in
  List.rev (go [] 0 p)

let phases t =
  let tbl = Hashtbl.create 32 and order_rev = ref [] in
  let rec fold p =
    List.iter fold (children p);
    match Hashtbl.find_opt tbl p.name with
    | None ->
        Hashtbl.add tbl p.name { p with children_rev = [] };
        order_rev := p.name :: !order_rev
    | Some q ->
        q.calls <- q.calls + p.calls;
        q.wall_s <- q.wall_s +. p.wall_s;
        q.minor_words <- q.minor_words +. p.minor_words;
        q.major_words <- q.major_words +. p.major_words;
        q.minor_collections <- q.minor_collections +. p.minor_collections;
        q.major_collections <- q.major_collections +. p.major_collections;
        add_logical q ~rounds:p.rounds ~activations:p.activations ~writes:p.writes
          ~peak_bits:p.peak_bits
  in
  List.iter fold (children t.root);
  List.rev_map (Hashtbl.find tbl) !order_rev

let total_wall_s t = t.t_last -. t.t_start
let dropped_events t = t.dropped

let pct t p =
  let total = total_wall_s t in
  if total <= 0. then 0. else 100. *. p.wall_s /. total

(* ---------------- renderings ---------------- *)

let to_markdown t =
  let b = Buffer.create 1024 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string b (s ^ "\n")) fmt in
  out
    "| phase | calls | wall s | %% | minor words | major words | minor gcs | major gcs | rounds \
     | activations | writes | peak bits |";
  out "|---|---|---|---|---|---|---|---|---|---|---|---|";
  List.iter
    (fun p ->
      out "| %s | %d | %.6f | %.1f | %.0f | %.0f | %.0f | %.0f | %d | %d | %d | %d |" p.name p.calls
        p.wall_s (pct t p) p.minor_words p.major_words p.minor_collections p.major_collections
        p.rounds p.activations p.writes p.peak_bits)
    (phases t);
  out "";
  out "total wall: %.6f s; dropped trace events: %d" (total_wall_s t) t.dropped;
  Buffer.contents b

let to_csv t =
  let b = Buffer.create 1024 in
  Buffer.add_string b
    "phase,calls,wall_s,pct,minor_words,major_words,minor_collections,major_collections,rounds,\
     activations,writes,peak_bits\n";
  List.iter
    (fun p ->
      Buffer.add_string b
        (Printf.sprintf "%s,%d,%.6f,%.1f,%.0f,%.0f,%.0f,%.0f,%d,%d,%d,%d\n"
           (Ssmst_sim.Trace.csv_escape p.name) p.calls p.wall_s (pct t p) p.minor_words
           p.major_words p.minor_collections p.major_collections p.rounds p.activations p.writes
           p.peak_bits))
    (phases t);
  Buffer.contents b

let to_json t =
  let phase_json p =
    Printf.sprintf
      {|{"name":"%s","calls":%d,"wall_s":%.6f,"pct":%.1f,"minor_words":%.0f,"major_words":%.0f,"minor_collections":%.0f,"major_collections":%.0f,"rounds":%d,"activations":%d,"writes":%d,"peak_bits":%d}|}
      (Ssmst_sim.Trace.json_escape p.name)
      p.calls p.wall_s (pct t p) p.minor_words p.major_words p.minor_collections
      p.major_collections p.rounds p.activations p.writes p.peak_bits
  in
  Printf.sprintf {|{"total_wall_s":%.6f,"dropped_events":%d,"phases":[%s]}|} (total_wall_s t)
    t.dropped
    (String.concat "," (List.map phase_json (phases t)))

let to_chrome_trace t =
  (* complete events ("ph":"X"), microsecond timestamps relative to the
     profiler's birth; one track (tid) per worker domain, main-domain
     phases on track 0.  Loadable as-is in chrome://tracing / Perfetto. *)
  let ev e =
    Printf.sprintf
      {|{"name":"%s","cat":"msst","ph":"X","ts":%.3f,"dur":%.3f,"pid":0,"tid":%d}|}
      (Ssmst_sim.Trace.json_escape e.ename)
      (1e6 *. e.ts) (1e6 *. e.dur) e.tid
  in
  Printf.sprintf {|{"traceEvents":[%s],"displayTimeUnit":"ms","otherData":{"dropped":%d}}|}
    (String.concat "," (List.rev_map ev t.events_rev))
    t.dropped
