(* Hop distances (BFS), eccentricities and diameter.  Used for detection
   distance measurements and partition diameter checks. *)

let bfs (g : Graph.t) src =
  let n = Graph.n g in
  let d = Array.make n (-1) in
  let q = Queue.create () in
  d.(src) <- 0;
  Queue.add src q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_ports g u (fun _ v ->
        if d.(v) < 0 then begin
          d.(v) <- d.(u) + 1;
          Queue.add v q
        end)
  done;
  d

(* BFS restricted to a node subset; distances within the induced subgraph. *)
let bfs_within (g : Graph.t) ~member src =
  let n = Graph.n g in
  let d = Array.make n (-1) in
  let q = Queue.create () in
  if member src then begin
    d.(src) <- 0;
    Queue.add src q
  end;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    Graph.iter_ports g u (fun _ v ->
        if member v && d.(v) < 0 then begin
          d.(v) <- d.(u) + 1;
          Queue.add v q
        end)
  done;
  d

let eccentricity g v = Array.fold_left max 0 (bfs g v)

let diameter g =
  let d = ref 0 in
  for v = 0 to Graph.n g - 1 do
    let e = eccentricity g v in
    if e > !d then d := e
  done;
  !d

(* The paper's detection distance (Section 2.4): the worst, over the
   faults, of the hop distance to the *closest* alarming node.  Alarms in a
   different component than a fault are skipped; a fault no alarming node
   can be charged to (nothing reachable raised an alarm) makes the whole
   measurement [None] — reporting a finite distance there would silently
   understate the containment claim. *)
let detection_distance g ~faults ~alarms =
  match alarms with
  | [] -> None
  | _ ->
      let rec worst_over acc = function
        | [] -> Some acc
        | f :: rest ->
            let d = bfs g f in
            let closest =
              List.fold_left
                (fun best a -> if d.(a) >= 0 then min best d.(a) else best)
                max_int alarms
            in
            if closest = max_int then None else worst_over (max acc closest) rest
      in
      worst_over 0 faults
