(* [compare A/ B/]: the parent-vs-change rules for one commit pair.  Each
   side is a directory of row files ([*.jsonl], one row per metric, as
   [run --out] writes them); a (workload, metric) needs at least
   [min_sets] values per side.

   For every end-to-end metric of BENCHMARK.json the verdict is
   REGRESSION when B's median is worse than A's by more than the metric's
   bound, UNRESOLVED when either side's spread (IQR / median) is wider
   than the bound — unless every B run reads better than every A run —
   and GAIN only for a move in the good direction that wins at least 9
   of every 10 seed-matched pairs (at least [min_pairs] of them) by a
   median gap above A's IQR.  Per-layer metrics get the GAIN test only. *)

module J = Ssmst_obs.Json_lite

let min_sets = 5
let min_pairs = 10

type row = { workload : string; metric : string; value : float; unit : string; seed : int }

let read_lines path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc = match input_line ic with l -> go (l :: acc) | exception End_of_file -> List.rev acc in
  go []

let row_of_line line =
  let j = J.parse line in
  let str k = Option.value ~default:"" (J.str_opt (J.mem k j)) in
  let num k = J.num_opt (J.mem k j) in
  match (num "value", num "seed") with
  | Some value, Some seed ->
      Some { workload = str "workload"; metric = str "metric"; value; unit = str "unit"; seed = int_of_float seed }
  | _ -> None

let read_side dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".jsonl")
  |> List.sort String.compare
  |> List.concat_map (fun f ->
         read_lines (Filename.concat dir f)
         |> List.filter (fun l -> String.trim l <> "")
         |> List.filter_map row_of_line)

(* name -> (better is lower, bound for end-to-end metrics) *)
let read_spec path =
  let j = J.parse (String.concat "\n" (read_lines path)) in
  let entries key =
    List.filter_map
      (fun e ->
        match J.str_opt (J.mem "name" e) with
        | None -> None
        | Some name ->
            let lower = J.str_opt (J.mem "better" e) <> Some "higher" in
            Some (name, (lower, J.num_opt (J.mem "bound" e))))
      (J.arr (J.mem key j))
  in
  entries "end_to_end" @ entries "per_layer"

let values rows key = List.filter (fun r -> (r.workload, r.metric) = key) rows

(* Seed-matched pairs, in row order within a seed. *)
let pairs a b =
  let seeds = List.sort_uniq Int.compare (List.map (fun r -> r.seed) a) in
  List.concat_map
    (fun s ->
      let pick side = List.filter_map (fun r -> if r.seed = s then Some r.value else None) side in
      let rec zip xs ys = match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> [] in
      zip (pick a) (pick b))
    seeds

let run ~spec a_dir b_dir =
  let spec = read_spec spec in
  let a = read_side a_dir and b = read_side b_dir in
  let keys =
    List.fold_left
      (fun acc r -> if List.mem (r.workload, r.metric) acc then acc else (r.workload, r.metric) :: acc)
      [] (a @ b)
    |> List.rev
  in
  Printf.printf "%-20s %-32s %-9s %-36s %-36s %8s  %s\n" "workload" "metric" "unit"
    "A median [q1, q3] (n)" "B median [q1, q3] (n)" "change" "verdict";
  let status = ref 0 in
  List.iter
    (fun key ->
      let ra = values a key and rb = values b key in
      let va = List.map (fun r -> r.value) ra and vb = List.map (fun r -> r.value) rb in
      let unit = match ra @ rb with r :: _ -> r.unit | [] -> "" in
      let side vs =
        Printf.sprintf "%.6g [%.6g, %.6g] (%d)" (Stats.median vs) (Stats.q1 vs) (Stats.q3 vs)
          (List.length vs)
      in
      let ma = Stats.median va and mb = Stats.median vb in
      let change = if ma = mb then 0. else (mb -. ma) /. Float.abs ma in
      let spread vs = let md = Stats.median vs in if md = 0. then 0. else (Stats.q3 vs -. Stats.q1 vs) /. Float.abs md in
      let verdict =
        if List.length va < min_sets || List.length vb < min_sets then begin
          status := max !status 2;
          Printf.sprintf "too few sets (need %d per side)" min_sets
        end
        else
          match List.assoc_opt (snd key) spec with
          | None -> "-"
          | Some (lower, bound) ->
              let better x y = if lower then x < y else x > y in
              let worse = if lower then change else -.change in
              let ps = pairs ra rb in
              let wins = List.length (List.filter (fun (x, y) -> better y x) ps) in
              let gain =
                List.length ps >= min_pairs
                && 10 * wins >= 9 * List.length ps
                && worse < 0.
                && Float.abs (mb -. ma) > Stats.q3 va -. Stats.q1 va
              in
              let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb in
              match bound with
              | None -> if gain then "GAIN" else "-"
              | Some bound ->
                  if Float.max (spread va) (spread vb) > bound then
                    if all_better then "better (every B run beats every A run)"
                    else begin
                      status := max !status 1;
                      Printf.sprintf "UNRESOLVED (spread > bound %.0f%%)" (100. *. bound)
                    end
                  else if worse > bound then begin
                    status := max !status 1;
                    Printf.sprintf "REGRESSION (bound %.0f%%)" (100. *. bound)
                  end
                  else if gain then Printf.sprintf "GAIN (%d/%d pairs)" wins (List.length ps)
                  else "ok"
      in
      Printf.printf "%-20s %-32s %-9s %-36s %-36s %+7.1f%%  %s\n" (fst key) (snd key) unit (side va)
        (side vb) (100. *. change) verdict)
    keys;
  !status
