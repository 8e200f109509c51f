(* Wave&Echo (PIF) over a rooted forest (Section 2.3).

   The wave starts at a root, propagates a command down the tree, and echoes
   aggregated results back up.  This module provides the *semantics plus
   exact ideal-time accounting*: the result any distributed Wave&Echo
   computes, together with the number of rounds it takes (2h for a wave and
   echo over a subtree of height h, h+1 for a one-way wave).

   The forest is given by a children function, so this works for whole
   trees, fragments of a forest during SYNC_MST, and parts of a partition
   alike.  An optional [ttl] truncates the wave, as in Procedure Count_Size
   (Section 4.2): nodes deeper than [ttl] are not visited. *)

type 'a t = {
  value : 'a;  (** aggregate computed at the root *)
  rounds : int;  (** ideal time of the wave + echo *)
  visited : int list;  (** nodes reached by the wave, in preorder *)
  truncated : bool;  (** whether [ttl] cut the wave before covering all *)
}

let run ~children ?ttl ~leaf ~combine root =
  let visited = ref [] in
  let truncated = ref false in
  let depth_reached = ref 0 in
  let rec go v d =
    visited := v :: !visited;
    if d > !depth_reached then depth_reached := d;
    let stop =
      match ttl with
      | Some limit -> d >= limit
      | None -> false
    in
    let cs = children v in
    if stop then begin
      if cs <> [] then truncated := true;
      leaf v
    end
    else combine v (List.map (fun c -> go c (d + 1)) cs)
  in
  let value = go root 0 in
  {
    value;
    rounds = 2 * !depth_reached;
    visited = List.rev !visited;
    truncated = !truncated;
  }

(* Common commands carried by waves in the paper. *)

let count ~children ?ttl root =
  run ~children ?ttl ~leaf:(fun _ -> 1)
    ~combine:(fun _ xs -> List.fold_left ( + ) 1 xs)
    root

let sum ~children ?ttl ~value root =
  run ~children ?ttl ~leaf:value
    ~combine:(fun v xs -> List.fold_left ( + ) (value v) xs)
    root

let logical_or ~children ?ttl ~value root =
  run ~children ?ttl ~leaf:value
    ~combine:(fun v xs -> List.fold_left ( || ) (value v) xs)
    root

(* Minimum by a comparison, with per-node candidates; [None] candidates are
   skipped.  Used for Find_Min_Out_Edge. *)
let minimum ~children ?ttl ~candidate ~compare root =
  let better a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some a', Some b' -> if compare a' b' <= 0 then a else b
  in
  run ~children ?ttl ~leaf:candidate
    ~combine:(fun v xs -> List.fold_left better (candidate v) xs)
    root
