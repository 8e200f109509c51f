open Ssmst_graph

(* The Section 5 label strings and their local verification.

   Each node carries four strings of ell+1 entries (ell = hierarchy height):

   - [roots]: '1' / '0' / '*' — whether the node is the root of its level-j
     fragment, a non-root member, or belongs to no level-j fragment;
   - [endp]: up / down / none / '*' — whether the node is the endpoint of
     the candidate edge of its level-j fragment, and if so whether that edge
     leads to its tree parent or to one of its tree children;
   - [parents]: bit j set iff the edge from the node's tree parent y down to
     the node is the candidate of y's level-j fragment (this is where "down"
     pointers are stored, to keep y's label at O(log n) bits);
   - [cnt]: the number (capped at 2) of candidate endpoints in the node's
     subtree *within* its level-j fragment — the counting companion of
     Example NumK used to verify condition EPS1 ("Or-EndP" in Table 2 is
     its OR projection).

   Legality is conditions RS0-RS5 and EPS0-EPS5, each checkable by a node
   reading only its own label and its tree neighbours' labels (a 1-proof
   labeling scheme, Lemma 5.2). *)

type rsym = R1 | R0 | RStar
type esym = Up | Down | ENone | EStar

type t = {
  len : int;  (* ell + 1 entries, levels 0..ell *)
  roots : rsym array;
  endp : esym array;
  parents : bool array;
  cnt : int array;  (* 0, 1 or 2 ("2" = two or more) *)
}

let bits (l : t) =
  (* 2 bits per roots/endp entry, 1 per parents bit, 2 per cnt entry *)
  Ssmst_sim.Memory.of_nat l.len + (l.len * 7)

let pp_rsym ppf = function
  | R1 -> Fmt.string ppf "1"
  | R0 -> Fmt.string ppf "0"
  | RStar -> Fmt.string ppf "*"

let pp_esym ppf = function
  | Up -> Fmt.string ppf "up"
  | Down -> Fmt.string ppf "down"
  | ENone -> Fmt.string ppf "none"
  | EStar -> Fmt.string ppf "*"

(* ------------------------------------------------------------------ *)
(* Marker (Lemma 5.4): derive the strings from the hierarchy.  The
   distributed implementation piggybacks on SYNC_MST (the actions only write
   fresh O(log n)-bit variables); its cost is accounted in Marker. *)

let of_hierarchy (h : Fragment.hierarchy) =
  let tree = h.tree in
  let n = Tree.n tree in
  let len = h.height + 1 in
  let labels =
    Array.init n (fun _ ->
        {
          len;
          roots = Array.make len RStar;
          endp = Array.make len EStar;
          parents = Array.make len false;
          cnt = Array.make len 0;
        })
  in
  Array.iter
    (fun (f : Fragment.t) ->
      let j = f.level in
      Array.iter
        (fun v ->
          labels.(v).roots.(j) <- (if f.root = v then R1 else R0);
          labels.(v).endp.(j) <- ENone)
        f.members;
      match f.candidate with
      | None -> ()
      | Some (w, x) ->
          (if Tree.parent tree w = Some x then labels.(w).endp.(j) <- Up
           else begin
             labels.(w).endp.(j) <- Down;
             labels.(x).parents.(j) <- true
           end))
    h.frags;
  (* cnt: bottom-up within each fragment *)
  Array.iter
    (fun (f : Fragment.t) ->
      let j = f.level in
      let rec count v =
        let own = match labels.(v).endp.(j) with Up | Down -> 1 | ENone | EStar -> 0 in
        let from_children =
          List.fold_left
            (fun acc c -> if labels.(c).roots.(j) = R0 then acc + count c else acc)
            0 (Tree.children tree v)
        in
        let total = min 2 (own + from_children) in
        labels.(v).cnt.(j) <- total;
        total
      in
      ignore (count f.root))
    h.frags;
  labels

(* ------------------------------------------------------------------ *)
(* Verifier: conditions RS0-RS5 and EPS0-EPS5.

   The checks run at a node given its own label and the labels of its
   *claimed* tree parent and children (the claims themselves are certified
   by the Example SP scheme, see Verifier).  [check] streams the name of
   every violated condition into [fail], in a fixed order; it allocates
   nothing, so the verifier's activation can run it with a sink that stops
   at the first violation. *)

(* monomorphic membership tests: [Array.mem] compares polymorphically *)
let rec has_rsym (x : rsym) a i = i < Array.length a && (a.(i) = x || has_rsym x a (i + 1))
let rec has_esym (x : esym) a i = i < Array.length a && (a.(i) = x || has_esym x a (i + 1))
let rec has_true a i = i < Array.length a && (a.(i) || has_true a (i + 1))

let check fail (l : t) ~(parent : t option) ~(children : t array) ~is_root =
  let ell = l.len - 1 in
  (* RS1: all strings across the tree have the same length; locally: same
     as the parent's length (the root anchors it against a certified n) *)
  (match parent with Some lp -> if lp.len <> l.len then fail "RS1" | None -> ());
  (* RS0: roots is a prefix over {1,*} followed by a suffix over {0,*} *)
  let seen_zero = ref false in
  for j = 0 to Array.length l.roots - 1 do
    match l.roots.(j) with
    | R0 -> seen_zero := true
    | R1 -> if !seen_zero then fail "RS0"
    | RStar -> ()
  done;
  (* RS2: the root of T has no '0' and its ell'th entry is '1' *)
  if is_root then begin
    if has_rsym R0 l.roots 0 then fail "RS2";
    if l.roots.(ell) <> R1 then fail "RS2"
  end;
  (* RS3: entry 0 is '1' *)
  if l.roots.(0) <> R1 then fail "RS3";
  (* RS4: the ell'th entry of every non-root is '0' *)
  if (not is_root) && l.roots.(ell) <> R0 then fail "RS4";
  (* RS5: a '0' at level j forces the parent's entry j to not be '*' *)
  (match parent with
  | Some lp when lp.len = l.len ->
      for j = 0 to Array.length l.roots - 1 do
        if l.roots.(j) = R0 && lp.roots.(j) = RStar then fail "RS5"
      done
  | Some _ | None -> ());
  (* EPS0: parents bit j set implies the parent's endp at j is "down" *)
  (match parent with
  | Some lp ->
      if lp.len = l.len then
        for j = 0 to Array.length l.parents - 1 do
          if l.parents.(j) && lp.endp.(j) <> Down then fail "EPS0"
        done
  | None -> if has_true l.parents 0 then fail "EPS0");
  (* EPS2: endp "down" at j implies exactly one child has parents bit j *)
  for j = 0 to Array.length l.endp - 1 do
    if l.endp.(j) = Down then begin
      let marked = ref 0 in
      for c = 0 to Array.length children - 1 do
        let lc = children.(c) in
        if lc.len = l.len && lc.parents.(j) then incr marked
      done;
      if !marked <> 1 then fail "EPS2"
    end
  done;
  (* consistency of endp/roots stars *)
  for j = 0 to Array.length l.endp - 1 do
    if (l.endp.(j) = EStar) <> (l.roots.(j) = RStar) then fail "EPS-star"
  done;
  (* EPS3: endp "up" at j: roots_j = '1' and no '1' above j *)
  for j = 0 to Array.length l.endp - 1 do
    if l.endp.(j) = Up then begin
      if l.roots.(j) <> R1 then fail "EPS3";
      for i = j + 1 to ell do
        if l.roots.(i) = R1 then fail "EPS3"
      done;
      (* an "up" endpoint must actually have a tree parent *)
      if Option.is_none parent then fail "EPS3"
    end
  done;
  (* EPS4: parents bit j: roots_j <> '0' and no '1' above j *)
  for j = 0 to Array.length l.parents - 1 do
    if l.parents.(j) then begin
      if l.roots.(j) = R0 then fail "EPS4";
      for i = j + 1 to ell do
        if l.roots.(i) = R1 then fail "EPS4"
      done
    end
  done;
  (* EPS5: every non-root has some "up" endp or some parents bit *)
  if (not is_root) && not (has_esym Up l.endp 0 || has_true l.parents 0) then fail "EPS5";
  (* EPS1 via counting: cnt consistency at v, and cnt = 1 at every fragment
     root below the top level (cnt = 0 for T's root at level ell) *)
  for j = 0 to Array.length l.cnt - 1 do
    if l.roots.(j) <> RStar then begin
      let own = match l.endp.(j) with Up | Down -> 1 | ENone | EStar -> 0 in
      let from_children = ref 0 in
      for c = 0 to Array.length children - 1 do
        let lc = children.(c) in
        if lc.len = l.len && lc.roots.(j) = R0 then from_children := !from_children + lc.cnt.(j)
      done;
      if l.cnt.(j) <> min 2 (own + !from_children) then fail "EPS1-sum";
      if l.roots.(j) = R1 then begin
        let expected = if j = ell then 0 else 1 in
        if l.cnt.(j) <> expected then fail "EPS1-root"
      end
    end
    else if l.cnt.(j) <> 0 then fail "EPS1-star"
  done

let check_node l ~parent ~children ~is_root =
  let bad = ref [] in
  check (fun name -> bad := name :: !bad) l ~parent ~children ~is_root;
  List.rev !bad

(* A trusted tree's view of the labels, for tests and tools that check
   every node at once. *)
type view = {
  label : int -> t;  (* label of a node *)
  parent : int -> int option;  (* claimed tree parent *)
  children : int -> int list;  (* claimed tree children *)
  is_root : int -> bool;  (* claimed to be the root of T *)
}

let check_view (vw : view) v =
  check_node (vw.label v)
    ~parent:(Option.map vw.label (vw.parent v))
    ~children:(Array.of_list (List.map vw.label (vw.children v)))
    ~is_root:(vw.is_root v)

(* Convenience: run the checks at every node; returns per-node violation
   lists (non-empty lists mean alarms). *)
let check_all (vw : view) n = List.init n (check_view vw)

let view_of_tree (tree : Tree.t) labels =
  {
    label = (fun v -> labels.(v));
    parent = (fun v -> Tree.parent tree v);
    children = (fun v -> Tree.children tree v);
    is_root = (fun v -> v = Tree.root tree);
  }

(* ------------------------------------------------------------------ *)
(* Queries used by the rest of the scheme (Lemma 5.2's "knows" items). *)

let belongs l j = j < l.len && l.roots.(j) <> RStar
let is_frag_root l j = j < l.len && l.roots.(j) = R1

(* Whether v is an endpoint of its level-j candidate, and through which
   tree edge; [`Down c] names the child found via the children's parents
   bits. *)
let candidate_edge (vw : view) v j =
  let l = vw.label v in
  if j >= l.len then None
  else
    match l.endp.(j) with
    | Up -> Option.map (fun p -> `Up p) (vw.parent v)
    | Down ->
        List.find_opt
          (fun c ->
            let lc = vw.label c in
            lc.len = l.len && lc.parents.(j))
          (vw.children v)
        |> Option.map (fun c -> `Down c)
    | ENone | EStar -> None

(* Whether [node] shares its tree parent's level-j fragment, decidable from
   its own label alone (Section 5.2): it does iff its roots entry is '0'. *)
let same_fragment_as_parent (vw : view) ~node j =
  let l = vw.label node in
  j < l.len && l.roots.(j) = R0
