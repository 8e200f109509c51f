(* Composite edge weights with the lexicographic distinction transform of
   Kor-Korman-Peleg [53], as recalled in footnote 1 of the paper.

   An edge weight is compared first by its base weight, then by [1 - Y] where
   [Y] indicates membership in the candidate tree (so tree edges win ties),
   and finally by the endpoint identifiers.  Under this order every weight is
   distinct, and the candidate subgraph T is an MST under the base weights iff
   it is an MST under the transformed weights. *)

type t = {
  base : int;  (** the original weight ω(e) *)
  anti_tree : int;  (** 1 - Y, where Y = 1 iff the edge is in the candidate tree *)
  id_min : int;  (** min of the endpoint identifiers *)
  id_max : int;  (** max of the endpoint identifiers *)
}

let compare (a : t) (b : t) =
  let c = Int.compare a.base b.base in
  if c <> 0 then c
  else
    let c = Int.compare a.anti_tree b.anti_tree in
    if c <> 0 then c
    else
      let c = Int.compare a.id_min b.id_min in
      if c <> 0 then c else Int.compare a.id_max b.id_max

let equal a b = compare a b = 0
let ( < ) a b = compare a b < 0
let ( <= ) a b = compare a b <= 0

let make ~base ~in_tree ~id_u ~id_v =
  {
    base;
    anti_tree = (if in_tree then 0 else 1);
    id_min = min id_u id_v;
    id_max = max id_u id_v;
  }

(* [compare a (make ~base ~in_tree ~id_u ~id_v)], field by field, without
   building the right-hand side: the verifier compares a claimed weight
   against an edge's ω′ for every port it checks. *)
let compare_edge (a : t) ~base ~in_tree ~id_u ~id_v =
  let c = Int.compare a.base base in
  if c <> 0 then c
  else
    let c = Int.compare a.anti_tree (if in_tree then 0 else 1) in
    if c <> 0 then c
    else
      let c = Int.compare a.id_min (min id_u id_v) in
      if c <> 0 then c else Int.compare a.id_max (max id_u id_v)

(* A weight strictly larger than any weight built from the given bounds; used
   as the identity for minimum computations. *)
let infinity = { base = max_int; anti_tree = max_int; id_min = max_int; id_max = max_int }

let is_infinity w = compare w infinity = 0

let pp ppf w =
  if is_infinity w then Fmt.string ppf "inf"
  else Fmt.pf ppf "%d.%d.%d.%d" w.base w.anti_tree w.id_min w.id_max

let to_string w = Fmt.str "%a" pp w

(* The bit length of a non-negative integer (1 for 0 and below): a byte
   table read after one to three compares for values below 2^24, then
   one byte per step.  It runs on every register write, so it stays in
   integer arithmetic; it equals the float formula 1 + floor(log2 x) on
   every value below 2^48 - 1. *)
let byte_bits =
  String.init 256 (fun i ->
      let rec len n x = if x = 0 then n else len (n + 1) (x lsr 1) in
      Char.chr (max 1 (len 0 i)))

let bit_length x =
  if Stdlib.( <= ) x 0 then 1
  else if Stdlib.( < ) x 0x100 then Char.code byte_bits.[x]
  else if Stdlib.( < ) x 0x10000 then 8 + Char.code byte_bits.[x lsr 8]
  else if Stdlib.( < ) x 0x1000000 then 16 + Char.code byte_bits.[x lsr 16]
  else begin
    let n = ref 24 and y = ref (x lsr 24) in
    while !y >= 0x100 do
      n := !n + 8;
      y := !y lsr 8
    done;
    !n + Char.code byte_bits.[!y]
  end

(* Number of bits needed to store a weight: the paper assumes weights
   polynomial in n, i.e. O(log n) bits; we account for the actual value. *)
let bits w = bit_length w.base + 1 + bit_length w.id_min + bit_length w.id_max
