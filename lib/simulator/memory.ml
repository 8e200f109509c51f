(* Bit accounting for per-node state.  The paper's memory-size measure
   (Section 2.4) counts the bits stored at a node: identity, marker label and
   verifier working memory.  Protocols report their state size through these
   helpers so experiments compare real bit counts rather than word counts. *)

(* Bits to represent a non-negative integer value (at least 1 bit), in
   integer shifts: it runs on every register write. *)
let of_nat = Ssmst_graph.Weight.bit_length

(* Bits for an integer that may be negative (sign bit). *)
let of_int x = 1 + of_nat (abs x)

let of_bool = 1

let of_option f = function None -> 1 | Some x -> 1 + f x

(* the sums below loop instead of folding, so a count allocates no
   closure *)
let rec sum_list f acc = function [] -> acc | x :: rest -> sum_list f (acc + f x) rest
let of_list f l = of_nat (List.length l) + sum_list f 0 l

let of_array f a =
  let s = ref (of_nat (Array.length a)) in
  for i = 0 to Array.length a - 1 do
    s := !s + f a.(i)
  done;
  !s

(* ---------------- measured (packed) footprints ---------------- *)

(* The helpers above model the paper's bit counts; the ones below measure
   what the flat engine actually stores: whole 64-bit words.  The SCALE
   experiments report both sides and gate their ratio. *)

(* ⌈log2 n⌉ for n >= 2 (and 1 for n <= 2): the per-node unit of the
   Section 2.4 memory-size claim. *)
let log2_ceil n = if n <= 2 then 1 else of_nat (n - 1)

let bits_of_words w = 64 * w
let bytes_of_words w = 8 * w

(* Whether a packed register budget of [words] 64-bit words per node stays
   within [c] * ⌈log2 n⌉ bits — the "small constant factor" gate of the
   scale experiments.  The word quantization alone costs a factor 64 on
   tiny states, so useful values of [c] start around 64. *)
let within_log_budget ~c ~n ~words = bits_of_words words <= c * log2_ceil n
