(** Bit accounting for per-node state (the paper's memory-size measure,
    Section 2.4).  Protocols report their register sizes through these
    helpers so experiments compare genuine bit counts. *)

val of_nat : int -> int
(** Bits of a non-negative integer (at least 1). *)

val of_int : int -> int
(** Bits of a possibly-negative integer (sign bit included). *)

val of_bool : int

val of_option : ('a -> int) -> 'a option -> int

val of_list : ('a -> int) -> 'a list -> int

val of_array : ('a -> int) -> 'a array -> int

(** {2 Measured (packed) footprints}

    The helpers above model the paper's bit counts; these measure what the
    flat engine actually stores: whole 64-bit words. *)

val log2_ceil : int -> int
(** ⌈log2 n⌉ for [n >= 2] (and 1 below): the per-node unit of the
    Section 2.4 memory-size claim. *)

val bits_of_words : int -> int
(** [64 * words]. *)

val bytes_of_words : int -> int
(** [8 * words]. *)

val within_log_budget : c:int -> n:int -> words:int -> bool
(** Whether a packed budget of [words] 64-bit words per node stays within
    [c * ⌈log2 n⌉] bits.  Word quantization alone costs a factor 64 on tiny
    states, so useful values of [c] start around 64. *)
