(** Wave&Echo (PIF, Section 2.3) over rooted forests, with exact ideal-time
    accounting: the value a distributed Wave&Echo computes plus the rounds
    it takes (2h for a wave+echo over height h).  The forest is a children
    function, so whole trees, SYNC_MST fragments and partition parts all
    work; [ttl] truncates the wave as in Procedure Count_Size. *)

type 'a t = {
  value : 'a;  (** aggregate computed at the root *)
  rounds : int;
  visited : int list;  (** nodes reached, in preorder *)
  truncated : bool;  (** whether [ttl] cut the wave *)
}

val run :
  children:(int -> int list) ->
  ?ttl:int ->
  leaf:(int -> 'a) ->
  combine:(int -> 'a list -> 'a) ->
  int ->
  'a t
(** [run ~children ~leaf ~combine root]: [combine v child_values] at
    internal nodes, [leaf v] where the wave stops. *)

val count : children:(int -> int list) -> ?ttl:int -> int -> int t
(** Node counting (Procedure Count_Size with [ttl]). *)

val sum : children:(int -> int list) -> ?ttl:int -> value:(int -> int) -> int -> int t

val logical_or :
  children:(int -> int list) -> ?ttl:int -> value:(int -> bool) -> int -> bool t

val minimum :
  children:(int -> int list) ->
  ?ttl:int ->
  candidate:(int -> 'a option) ->
  compare:('a -> 'a -> int) ->
  int ->
  'a option t
(** Minimum over per-node candidates ([None] skipped): Find_Min_Out_Edge. *)
