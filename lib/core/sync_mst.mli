open Ssmst_graph

(** SYNC_MST (Section 4): synchronous MST construction in O(n) ideal time
    with O(log n) bits per node.

    Phase i starts at round 11·2ⁱ.  Count_Size (a Wave&Echo with
    time-to-live 2ⁱ⁺¹−1) decides activity (Definition 4.1: a root is active
    iff its complete count is ≤ 2ⁱ⁺¹−1); Find_Min_Out_Edge runs at round
    (11+4)·2ⁱ with all edges tested simultaneously; re-orientation, pivot
    handshake and hooking land at round (11+11)·2ⁱ−1.  The result records
    the hierarchy of active fragments that the marker labels. *)

type result = {
  tree : Tree.t;  (** the MST *)
  hierarchy : Fragment.hierarchy;  (** active fragments, per phase *)
  rounds : int;  (** ideal time per the paper's timetable *)
  phases : int;
  peak_bits : int;  (** max per-node state size (Observation 4.3) *)
}

val run : Graph.t -> result
(** With a profiler installed ({!Ssmst_parallel.Probe}), opens one
    ["fragment-level i"] frame per phase with ["wave-sweep"] sub-frames
    for Count_Size and Find_Min_Out_Edge, charged per the timetable; the
    round charges sum to [result.rounds].
    @raise Graph.Malformed on disconnected inputs. *)
