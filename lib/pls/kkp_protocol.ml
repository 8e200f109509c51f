open Ssmst_graph
open Ssmst_core

(* The KKP 1-proof labeling scheme as a running network protocol: the
   checker the paper's Section 1 alternative plugs into the transformer —
   detection time exactly 1 and detection distance f, at the price of
   Θ(log² n) bits per node.

   Each activation re-runs the one-round check of {!Kkp_pls} against the
   neighbours' registers; no working state beyond the alarm latch. *)

type state = { label : Kkp_pls.label; alarm : bool }

module type CONFIG = sig
  val scheme : Kkp_pls.t
end

module Make (C : CONFIG) = struct
  type nonrec state = state

  let init _g v = { label = C.scheme.Kkp_pls.labels.(v); alarm = false }

  (* the one-round check of Kkp_pls, against the live registers: O(deg v)
     reads per activation *)
  let step _g v (s : state) read =
    let neighbourhood_ok =
      Kkp_pls.check_node_with C.scheme.Kkp_pls.marker ~own:s.label (fun p -> (read p).label) v
      = []
    in
    { s with alarm = s.alarm || not neighbourhood_ok }

  let alarm s = s.alarm

  let equal (a : state) (b : state) = a = b

  let bits _g _v s = Kkp_pls.bits s.label + 1

  let corrupt st g v (s : state) =
    let l = s.label in
    let pieces = Array.copy l.Kkp_pls.pieces in
    if Array.length pieces > 0 then begin
      let with_piece =
        Array.to_list pieces
        |> List.mapi (fun j p -> (j, p))
        |> List.filter (fun (_, p) -> p <> None)
      in
      match with_piece with
      | [] -> ()
      | _ ->
          let j, _ = List.nth with_piece (Random.State.int st (List.length with_piece)) in
          pieces.(j) <- Some (Pieces.random st)
    end;
    ignore g;
    ignore v;
    { label = { l with Kkp_pls.pieces }; alarm = false }

  (* targeted-field fault: bump exactly one stored piece's weight (the
     whole-piece replacement above is the scrambling severity) *)
  let corrupt_field st g v (s : state) =
    let l = s.label in
    let with_piece =
      Array.to_list l.Kkp_pls.pieces
      |> List.mapi (fun j p -> (j, p))
      |> List.filter_map (fun (j, p) -> Option.map (fun pc -> (j, pc)) p)
    in
    match with_piece with
    | [] -> corrupt st g v s
    | _ ->
        let j, pc = List.nth with_piece (Random.State.int st (List.length with_piece)) in
        let pieces = Array.copy l.Kkp_pls.pieces in
        let w = pc.Pieces.weight in
        pieces.(j) <-
          Some
            {
              pc with
              Pieces.weight = { w with Weight.base = w.Weight.base + 1 + Random.State.int st 7 };
            };
        { label = { l with Kkp_pls.pieces }; alarm = false }

  let field_names = [| "label"; "alarm" |]
  let encode (s : state) = [| Ssmst_sim.Protocol.hash_field s.label; Bool.to_int s.alarm |]

  (* ---------------- packed codec ----------------

     Only the pieces array and the alarm latch are dynamic: [base] is
     written by [init] from the scheme and never touched again ([step]
     keeps the label, [corrupt]/[corrupt_field] replace only pieces), so
     unpack recovers it from [C.scheme] instead of storing Θ(log² n)
     bits of marker label per node. *)

  let slot_words = 1 + Pieces.packed_words (* presence + piece *)

  (* fixed by the scheme's labels, so computed once *)
  let max_pieces =
    Array.fold_left
      (fun m (l : Kkp_pls.label) -> max m (Array.length l.pieces))
      0 C.scheme.Kkp_pls.labels

  let words _g = 1 + (max_pieces * slot_words) + 1

  let field_offsets _g = [| 0; 1 + (max_pieces * slot_words) |]

  let pack _g _v (s : state) buf off =
    let pieces = s.label.Kkp_pls.pieces in
    let cnt = Array.length pieces in
    buf.(off) <- cnt;
    for i = 0 to max_pieces - 1 do
      let o = off + 1 + (i * slot_words) in
      match if i < cnt then pieces.(i) else None with
      | None -> Array.fill buf o slot_words 0
      | Some p ->
          buf.(o) <- 1;
          Pieces.pack p buf (o + 1)
    done;
    buf.(off + 1 + (max_pieces * slot_words)) <- Bool.to_int s.alarm

  let unpack _g v buf off =
    let pieces =
      Array.init buf.(off) (fun i ->
          let o = off + 1 + (i * slot_words) in
          if buf.(o) = 0 then None else Some (Pieces.unpack buf (o + 1)))
    in
    {
      label = { base = C.scheme.Kkp_pls.labels.(v).Kkp_pls.base; pieces };
      alarm = buf.(off + 1 + (max_pieces * slot_words)) = 1;
    }
end
