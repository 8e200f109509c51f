open Ssmst_graph
open Ssmst_sim

(* The Section 9 apparatus: instances witnessing that an MST verification
   scheme restricted to O(log n) bits per node needs Ω(log n) detection
   time.

   Lemma 9.1's reduction: a scheme with memory ℓ and detection time τ on
   the τ-subdivided family yields a 1-round scheme with O(τ·ℓ)-bit labels
   on the base family, which [54] proved needs Ω(log² n) bits.  Hence
   τ·ℓ = Ω(log² n): with ℓ = O(log n) bits, τ = Ω(log n).

   The experiment measures, over the hypertree-like family (the black-box
   properties of the [54] instances, see {!Gen.hypertree_like}) and its
   subdivisions:

   - the verifier's label size (bits) and measured detection time on
     negative instances, for the compact scheme of this paper;
   - the same for the KKP 1-round scheme (measured through its label size;
     its detection time is 1 by construction);
   - the time × memory products, which the lower bound says cannot drop
     below c·log² n. *)

type datapoint = {
  h : int;  (* hypertree height parameter *)
  tau : int;  (* subdivision parameter *)
  n : int;  (* nodes of the (subdivided) instance *)
  label_bits : int;
  detection_rounds : int option;  (* None on positive instances *)
}

(* Break minimality: make one non-tree (cross) edge lighter than every tree
   edge on its fundamental cycle. *)
let break_instance (g : Graph.t) (t : Tree.t) =
  let cross =
    Graph.edges g |> List.find (fun (u, v, _) -> not (Tree.is_tree_edge t u v))
  in
  let u0, v0, _ = cross in
  let g' = Graph.reweight g (fun u v w -> if (min u v, max u v) = (u0, v0) then 0 else w) in
  let parents =
    Array.init (Graph.n g) (fun v -> match Tree.parent t v with None -> -1 | Some p -> p)
  in
  (g', Tree.of_parents g' parents)

(* Run the compact verifier on the given (possibly broken) instance and
   measure time-to-alarm under the synchronous daemon. *)
let detection_time_of (m : Marker.t) =
  let module N = Verifier_campaign.Net (struct
    let marker = m
    let mode = Verifier.Passive
  end) in
  N.detection_time (N.create m.graph) Scheduler.Sync ~max_rounds:20000

let measure ~seed ~h ~tau ~positive =
  let st = Gen.rng seed in
  let g0, t0 = Gen.hypertree_like st h in
  let g1, t1 = if positive then (g0, t0) else break_instance g0 t0 in
  let g, t = if tau = 0 then (g1, t1) else Gen.subdivide ~tau g1 t1 in
  let m = if positive then Marker.run g else Marker.forge g t in
  {
    h;
    tau;
    n = Graph.n g;
    label_bits = m.label_bits;
    detection_rounds = (if positive then None else detection_time_of m);
  }

(* Build the (possibly broken, possibly subdivided) instance and its marker
   output; shared with the KKP measurement in {!Ssmst_pls.Kkp_pls}. *)
let instance ~seed ~h ~tau ~positive =
  let st = Gen.rng seed in
  let g0, t0 = Gen.hypertree_like st h in
  let g1, t1 = if positive then (g0, t0) else break_instance g0 t0 in
  let g, t = if tau = 0 then (g1, t1) else Gen.subdivide ~tau g1 t1 in
  let m = if positive then Marker.run g else Marker.forge g t in
  (g, t, m)
