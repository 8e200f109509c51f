(* Order statistics with the same cut points as Python's [statistics]
   module, so a number quoted from this benchmark and one recomputed from
   its rows with [statistics.median] / [statistics.quantiles] agree. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let k = Array.length a in
  if k = 0 then nan
  else if k mod 2 = 1 then a.(k / 2)
  else (a.((k / 2) - 1) +. a.(k / 2)) /. 2.

(* Cut point [i] of [statistics.quantiles xs ~n] (method "exclusive"). *)
let quantile ~n ~i xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then nan
  else if ld = 1 then a.(0)
  else
    let m = ld + 1 in
    let j = max 1 (min (ld - 1) (i * m / n)) in
    let delta = (i * m) - (j * n) in
    ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta)) /. float_of_int n

let q1 = quantile ~n:4 ~i:1
let q3 = quantile ~n:4 ~i:3
