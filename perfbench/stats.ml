(* Order statistics with the benchmark's rank rule. *)

let min_beyond = 10

(* Nearest-rank percentile (1-based rank [ceil (q * m)]) of a sorted
   sample. A percentile is only reported when at least [min_beyond]
   samples lie strictly beyond its rank, so p95 needs 200 samples and
   p50 needs 20. *)
let percentile ~q sorted =
  let m = Array.length sorted in
  if q <= 0. || q >= 1. then Error (Printf.sprintf "percentile %g outside (0, 1)" q)
  else
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int m))) in
    if m - rank < min_beyond then
      Error
        (Printf.sprintf "p%g refused: %d samples leave %d beyond rank %d (need %d)"
           (100. *. q) m (max 0 (m - rank)) rank min_beyond)
    else Ok sorted.(rank - 1)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let m = Array.length a in
  if m = 0 then invalid_arg "Stats.median: empty sample"
  else if m mod 2 = 1 then a.(m / 2)
  else (a.((m / 2) - 1) +. a.(m / 2)) /. 2.
