(* Order statistics over latency samples. *)

(* Nearest-rank quantile: the smallest sample with at least [q] of the
   samples at or below it. *)
let quantile q (xs : float list) =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let median = quantile 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))
