(* Order statistics for the benchmark: medians, percentiles, quartile
   spreads and geometric means. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, [p] in [0, 100].  Infinite samples (failed
   requests) sort last, so they count as missing any latency limit. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartiles by the "exclusive" method (Python's
   [statistics.quantiles(xs, n=4)]), so spreads match what a reader
   recomputes from a ledger. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4.0 -. delta)) +. (a.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Interquartile range as a share of the median. *)
let rel_iqr xs =
  let q1, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> nan
  | xs -> exp (mean (List.map log xs))

let sum = List.fold_left ( +. ) 0.0
