(* The benchmark's own arithmetic: order statistics, the tail-percentile
   rule and the sample-size tolerances of the background-statistics
   check.  Kept free of the program's libraries so its tests check the
   benchmark, not the code under measurement. *)

let sorted a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Median; the mean of the two middle values for an even count. *)
let median a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_stats.median: empty sample";
  let s = sorted a in
  if n mod 2 = 1 then s.(n / 2) else 0.5 *. (s.((n / 2) - 1) +. s.(n / 2))

(* Nearest-rank percentile: the smallest value with at least [p] % of the
   sample at or below it. *)
let nearest_rank a p =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_stats.nearest_rank: empty sample";
  let s = sorted a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

(* Samples strictly beyond the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (float_of_int (p * n) /. 100.))

let min_tail_samples = 40
let tail_beyond = 10

(* The highest whole percentile with at least [tail_beyond] samples
   beyond it; [None] below [min_tail_samples], where such a percentile
   would be no tail and the median is reported alone. *)
let tail_percentile n =
  if n < min_tail_samples then None
  else begin
    let p = ref 50 in
    while !p < 99 && beyond ~n (!p + 1) >= tail_beyond do incr p done;
    Some !p
  end

(* [(percentile, value)] of the tail rule: [(50, median)] below
   [min_tail_samples]. *)
let tail a =
  match tail_percentile (Array.length a) with
  | None -> (50, median a)
  | Some p -> (p, nearest_rank a (float_of_int p))

let mean a =
  let n = Array.length a in
  if n = 0 then invalid_arg "Pb_stats.mean: empty sample";
  Array.fold_left ( +. ) 0. a /. float_of_int n

(* Population variance (divides by n), the statistic the MaxEnt
   quadratic constraints fix. *)
let variance a =
  let m = mean a in
  Array.fold_left (fun acc x -> acc +. ((x -. m) ** 2.)) 0. a
  /. float_of_int (Array.length a)

(* Standard errors allowed before a background statistic counts as a
   mismatch.  The check runs a few hundred times per run, so the
   false-alarm rate per comparison must be far below 1e-6. *)
let z_tolerance = 6.

(* The mean of [n] independent background draws with per-draw variance
   [var] has standard error sqrt(var / n). *)
let mean_tol ~n ~var = z_tolerance *. sqrt (var /. float_of_int n)

(* The variance of [n] Gaussian draws has standard error
   var * sqrt(2 / (n - 1)). *)
let var_tol ~n ~var =
  if n < 2 then infinity
  else z_tolerance *. var *. sqrt (2. /. float_of_int (n - 1))

(* Check (c) on one axis: the marked rows' data coordinates [xs] against
   their paired background coordinates [bs].  [Error] names the
   statistic that differs by more than its tolerance. *)
let background_matches ~xs ~bs =
  let n = Array.length xs in
  let mx = mean xs and mb = mean bs in
  let vx = variance xs and vb = variance bs in
  if Float.abs (mx -. mb) > mean_tol ~n ~var:vb then
    Error (Printf.sprintf "mean %.4g vs background %.4g (n=%d)" mx mb n)
  else if Float.abs (vx -. vb) > var_tol ~n ~var:vb then
    Error (Printf.sprintf "variance %.4g vs background %.4g (n=%d)" vx vb n)
  else Ok ()
