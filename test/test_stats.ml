(* Descriptive statistics, Gaussian utilities, metrics, ellipses,
   k-means. *)

open Sider_linalg
open Sider_stats
open Test_helpers

(* --- Descriptive ---------------------------------------------------------- *)

let test_summary () =
  let s = Descriptive.summarize [| 1.0; 2.0; 3.0; 4.0; 5.0 |] in
  approx "n" 5.0 (float_of_int s.Descriptive.n);
  approx "mean" 3.0 s.Descriptive.mean;
  approx "sd" (sqrt 2.0) s.Descriptive.sd;
  approx "median" 3.0 s.Descriptive.median;
  approx "q25" 2.0 s.Descriptive.q25;
  approx "q75" 4.0 s.Descriptive.q75;
  approx "min" 1.0 s.Descriptive.min;
  approx "max" 5.0 s.Descriptive.max

let test_quantile_interp () =
  approx "interpolated" 1.5 (Descriptive.quantile [| 1.0; 2.0 |] 0.5);
  approx "p=0" 1.0 (Descriptive.quantile [| 3.0; 1.0; 2.0 |] 0.0);
  approx "p=1" 3.0 (Descriptive.quantile [| 3.0; 1.0; 2.0 |] 1.0)

let test_skew_kurtosis () =
  approx "symmetric skew" 0.0 (Descriptive.skewness [| -1.0; 0.0; 1.0 |]);
  (* Exponential-ish data has positive skew. *)
  check_true "right skew positive"
    (Descriptive.skewness [| 0.0; 0.0; 0.0; 0.0; 10.0 |] > 1.0);
  approx "constant kurtosis" 0.0 (Descriptive.kurtosis [| 2.0; 2.0; 2.0 |])

let test_correlation () =
  approx "perfect" 1.0 (Descriptive.correlation [| 1.0; 2.0; 3.0 |] [| 2.0; 4.0; 6.0 |]);
  approx "anti" (-1.0) (Descriptive.correlation [| 1.0; 2.0; 3.0 |] [| 3.0; 2.0; 1.0 |]);
  approx "constant" 0.0 (Descriptive.correlation [| 1.0; 1.0 |] [| 1.0; 2.0 |])

let test_standardize () =
  let s = Descriptive.standardize [| 2.0; 4.0; 6.0 |] in
  approx ~eps:1e-12 "mean 0" 0.0 (Vec.mean s);
  approx ~eps:1e-12 "var 1" 1.0 (Vec.variance s)

(* --- Gaussian -------------------------------------------------------------- *)

let test_pdf () =
  approx ~eps:1e-9 "standard at 0" (1.0 /. sqrt (2.0 *. Float.pi))
    (Gaussian.pdf 0.0);
  approx ~eps:1e-12 "log pdf consistency" (log (Gaussian.pdf 1.3))
    (Gaussian.log_pdf 1.3)

let test_cdf () =
  approx ~eps:1e-7 "cdf 0" 0.5 (Gaussian.cdf 0.0);
  approx ~eps:1e-5 "cdf 1.96" 0.975 (Gaussian.cdf 1.959964);
  approx ~eps:1e-5 "symmetric" 1.0 (Gaussian.cdf 1.2 +. Gaussian.cdf (-1.2))

let test_quantile () =
  approx ~eps:1e-6 "median" 0.0 (Gaussian.quantile 0.5);
  approx ~eps:1e-5 "97.5%" 1.959964 (Gaussian.quantile 0.975);
  approx ~eps:1e-5 "2.5%" (-1.959964) (Gaussian.quantile 0.025);
  (* Quantile inverts the CDF. *)
  approx ~eps:1e-4 "roundtrip" 0.31 (Gaussian.cdf (Gaussian.quantile 0.31))

let test_log_cosh_moment () =
  (* Independent Monte-Carlo check of the precomputed constant. *)
  let rng = Sider_rand.Rng.create 77 in
  let n = 200_000 in
  let acc = ref 0.0 in
  for _ = 1 to n do
    let x = Sider_rand.Sampler.normal rng in
    acc := !acc +. log (cosh x)
  done;
  approx ~eps:3e-3 "E log cosh" (!acc /. float_of_int n)
    Gaussian.log_cosh_moment

let test_chi2 () =
  approx ~eps:1e-9 "95% two dof" (-2.0 *. log 0.05) (Gaussian.chi2_quantile_2d 0.95);
  approx ~eps:1e-3 "5.991 textbook" 5.991 (Gaussian.chi2_quantile_2d 0.95)

(* --- Metrics ----------------------------------------------------------------- *)

let test_jaccard () =
  approx "identical" 1.0 (Metrics.jaccard [| 1; 2; 3 |] [| 3; 2; 1 |]);
  approx "disjoint" 0.0 (Metrics.jaccard [| 1 |] [| 2 |]);
  approx "half" (1.0 /. 3.0) (Metrics.jaccard [| 1; 2 |] [| 2; 3 |]);
  approx "both empty" 1.0 (Metrics.jaccard [||] [||]);
  approx "duplicates ignored" 1.0 (Metrics.jaccard [| 1; 1; 2 |] [| 2; 1 |])

let test_jaccard_to_class () =
  let labels = [| "a"; "a"; "b"; "b"; "b" |] in
  approx "exact class" 1.0
    (Metrics.jaccard_to_class ~selection:[| 0; 1 |] ~labels "a");
  approx "partial" 0.4
    (Metrics.jaccard_to_class ~selection:[| 2; 3; 0; 1 |] ~labels "b");
  let matches = Metrics.best_class_match ~selection:[| 2; 3; 4 |] ~labels in
  (match matches with
   | (best, j) :: _ ->
     check_true "best is b" (String.equal best "b");
     approx "perfect" 1.0 j
   | [] -> Alcotest.fail "no matches")

let test_precision_recall () =
  let p, r = Metrics.precision_recall ~selection:[| 1; 2; 3; 4 |] ~truth:[| 3; 4; 5 |] in
  approx "precision" 0.5 p;
  approx "recall" (2.0 /. 3.0) r

let test_purity () =
  let labels = [| "x"; "x"; "y"; "y" |] in
  approx "perfect" 1.0 (Metrics.purity ~assignment:[| 0; 0; 1; 1 |] ~labels);
  approx "mixed" 0.75 (Metrics.purity ~assignment:[| 0; 0; 0; 1 |] ~labels)

(* --- Ellipse ------------------------------------------------------------------ *)

let test_ellipse_isotropic () =
  let e =
    Ellipse.of_moments ~confidence:0.95 ~mean:[| 0.0; 0.0 |]
      ~cov:(Mat.identity 2) ()
  in
  approx ~eps:1e-6 "radius √5.991" (sqrt (Gaussian.chi2_quantile_2d 0.95))
    e.Ellipse.radius1;
  approx ~eps:1e-9 "circular" e.Ellipse.radius1 e.Ellipse.radius2

let test_ellipse_contains () =
  let e =
    Ellipse.of_moments ~confidence:0.95 ~mean:[| 1.0; 1.0 |]
      ~cov:(Mat.identity 2) ()
  in
  check_true "center inside" (Ellipse.contains e (1.0, 1.0));
  check_true "far point outside" (not (Ellipse.contains e (10.0, 10.0)))

let test_ellipse_coverage () =
  (* ~95% of standard Gaussian points should fall inside the 95% ellipse
     fit on those points. *)
  let rng = Sider_rand.Rng.create 21 in
  let pts =
    Array.init 5000 (fun _ ->
        (Sider_rand.Sampler.normal rng, Sider_rand.Sampler.normal rng))
  in
  let e = Ellipse.of_points ~confidence:0.95 pts in
  let inside =
    Array.fold_left
      (fun acc p -> if Ellipse.contains e p then acc + 1 else acc)
      0 pts
  in
  approx ~eps:0.02 "95% coverage" 0.95 (float_of_int inside /. 5000.0)

let test_ellipse_polyline () =
  let e =
    Ellipse.of_moments ~mean:[| 0.0; 0.0 |] ~cov:(Mat.identity 2) ()
  in
  let pl = Ellipse.polyline ~segments:32 e in
  approx "closed" (fst pl.(0)) (fst pl.(32));
  check_true "33 points" (Array.length pl = 33)

(* --- K-means -------------------------------------------------------------------- *)

let test_kmeans_obvious () =
  let rng = Sider_rand.Rng.create 31 in
  let centers = Mat.of_arrays [| [| 0.0; 0.0 |]; [| 10.0; 10.0 |] |] in
  let ds = Sider_data.Synth.blobs ~seed:3 ~sd:0.3 ~centers ~sizes:[| 40; 40 |] () in
  let r = Kmeans.fit rng ~k:2 (Sider_data.Dataset.matrix ds) in
  (* All of the first 40 together, all of the last 40 together. *)
  let a0 = r.Kmeans.assignment.(0) in
  for i = 0 to 39 do
    check_true "first blob together" (r.Kmeans.assignment.(i) = a0)
  done;
  let a1 = r.Kmeans.assignment.(40) in
  check_true "blobs apart" (a0 <> a1);
  for i = 40 to 79 do
    check_true "second blob together" (r.Kmeans.assignment.(i) = a1)
  done

let test_kmeans_invalid_k () =
  let rng = Sider_rand.Rng.create 32 in
  let m = Mat.identity 3 in
  Alcotest.check_raises "k too large" (Invalid_argument "Kmeans.fit: invalid k")
    (fun () -> ignore (Kmeans.fit rng ~k:4 m))

let test_silhouette () =
  let m =
    Mat.of_arrays
      [| [| 0.0; 0.0 |]; [| 0.1; 0.0 |]; [| 10.0; 0.0 |]; [| 10.1; 0.0 |] |]
  in
  let good = Kmeans.silhouette m [| 0; 0; 1; 1 |] in
  let bad = Kmeans.silhouette m [| 0; 1; 0; 1 |] in
  check_true "good clustering scores high" (good > 0.9);
  check_true "bad clustering scores lower" (bad < good);
  approx "single cluster" 0.0 (Kmeans.silhouette m [| 0; 0; 0; 0 |])

let test_choose_k () =
  let rng = Sider_rand.Rng.create 33 in
  let centers =
    Mat.of_arrays [| [| 0.0; 0.0 |]; [| 8.0; 0.0 |]; [| 0.0; 8.0 |] |]
  in
  let ds = Sider_data.Synth.blobs ~seed:5 ~sd:0.3 ~centers ~sizes:[| 30; 30; 30 |] () in
  let r = Kmeans.choose_k ~k_max:6 rng (Sider_data.Dataset.matrix ds) in
  let k = Array.fold_left Stdlib.max 0 r.Kmeans.assignment + 1 in
  check_true "found 3 clusters" (k = 3)

let suite =
  [
    case "summary" test_summary;
    case "quantile interpolation" test_quantile_interp;
    case "skewness and kurtosis" test_skew_kurtosis;
    case "correlation" test_correlation;
    case "standardize" test_standardize;
    case "gaussian pdf" test_pdf;
    case "gaussian cdf" test_cdf;
    case "gaussian quantile" test_quantile;
    case "log cosh moment" test_log_cosh_moment;
    case "chi-square 2 dof" test_chi2;
    case "jaccard" test_jaccard;
    case "jaccard to class" test_jaccard_to_class;
    case "precision and recall" test_precision_recall;
    case "purity" test_purity;
    case "ellipse isotropic" test_ellipse_isotropic;
    case "ellipse contains" test_ellipse_contains;
    case "ellipse 95% coverage" test_ellipse_coverage;
    case "ellipse polyline" test_ellipse_polyline;
    case "kmeans separates blobs" test_kmeans_obvious;
    case "kmeans invalid k" test_kmeans_invalid_k;
    case "silhouette" test_silhouette;
    case "choose_k finds 3" test_choose_k;
  ]
