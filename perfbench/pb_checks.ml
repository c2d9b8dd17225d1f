(* Output checks.  Each tests a property the method must have, or
   compares with a computation made here, never with a stored copy of
   an earlier output.  A check returns the list of its failures. *)

type projection = {
  meth : string;
  x : float array;  (* indexed by row *)
  y : float array;
  bx : float array;
  by : float array;
  scores : float * float;
}

(* Check (a) while decoding: exactly [n] points, each index 0..n-1 once,
   every coordinate finite, and the method the request asked for. *)
let projection ~n ~meth body =
  let j = Pb_json.parse body in
  let got = Pb_json.str (Pb_json.member "method" j) in
  let points = Pb_json.arr (Pb_json.member "points" j) in
  let scores =
    match List.map Pb_json.num (Pb_json.arr (Pb_json.member "scores" j)) with
    | [ a; b ] -> (a, b)
    | _ -> (nan, nan)
  in
  let p =
    { meth = got; x = Array.make n nan; y = Array.make n nan;
      bx = Array.make n nan; by = Array.make n nan; scores }
  in
  let seen = Array.make n false in
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  if got <> meth then err "method %s, requested %s" got meth;
  if List.length points <> n then err "%d points, dataset has %d rows" (List.length points) n;
  List.iter
    (fun pt ->
      let f k = Pb_json.num (Pb_json.member k pt) in
      let i = int_of_float (f "i") in
      if i < 0 || i >= n then err "point index %d out of range" i
      else if seen.(i) then err "point index %d repeated" i
      else begin
        seen.(i) <- true;
        p.x.(i) <- f "x"; p.y.(i) <- f "y"; p.bx.(i) <- f "bx"; p.by.(i) <- f "by";
        if not (List.for_all Float.is_finite [ p.x.(i); p.y.(i); p.bx.(i); p.by.(i) ])
        then err "point %d has a non-finite coordinate" i
      end)
    points;
  (p, List.rev !errors)

(* Check (c): for every row set marked as a cluster, the mean and
   variance of its points along each axis match those of their paired
   background samples (the MaxEnt background preserves the marked
   statistics in expectation). *)
let marked_statistics p marked =
  List.concat_map
    (fun rows ->
      let pick a = Array.map (fun i -> a.(i)) rows in
      List.filter_map
        (fun (axis, xs, bs) ->
          match Pb_stats.background_matches ~xs:(pick xs) ~bs:(pick bs) with
          | Ok () -> None
          | Error m -> Some (Printf.sprintf "marked set, %s axis: %s" axis m))
        [ ("x", p.x, p.bx); ("y", p.y, p.by) ])
    marked

(* Check (b): the update converged without degradations. *)
let update_report body =
  let j = Pb_json.parse body in
  let errors = ref [] in
  if not (Pb_json.bool (Pb_json.member "converged" j)) then
    errors := "update did not converge" :: !errors;
  (match Pb_json.arr (Pb_json.member "degradations" j) with
   | [] -> ()
   | l -> errors := Printf.sprintf "update reported %d degradations" (List.length l) :: !errors);
  (j, !errors)

(* --- check (e): view scores recomputed from the whitened data ------------ *)

(* Eigenvalues of a symmetric matrix by cyclic Jacobi rotations. *)
let jacobi_eigenvalues a0 =
  let d = Array.length a0 in
  let a = Array.map Array.copy a0 in
  let off () =
    let s = ref 0. in
    for i = 0 to d - 1 do
      for j = 0 to d - 1 do if i <> j then s := !s +. (a.(i).(j) ** 2.) done
    done;
    !s
  in
  let total = ref 0. in
  Array.iter (Array.iter (fun v -> total := !total +. (v *. v))) a;
  let sweep = ref 0 in
  while !sweep < 100 && off () > 1e-22 *. !total do
    incr sweep;
    for p = 0 to d - 2 do
      for q = p + 1 to d - 1 do
        let apq = a.(p).(q) in
        if apq <> 0. then begin
          let theta = (a.(q).(q) -. a.(p).(p)) /. (2. *. apq) in
          let t =
            Float.copy_sign 1. theta
            /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          for k = 0 to d - 1 do
            let akp = a.(k).(p) and akq = a.(k).(q) in
            a.(k).(p) <- (c *. akp) -. (s *. akq);
            a.(k).(q) <- (s *. akp) +. (c *. akq)
          done;
          for k = 0 to d - 1 do
            let apk = a.(p).(k) and aqk = a.(q).(k) in
            a.(p).(k) <- (c *. apk) -. (s *. aqk);
            a.(q).(k) <- (s *. apk) +. (c *. aqk)
          done
        end
      done
    done
  done;
  Array.init d (fun i -> a.(i).(i))

(* Column covariance (divided by n) of the rows. *)
let covariance rows =
  let n = Array.length rows and d = Array.length rows.(0) in
  let mean = Array.make d 0. in
  Array.iter (Array.iteri (fun j v -> mean.(j) <- mean.(j) +. v)) rows;
  Array.iteri (fun j v -> mean.(j) <- v /. float_of_int n) mean;
  let c = Array.make_matrix d d 0. in
  Array.iter
    (fun r ->
      for i = 0 to d - 1 do
        let di = r.(i) -. mean.(i) in
        for j = i to d - 1 do
          c.(i).(j) <- c.(i).(j) +. (di *. (r.(j) -. mean.(j)))
        done
      done)
    rows;
  for i = 0 to d - 1 do
    for j = i to d - 1 do
      c.(i).(j) <- c.(i).(j) /. float_of_int n;
      c.(j).(i) <- c.(i).(j)
    done
  done;
  c

let variance_gain s2 = if s2 <= 0. then infinity else 0.5 *. (s2 -. log s2 -. 1.)

(* The top variance-deviation gain (σ² − log σ² − 1)/2 over the
   principal variances of the whitened rows. *)
let top_pca_gain rows =
  Array.fold_left
    (fun acc v -> Float.max acc (variance_gain (Float.max v 0.)))
    neg_infinity
    (jacobi_eigenvalues (covariance rows))

let log_cosh x =
  let ax = Float.abs x in
  ax +. log1p (exp (-2. *. ax)) -. log 2.

(* E[log cosh ν] for ν ~ N(0,1), by Simpson's rule on [-10, 10]. *)
let gaussian_log_cosh =
  lazy
    (let m = 20_000 in
     let h = 20. /. float_of_int m in
     let f x = log_cosh x *. exp (-0.5 *. x *. x) /. sqrt (2. *. Float.pi) in
     let acc = ref (f (-10.) +. f 10.) in
     for k = 1 to m - 1 do
       let x = -10. +. (float_of_int k *. h) in
       acc := !acc +. ((if k mod 2 = 1 then 4. else 2.) *. f x)
     done;
     !acc *. h /. 3.)

(* The signed log-cosh score of the rows projected on [dir]:
   E[log cosh s] − E[log cosh ν] for the standardized projection s. *)
let log_cosh_score rows dir =
  let s = Array.map (fun r ->
      let acc = ref 0. in
      Array.iteri (fun j v -> acc := !acc +. (v *. dir.(j))) r;
      !acc) rows
  in
  let m = Pb_stats.mean s and sd = sqrt (Pb_stats.variance s) in
  let z = Array.map (fun v -> (v -. m) /. sd) s in
  Pb_stats.mean (Array.map log_cosh z) -. Lazy.force gaussian_log_cosh

let close_to ~want got =
  Float.abs (got -. want) <= 1e-6 *. Float.max 1. (Float.abs want)

let view_score ~what ~want got =
  if close_to ~want got then []
  else [ Printf.sprintf "%s score %.9g, recomputed %.9g" what got want ]
