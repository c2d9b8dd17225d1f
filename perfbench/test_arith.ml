(* Tests of the benchmark's own arithmetic: the tail-percentile rule, the
   sample-size tolerance of the background-statistics check, and the
   closure of span self times with the unaccounted remainder. *)

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-12 *. Float.max 1. (Float.abs b)

let test_tail_rule () =
  let sample n = Array.init n (fun i -> float_of_int (n - i)) in
  (* Below 40 samples the median is reported alone. *)
  List.iter
    (fun n ->
      let p, v = Pb_stats.tail (sample n) in
      check (Printf.sprintf "tail n=%d reports the median" n)
        (p = 50 && close v (Pb_stats.median (sample n))))
    [ 1; 2; 9; 39 ];
  check "median of an even sample" (close (Pb_stats.median [| 4.; 1.; 3.; 2. |]) 2.5);
  (* From 40 on: the highest whole percentile with at least ten samples
     beyond it, and one point higher would leave fewer than ten. *)
  List.iter
    (fun (n, want) ->
      match Pb_stats.tail_percentile n with
      | None -> check (Printf.sprintf "tail n=%d has a percentile" n) false
      | Some p ->
        check (Printf.sprintf "tail n=%d is p%d (got p%d)" n want p) (p = want);
        let beyond = Array.fold_left (fun acc x -> if x > snd (Pb_stats.tail (sample n)) then acc + 1 else acc) 0 (sample n) in
        check (Printf.sprintf "tail n=%d has >= 10 beyond" n) (beyond >= 10);
        if p < 99 then
          check (Printf.sprintf "tail n=%d is the highest" n)
            (Pb_stats.beyond ~n (p + 1) < 10))
    [ (40, 75); (41, 75); (50, 80); (100, 90); (1000, 99); (5000, 99) ];
  (* Nearest rank: p75 of 1..40 is the 30th value. *)
  check "nearest rank" (close (Pb_stats.nearest_rank (sample 40) 75.) 30.)

(* Deterministic standard normal draws (Box-Muller over a fixed LCG), so
   the test needs no library of the program. *)
let normals seed n =
  let s = ref seed in
  let u () =
    s := (!s * 1103515245 + 12345) land 0x3fffffff;
    (float_of_int !s +. 0.5) /. 1073741824.
  in
  Array.init n (fun _ ->
      let u1 = u () and u2 = u () in
      sqrt (-2. *. log u1) *. cos (2. *. Float.pi *. u2))

let test_tolerance () =
  (* The tolerances shrink with the set size as 1/sqrt(n). *)
  check "mean tolerance scales as 1/sqrt(n)"
    (close (Pb_stats.mean_tol ~n:400 ~var:2.) (Pb_stats.mean_tol ~n:100 ~var:2. /. 2.));
  check "mean tolerance value" (close (Pb_stats.mean_tol ~n:36 ~var:1.) 1.);
  check "variance tolerance value"
    (close (Pb_stats.var_tol ~n:73 ~var:2.) (Pb_stats.z_tolerance *. 2. /. 6.));
  check "one point has no variance tolerance" (Pb_stats.var_tol ~n:1 ~var:1. = infinity);
  (* Background draws with the data's mean and variance pass, at every
     set size a class can have. *)
  List.iter
    (fun n ->
      let xs = Array.map (fun z -> 3. +. (2. *. z)) (normals n n) in
      let bs = Array.map (fun z -> 3. +. (2. *. z)) (normals (n + 7) n) in
      check (Printf.sprintf "matching statistics pass at n=%d" n)
        (Pb_stats.background_matches ~xs ~bs = Ok ());
      (* A mean shifted by ten standard errors fails. *)
      let shifted = Array.map (fun b -> b +. (20. /. sqrt (float_of_int n))) bs in
      check (Printf.sprintf "shifted mean fails at n=%d" n)
        (Result.is_error (Pb_stats.background_matches ~xs ~bs:shifted));
      (* A quadrupled variance fails once n is large enough to tell. *)
      if n >= 200 then begin
        let wide = Array.map (fun b -> 3. +. ((b -. 3.) *. 2.)) bs in
        check (Printf.sprintf "quadrupled variance fails at n=%d" n)
          (Result.is_error (Pb_stats.background_matches ~xs ~bs:wide))
      end)
    [ 30; 153; 330; 476 ]

let span id parent t0 t1 = { Pb_spans.id; parent; round = "r"; name = "s"; t0; t1 }

let test_unaccounted_closure () =
  (* Window [0, 10]: a parent 1..6 with children 2..3 and 2.5..4
     (overlapping), a sibling 7..9, and a span poking out of the window
     8.5..12. *)
  let spans =
    [ span 0 (-1) 1. 6.; span 1 0 2. 3.; span 2 0 2.5 4.; span 3 (-1) 7. 9.;
      span 4 (-1) 8.5 12. ]
  in
  check "union of overlapping intervals" (close (Pb_spans.union_length [ (2., 3.); (2.5, 4.) ]) 2.);
  check "self time subtracts the children's union"
    (close (Pb_spans.self_time spans (List.hd spans)) 3.);
  let window = (0., 10.) in
  let un = Pb_spans.unaccounted ~window spans in
  check "unaccounted" (close un 2.);
  (* Closure: for spans nested as calls nest (siblings never overlap),
     the self times plus the unaccounted remainder add up to the
     window. *)
  let inside = [ span 0 (-1) 1. 6.; span 1 0 2. 3.; span 2 0 3.5 4.; span 3 (-1) 7. 9. ] in
  let self = List.fold_left (fun acc s -> acc +. Pb_spans.self_time inside s) 0. inside in
  check "self times + unaccounted = window"
    (close (self +. Pb_spans.unaccounted ~window inside) 10.);
  (* The recorder nests spans by call. *)
  let r = Pb_spans.create () in
  Pb_spans.with_span r ~round:"x" "outer" (fun () ->
      Pb_spans.with_span r ~round:"x" "inner" (fun () -> ()));
  match Pb_spans.spans r with
  | [ inner; outer ] ->
    check "recorded parent" (inner.Pb_spans.parent = outer.Pb_spans.id && outer.parent = -1);
    check "child inside parent" (inner.t0 >= outer.t0 && inner.t1 <= outer.t1)
  | _ -> check "two spans recorded" false

let () =
  test_tail_rule ();
  test_tolerance ();
  test_unaccounted_closure ();
  if !failures > 0 then (Printf.printf "%d failure(s)\n" !failures; exit 1)
  else print_endline "perfbench arithmetic: ok"
