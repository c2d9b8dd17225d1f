(* Core-speed calibration.  On a shared host the effective speed of a
   core changes by up to ~1.5x within seconds, through contention the
   guest cannot see, which moves every latency of a run by as much.  A
   calibrator process, pinned to the server's core at the lowest
   priority, repeats a fixed kernel and logs the CPU time each
   repetition took.  CPU time, unlike wall time, does not grow when
   the calibrator is preempted by the server, only when the core itself
   runs slower, so the log tracks the core's speed whether the server is
   busy or idle.  A latency measured over [t0, t1] is normalized by the
   mean kernel time of the repetitions centred in that interval:
   normalized = latency × reference / kernel time. *)

(* Kernel CPU time, in seconds, that a normalized time is expressed
   against: about the kernel's time on the 2-core box the bounds were set
   on.  A constant, so normalized times compare across runs and commits
   on one machine. *)
let reference = 1.3e-3

(* The kernel does the kind of work the service does: parse a 300-point
   projection body with the benchmark's JSON reader (allocation, pointer
   chasing, float parsing) and diagonalize a 24×24 matrix (dense float
   arithmetic).  Over repeated restarts of one fixed journal, the
   restart time divided by this kernel's time varied least with the
   kernel time taken to the power 1 (coefficient of variation 0.05-0.08
   against 0.11-0.14 raw); a purely L1-resident float loop needed a
   power of about 1.5, as it slows less than the service does. *)
let body =
  lazy
    (let b = Buffer.create 40000 in
     Buffer.add_string b "{\"method\":\"ICA\",\"points\":[";
     for i = 0 to 299 do
       let f = float_of_int i in
       if i > 0 then Buffer.add_char b ',';
       Printf.bprintf b
         "{\"i\":%d,\"x\":%.17g,\"y\":%.17g,\"bx\":%.17g,\"by\":%.17g,\"label\":\"sky\"}"
         i (sin f) (cos f) (sin (2. *. f)) (cos (3. *. f))
     done;
     Buffer.add_string b "]}";
     Buffer.contents b)

let matrix =
  lazy (Array.init 24 (fun i -> Array.init 24 (fun j -> 1. /. float_of_int (1 + i + j))))

let kernel () =
  let points =
    match Pb_json.member "points" (Pb_json.parse (Lazy.force body)) with
    | Pb_json.Arr l -> float_of_int (List.length l)
    | _ -> 0.
  in
  points +. (Pb_checks.jacobi_eigenvalues (Lazy.force matrix)).(0)

let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* The calibrator process: log "wall_start wall_end cpu" per repetition
   to [path] until killed. *)
let run path =
  ignore (Unix.nice 19);
  let oc = open_out path in
  let sink = ref 0. in
  while true do
    let w0 = Unix.gettimeofday () and c0 = cpu () in
    sink := !sink +. kernel ();
    let c1 = cpu () and w1 = Unix.gettimeofday () in
    Printf.fprintf oc "%.6f %.6f %.9f\n%!" w0 w1 (c1 -. c0)
  done;
  ignore !sink

type t = { mid : float array; cost : float array }  (* sorted by mid *)

let load path =
  let samples = ref [] in
  (try
     let ic = open_in path in
     Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
     try
       while true do
         let line = input_line ic in
         match Scanf.sscanf line "%f %f %f" (fun a b c -> (a, b, c)) with
         | w0, w1, c when c > 0. -> samples := ((w0 +. w1) /. 2., c) :: !samples
         | _ -> ()
         | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> ()
       done
     with End_of_file -> ()
   with Sys_error _ -> ());
  let a = Array.of_list (List.rev !samples) in
  Array.sort compare a;
  { mid = Array.map fst a; cost = Array.map snd a }

let available t = Array.length t.mid > 0

(* Mean kernel time over [a, b], widened symmetrically to at least
   half a second and until it holds [min_samples] repetitions: while the
   server is busy the calibrator runs a few times a second, and speed
   states last seconds. *)
let min_samples = 5

let kernel_time t (a, b) =
  let c = (a +. b) /. 2. in
  let rec go h =
    let sum = ref 0. and k = ref 0 in
    Array.iteri
      (fun i m -> if Float.abs (m -. c) <= h then (sum := !sum +. t.cost.(i); incr k))
      t.mid;
    if !k >= min_samples || (h > 60. && !k > 0) then !sum /. float_of_int !k
    else if h > 60. then reference
    else go (2. *. h)
  in
  go (Float.max 0.25 ((b -. a) /. 2.))

(* [seconds] measured over [window], in reference-speed seconds. *)
let normalize t ~window seconds =
  if available t then seconds *. reference /. kernel_time t window else seconds
