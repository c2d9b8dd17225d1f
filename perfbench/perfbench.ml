(* Analyst-loop benchmark of the session service.

   perfbench --workload NAME --seed N --seconds S --trace 0|1 --server EXE

   Starts [EXE api] as a child process with journaling on, drives it from
   this process over keep-alive HTTP with closed-loop analyst sessions
   for S seconds, then kill -9s it and restarts it on the same data
   directory.  With --trace 1 it then reads the service's /metrics and
   access log and replays the same sessions in process with spans around
   each library call (see Pb_replay).  The last line of stdout is one
   JSON object: correct, attempted, failed and the metrics. *)

let now = Unix.gettimeofday

let usage () =
  prerr_endline
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 --server EXE";
  exit 2

let args () =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
      go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage () in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage () in
  (get "workload", int "seed", int "seconds", int "trace" = 1, get "server")

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let mkdir_p path =
  let rec go p =
    if not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

let read_file path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  really_input_string ic (in_channel_length ic)

let median = function [] -> 0. | l -> Pb_stats.median (Array.of_list l)

(* Spawns timed per run for setup_s; the last one serves the run. *)
let setup_spawns = 5

(* kill -9 and restart cycles per run, for recovery_s. *)
let recovery_cycles = 3

(* The CPUs this process may run on, from /proc/self/status. *)
let allowed_cpus () =
  let ic = open_in "/proc/self/status" in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec find () =
    match input_line ic with
    | line when String.starts_with ~prefix:"Cpus_allowed_list:" line ->
      let spec = String.trim (String.sub line 18 (String.length line - 18)) in
      List.concat_map
        (fun part ->
          match String.split_on_char '-' part with
          | [ a ] -> [ int_of_string a ]
          | [ a; b ] -> List.init (int_of_string b - int_of_string a + 1) (( + ) (int_of_string a))
          | _ -> [])
        (String.split_on_char ',' spec)
    | _ -> find ()
    | exception End_of_file -> []
  in
  find ()

(* Pin the service and the calibrator to one core and this process (the
   client) to another.  The service computes in one OCaml domain, so one
   core is all it uses at a time.  Returns the prefix that pins a child
   to the service's core. *)
let pin_cores () =
  let quiet = " >/dev/null 2>&1" in
  match allowed_cpus () with
  | client :: (_ :: _ as rest)
    when Sys.command (Printf.sprintf "taskset -c %d true%s" client quiet) = 0 ->
    let server = List.nth rest (List.length rest - 1) in
    ignore (Sys.command (Printf.sprintf "taskset -a -p -c %d %d%s" client (Unix.getpid ()) quiet));
    [ "taskset"; "-c"; string_of_int server ]
  | _ | (exception (Sys_error _ | Failure _)) ->
    prerr_endline "perfbench: cannot pin cores; timings are normalized against an unpinned calibrator";
    []

(* Service layer, from its own /metrics stage histograms and access
   log. *)
let serve_metrics ~metrics_text ~access_log ~error requests =
  let stage name =
    List.find_map
      (fun line ->
        match Sider_serve.Serve.parse_sample line with
        | Some ("sider_serve_stage_s", labels, v)
          when List.assoc_opt "stage" labels = Some name
               && List.assoc_opt "quantile" labels = Some "0.5" -> Some v
        | _ -> None)
      (String.split_on_char '\n' metrics_text)
    |> Option.value ~default:0.
  in
  let log = Hashtbl.create 256 in
  List.iter
    (fun line ->
      match Pb_json.parse line with
      | j ->
        Hashtbl.replace log (Pb_json.str (Pb_json.member "trace" j))
          (Pb_json.num (Pb_json.member "queue_s" j) +. Pb_json.num (Pb_json.member "dur_s" j))
      | exception Pb_json.Bad _ -> ())
    (String.split_on_char '\n' (read_file access_log));
  let transport =
    List.filter_map
      (fun (q : Pb_client.request) ->
        Option.map (fun server_s -> q.latency -. server_s) (Hashtbl.find_opt log q.trace))
      requests
  in
  if List.length transport <> List.length requests then
    error
      (Printf.sprintf "access log is missing %d of %d requests"
         (List.length requests - List.length transport) (List.length requests));
  let bytes kind f =
    median
      (List.filter_map
         (fun (q : Pb_client.request) -> if q.kind = kind then Some (float_of_int (f q)) else None)
         requests)
  in
  [ ("serve.queue_s", "s", stage "queue");
    ("serve.journal_s", "s", stage "journal");
    ("serve.transport_s", "s", median transport);
    ("serve.request_bytes", "B", bytes Pb_client.Create (fun q -> q.request_bytes));
    ("serve.response_bytes", "B", bytes Pb_client.Read (fun q -> q.response_bytes)) ]

(* Library layers, from the traced in-process replay of the sessions the
   analysts played (interleaved across analysts); the spans are written
   to [spans_path]. *)
let library_metrics ~dir ~budget_s ~spans_path (results : Pb_client.result list) =
  let played =
    let per =
      List.map
        (fun (r : Pb_client.result) ->
          List.map (fun (s : Pb_client.session) -> (r.analyst, s.data, s.seed)) r.sessions)
        results
    in
    let rec interleave ls =
      match List.filter (( <> ) []) ls with
      | [] -> []
      | ls -> List.map List.hd ls @ interleave (List.map List.tl ls)
    in
    interleave per
  in
  mkdir_p dir;
  let rp = Pb_replay.run ~dir ~budget_s played in
  let all = Pb_spans.spans rp.spans in
  let span_s name =
    median
      (List.filter_map
         (fun s -> if s.Pb_spans.name = name then Some (Pb_spans.self_time all s) else None)
         all)
  in
  let counted name = median (Option.value ~default:[] (Hashtbl.find_opt rp.samples name)) in
  mkdir_p (Filename.dirname spans_path);
  Pb_spans.write rp.spans spans_path;
  ( rp,
    [ ("data.parse_s", "s", span_s "data.parse");
      ("data.emit_s", "s", span_s "data.emit");
      ("core.create_s", "s", span_s "core.create");
      ("core.constraint_s", "s", span_s "core.constraint");
      ("core.journal_start_s", "s", span_s "core.journal_start");
      ("core.journal_append_s", "s", span_s "core.journal_append");
      ("core.replay_s", "s", span_s "core.replay");
      ("core.replay_events", "count", counted "core.replay_events");
      ("core.scatter_s", "s", span_s "core.scatter");
      ("core.view_s", "s", span_s "core.view");
      ("maxent.solve_s", "s", span_s "maxent.solve");
      ("maxent.sweeps", "count", counted "maxent.sweeps");
      ("maxent.warm_sweeps", "count", counted "maxent.warm_sweeps");
      ("maxent.classes", "count", counted "maxent.classes");
      ("maxent.alloc_words", "words", counted "maxent.alloc_words");
      ("projection.whiten_s", "s", span_s "projection.whiten");
      ("projection.pca_s", "s", span_s "projection.pca");
      ("projection.ica_s", "s", span_s "projection.ica");
      ("projection.ica_iterations", "count", counted "projection.ica_iterations");
      ("projection.ica_converged_ratio", "ratio",
       if rp.ica_fits = 0 then 0.
       else float_of_int rp.ica_converged /. float_of_int rp.ica_fits);
      ("projection.alloc_words", "words", counted "projection.alloc_words");
      ("unaccounted", "s", median rp.unaccounted);
      ("trace.overhead_s", "s", median rp.overhead) ] )

let () =
  if Array.length Sys.argv = 3 && Sys.argv.(1) = "--calibrate" then Pb_calib.run Sys.argv.(2)

let () =
  (* Exit through at_exit, which kills the service and the calibrator. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let workload, seed, seconds, trace, exe = args () in
  let w =
    match Pb_plan.make workload ~seed with
    | Some w -> w
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (one of %s)\n" workload
        (String.concat ", " Pb_plan.names);
      exit 2
  in
  if not (Sys.file_exists exe) then (Printf.eprintf "perfbench: no server at %s\n" exe; exit 2);
  let work =
    Filename.concat ".perfbench-run" (Printf.sprintf "%s-s%d-p%d" workload seed (Unix.getpid ()))
  in
  rm_rf work;
  mkdir_p work;
  let in_work f = Filename.concat work f in
  let pin = pin_cores () in
  let calibrator =
    Pb_server.spawn_calibrator ~pin ~log:(in_work "calib.log")
      ~stderr_path:(in_work "calib.stderr")
  in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  (* Set-up: spawn on an empty data directory until the first 200 on
     /healthz, several times; the median is setup_s. *)
  let setup_times = ref [] in
  let spawn_run i =
    let dir = in_work (Printf.sprintf "data%d" i) in
    mkdir_p dir;
    Pb_server.spawn ~pin ~exe ~data_dir:dir
      ~access_log:(in_work (Printf.sprintf "access%d.log" i))
      ~stderr_path:(in_work "server.stderr")
  in
  let server = ref None in
  for i = 1 to setup_spawns do
    let t0 = now () in
    let s, dt = spawn_run i in
    setup_times := (t0, dt) :: !setup_times;
    if i < setup_spawns then Pb_server.kill9 s else server := Some s
  done;
  let server = Option.get !server in
  let data_dir = in_work (Printf.sprintf "data%d" setup_spawns) in
  let access_log = in_work (Printf.sprintf "access%d.log" setup_spawns) in
  (* The closed loop: one thread and one connection per analyst. *)
  let t_start = now () in
  let deadline = t_start +. float_of_int seconds in
  let results =
    match w.Pb_plan.analysts with
    | [ a ] -> [ Pb_client.run ~port:server.port ~deadline a ]
    | analysts ->
      let slots = List.map (fun a -> (a, ref None)) analysts in
      let threads =
        List.map
          (fun (a, slot) ->
            Thread.create (fun () -> slot := Some (Pb_client.run ~port:server.port ~deadline a)) ())
          slots
      in
      List.iter Thread.join threads;
      List.map (fun (_, slot) -> Option.get !slot) slots
  in
  let wall = now () -. t_start in
  let metrics_text =
    let c = Pb_http.create server.port in
    Fun.protect ~finally:(fun () -> Pb_http.close c) @@ fun () ->
    (Pb_http.request c ~meth:"GET" "/metrics").body
  in
  let rss = Pb_server.peak_rss_mb server in
  (* Crash and recover: kill -9, restart on the same data directory,
     and read every surviving session's projection back.  The reads do
     not change the journals, so every cycle replays the same work; the
     median of the cycles is recovery_s. *)
  let recover_attempted = ref 0 and recover_failed = ref 0 in
  let crash_and_recover victim =
    let t_kill = now () in
    Pb_server.kill9 victim;
    let restarted, _ =
      Pb_server.spawn ~pin ~exe ~data_dir ~access_log:(in_work "access-restart.log")
        ~stderr_path:(in_work "server.stderr")
    in
    let c = Pb_http.create restarted.port in
    List.iter
      (fun (r : Pb_client.result) ->
        match r.survivor with
        | None -> error "analyst %d left no surviving session" r.analyst.index
        | Some (id, acked) -> (
          incr recover_attempted;
          match Pb_http.request c ~meth:"GET" (id ^ "/projection") with
          | { status = 200; body } ->
            if body <> acked then
              error "restart: %s projection differs from the last one acknowledged" id
          | { status; _ } -> incr recover_failed; error "restart: %s answered %d" id status))
      results;
    let dt = now () -. t_kill in
    Pb_http.close c;
    (restarted, (t_kill, dt))
  in
  let rec cycles victim k acc =
    if k = 0 then (Pb_server.kill9 victim; acc)
    else
      let next, r = crash_and_recover victim in
      cycles next (k - 1) (r :: acc)
  in
  let recoveries = cycles server recovery_cycles [] in
  let raw_recovery = median (List.map snd recoveries) in
  Pb_server.kill9 calibrator;
  (* Every time of the run in reference-speed seconds (see Pb_calib). *)
  let calib = Pb_calib.load (in_work "calib.log") in
  if not (Pb_calib.available calib) then error "the calibrator logged nothing";
  let norm (t0, dt) = Pb_calib.normalize calib ~window:(t0, t0 +. dt) dt in
  (* Accounting over all analysts. *)
  let requests = List.concat_map (fun (r : Pb_client.result) -> r.requests) results in
  let lat ?(scale = norm) kind =
    List.filter_map
      (fun (q : Pb_client.request) ->
        if q.kind = kind then Some (scale (q.start, q.latency)) else None)
      requests
  in
  let rounds = List.concat_map (fun (r : Pb_client.result) -> List.map norm r.rounds) results in
  List.iter (fun (r : Pb_client.result) -> errors := r.errors @ !errors) results;
  let attempted =
    ref (List.fold_left (fun acc (r : Pb_client.result) -> acc + r.attempted) !recover_attempted results)
  in
  let failed =
    ref (List.fold_left (fun acc (r : Pb_client.result) -> acc + r.failed) !recover_failed results)
  in
  let n_rounds = List.length rounds in
  (* Normalized time during which some request was in flight: the run's
     wall time without the client's own work between a reply and the
     next request (parsing and checking the replies), which runs on the
     other, uncalibrated core. *)
  let busy =
    let intervals =
      List.sort compare
        (List.map (fun (q : Pb_client.request) -> (q.start, q.start +. q.latency)) requests)
    in
    let rec merge acc = function
      | (a, b) :: (c, d) :: rest when c <= b -> merge acc ((a, Float.max b d) :: rest)
      | iv :: rest -> merge (iv :: acc) rest
      | [] -> acc
    in
    List.fold_left (fun acc (a, b) -> acc +. norm (a, b -. a)) 0. (merge [] intervals)
  in
  let tail_p, tail_v =
    if rounds = [] then (50, 0.) else Pb_stats.tail (Array.of_list rounds)
  in
  Printf.eprintf
    "perfbench: %s seed %d: %d sessions, %d rounds in %.2f s (tail = p%d of %d); recovery %.3f s; \
     core speed %.3f of reference\n%!"
    workload seed
    (List.fold_left (fun acc (r : Pb_client.result) -> acc + List.length r.sessions) 0 results)
    n_rounds wall tail_p n_rounds raw_recovery
    (Pb_calib.reference /. Pb_calib.kernel_time calib (t_start, t_start +. wall));
  let raw kind = median (lat ~scale:snd kind) in
  Printf.eprintf
    "perfbench: raw p50 s: create %.4f update %.4f view %.4f read %.4f round %.4f; \
     %.3f rounds/s; recovery %.3f s\n%!"
    (raw Pb_client.Create) (raw Pb_client.Update) (raw Pb_client.View) (raw Pb_client.Read)
    (median (List.concat_map (fun (r : Pb_client.result) -> List.map snd r.rounds) results))
    (float_of_int n_rounds /. wall) raw_recovery;
  let metrics =
    if not trace then
      [ ("setup_s", "s", median (List.map norm !setup_times));
        ("create_p50_s", "s", median (lat Pb_client.Create));
        ("update_p50_s", "s", median (lat Pb_client.Update));
        ("view_p50_s", "s", median (lat Pb_client.View));
        ("read_p50_s", "s", median (lat Pb_client.Read));
        ("round_p50_s", "s", median rounds);
        ("round_tail_s", "s", tail_v);
        ("rounds_per_s", "1/s", float_of_int n_rounds /. busy);
        ("recovery_s", "s", median (List.map norm recoveries));
        ("server_rss_mb", "MB", rss) ]
    else begin
      let rp, library =
        library_metrics ~dir:(in_work "replay") ~budget_s:(float_of_int seconds /. 3.)
          ~spans_path:(Printf.sprintf ".perfbench-run/traces/%s-s%d.jsonl" workload seed)
          results
      in
      attempted := !attempted + rp.attempted;
      failed := !failed + rp.failed;
      errors := rp.errors @ !errors;
      serve_metrics ~metrics_text ~access_log ~error:(error "%s") requests @ library
    end
  in
  rm_rf work;
  List.iter (fun e -> Printf.eprintf "perfbench: check failed: %s\n" e) (List.rev !errors);
  let fmt (name, unit, v) =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name
      (if Float.is_finite v then v else 0.) unit
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!errors = [] && List.for_all (fun (_, _, v) -> Float.is_finite v) metrics)
    !attempted !failed
    (String.concat ", " (List.map fmt metrics))
