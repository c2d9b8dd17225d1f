(* The service under test as a child process: [sider api] with
   journaling on, an ephemeral port and a structured access log; every
   other flag at its default. *)

type t = {
  pid : int;
  mutable port : int;
  out : Unix.file_descr option;  (* the service's stdout, read for its port *)
  mutable alive : bool;
}

let live : t list ref = ref []

let now = Unix.gettimeofday

let kill9 t =
  if t.alive then begin
    t.alive <- false;
    (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] t.pid) with Unix.Unix_error _ -> ());
    Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) t.out;
    live := List.filter (fun s -> s != t) !live
  end

let () = at_exit (fun () -> List.iter kill9 !live)

let fail fmt = Printf.ksprintf failwith fmt

let open_append path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ] 0o644

(* Read the child's stdout until its "session API on ...:<port>" line. *)
let read_port fd ~pid =
  let buf = Buffer.create 256 and chunk = Bytes.create 256 in
  let give_up = now () +. 60. in
  let rec go () =
    let text = Buffer.contents buf in
    match
      List.find_map
        (fun l ->
          try Scanf.sscanf l "session API on http://127.0.0.1:%d " Option.some
          with Scanf.Scan_failure _ | End_of_file | Failure _ -> None)
        (String.split_on_char '\n' text)
    with
    | Some p -> p
    | None ->
      let left = give_up -. now () in
      if left <= 0. then fail "sider api (pid %d) printed no port within 60 s" pid;
      (match Unix.select [ fd ] [] [] left with
       | [], _, _ -> ()
       | _ ->
         let k = Unix.read fd chunk 0 (Bytes.length chunk) in
         if k = 0 then fail "sider api (pid %d) exited before listening" pid;
         Buffer.add_subbytes buf chunk 0 k);
      go ()
  in
  go ()

let healthy port =
  let c = Pb_http.create port in
  Fun.protect ~finally:(fun () -> Pb_http.close c) @@ fun () ->
  match Pb_http.request c ~meth:"GET" "/healthz" with
  | r -> r.Pb_http.status = 200
  | exception (Failure _ | Unix.Unix_error _) -> false

(* Spawn the service and wait for its first 200 on /healthz; returns
   the server and the seconds that took.  [pin] is the command prefix
   that pins the child to the service's core ([[]] when pinning is
   unavailable). *)
let spawn ~pin ~exe ~data_dir ~access_log ~stderr_path =
  let t0 = now () in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let err = open_append stderr_path in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close wr; Unix.close err) @@ fun () ->
    let argv =
      pin @ [ exe; "api"; "--port"; "0"; "--data-dir"; data_dir; "--access-log"; access_log ]
    in
    Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin wr err
  in
  let t = { pid; port = 0; out = Some rd; alive = true } in
  live := t :: !live;
  let port = try read_port rd ~pid with e -> kill9 t; raise e in
  t.port <- port;
  let give_up = now () +. 60. in
  while not (healthy port) do
    if now () > give_up then (kill9 t; fail "sider api never answered /healthz");
    Unix.sleepf 0.001
  done;
  (t, now () -. t0)

(* Peak resident set (VmHWM) of the server process, in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec go () =
    match input_line ic with
    | line -> (
      try Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
      with Scanf.Scan_failure _ | End_of_file | Failure _ -> go ())
    | exception End_of_file -> fail "no VmHWM in /proc/%d/status" t.pid
  in
  go ()

(* The calibrator (see Pb_calib), pinned like the server. *)
let spawn_calibrator ~pin ~log ~stderr_path =
  let argv = pin @ [ Sys.executable_name; "--calibrate"; log ] in
  let err = open_append stderr_path in
  let pid =
    Fun.protect ~finally:(fun () -> Unix.close err) @@ fun () ->
    Unix.create_process (List.hd argv) (Array.of_list argv) Unix.stdin err err
  in
  let t = { pid; port = 0; out = None; alive = true } in
  live := t :: !live;
  t
