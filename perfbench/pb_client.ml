(* The out-of-process analyst: a closed loop over keep-alive HTTP.  Each
   analyst sends its next request only after the previous reply has
   arrived, and works through whole sessions until the run's deadline.
   The last session, the one expected to be in progress at the deadline
   (judged by the previous session's length), plays the closing inputs
   and survives (no DELETE) for the restart check. *)

type kind = Create | Mark | Update | View | Read | Delete

type request = {
  kind : kind;
  start : float;
  latency : float;
  trace : string;
  request_bytes : int;
  response_bytes : int;
}

(* One analyst's session, as played: enough for the traced replay to
   make the same calls in process. *)
type session = { data : Pb_plan.data; seed : int }

type result = {
  analyst : Pb_plan.analyst;
  mutable requests : request list;
  mutable rounds : (float * float) list;
      (* start, duration: constraint sent -> view received *)
  mutable sessions : session list;  (* oldest first once finished *)
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;  (* check failures *)
  mutable survivor : (string * string) option;
      (* session id, last projection body acknowledged *)
}

exception Session_failed

let now = Unix.gettimeofday

let run ~port ~deadline (a : Pb_plan.analyst) =
  let r =
    { analyst = a; requests = []; rounds = []; sessions = []; attempted = 0;
      failed = 0; errors = []; survivor = None }
  in
  let conn = Pb_http.create port in
  let meth = Pb_plan.method_label a in
  let seq = ref 0 in
  let call kind ~meth:m ?(body = "") ?(expect = 200) path =
    incr seq;
    let trace = Printf.sprintf "pb-%d-%d" a.index !seq in
    r.attempted <- r.attempted + 1;
    let t0 = now () in
    match Pb_http.request conn ~meth:m ~headers:[ ("X-Sider-Trace-Id", trace) ] ~body path with
    | resp when resp.Pb_http.status = expect ->
      let latency = now () -. t0 in
      r.requests <-
        { kind; start = t0; latency; trace; request_bytes = String.length body;
          response_bytes = String.length resp.body } :: r.requests;
      (resp.body, t0)
    | resp ->
      r.failed <- r.failed + 1;
      Printf.eprintf "perfbench: %s %s -> %d %s\n%!" m path resp.status
        (String.sub resp.body 0 (min 200 (String.length resp.body)));
      raise Session_failed
    | exception (Failure _ | Unix.Unix_error _ | Scanf.Scan_failure _ | End_of_file as e) ->
      r.failed <- r.failed + 1;
      Printf.eprintf "perfbench: %s %s: %s\n%!" m path (Printexc.to_string e);
      Pb_http.close conn;
      raise Session_failed
  in
  let check what errors =
    List.iter (fun e -> r.errors <- (what ^ ": " ^ e) :: r.errors) errors
  in
  let projection ~n ~marked body =
    match Pb_checks.projection ~n ~meth body with
    | p, errs ->
      check "projection" errs;
      if errs = [] then check "background" (Pb_checks.marked_statistics p marked)
    | exception Pb_json.Bad m -> check "projection" [ m ]
  in
  let update id =
    let body, _ = call Update ~meth:"POST" ~body:"{}" (id ^ "/update") in
    match Pb_checks.update_report body with
    | _, errs -> check "update" errs
    | exception Pb_json.Bad m -> check "update" [ m ]
  in
  let session ~survive (d : Pb_plan.data) seed =
    let n = Sider_data.Dataset.n_rows d.dataset in
    let projection = projection ~n in
    let created, _ =
      call Create ~meth:"POST" ~expect:201
        ~body:(Pb_plan.create_body a d ~session_seed:seed) "/sessions"
    in
    let id =
      match Pb_json.str (Pb_json.member "id" (Pb_json.parse created)) with
      | id -> "/sessions/" ^ id
      | exception Pb_json.Bad m -> check "create" [ m ]; raise Session_failed
    in
    ignore (call Mark ~meth:"POST" ~body:"{\"type\":\"margin\"}" (id ^ "/constraints"));
    update id;
    let v, _ = call View ~meth:"POST" ~body:(Pb_plan.view_body a) (id ^ "/view") in
    projection ~marked:[] v;
    let last = ref v in
    let marked = ref [] in
    List.iter
      (fun ((kind, rows) as m) ->
        let _, t0 = call Mark ~meth:"POST" ~body:(Pb_plan.mark_body m) (id ^ "/constraints") in
        if kind = Pb_plan.Cluster then marked := rows :: !marked;
        update id;
        let v, _ = call View ~meth:"POST" ~body:(Pb_plan.view_body a) (id ^ "/view") in
        r.rounds <- (t0, now () -. t0) :: r.rounds;
        projection ~marked:!marked v;
        let p, _ = call Read ~meth:"GET" (id ^ "/projection") in
        projection ~marked:!marked p;
        last := p)
      d.rounds;
    if survive then r.survivor <- Some (id, !last)
    else ignore (call Delete ~meth:"DELETE" ~expect:204 id);
    r.sessions <- { data = d; seed } :: r.sessions
  in
  let rec loop k ~previous =
    let t0 = now () in
    if t0 +. previous >= deadline then
      (try session ~survive:true a.closing a.closing_seed with Session_failed -> ())
    else begin
      let d, seed = Pb_plan.session a k in
      (try session ~survive:false d seed with Session_failed -> ());
      loop (k + 1) ~previous:(now () -. t0)
    end
  in
  Fun.protect ~finally:(fun () -> Pb_http.close conn) (fun () -> loop 0 ~previous:0.);
  r.sessions <- List.rev r.sessions;
  r
