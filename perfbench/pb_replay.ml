(* The traced run: the sessions the out-of-process analysts played,
   replayed in this process with a span around each call into the
   program's libraries (lib/data, lib/core, lib/maxent, lib/projection).
   Each session is replayed twice, traced and untraced, in alternating
   order; the per-round difference is the tracing overhead.

   A round here is the same step sequence the service runs for the
   three requests of an HTTP round: journal the event, then apply it
   (constraint, MaxEnt solve, view), then scatter and serialize the
   projection.  After each view, outside the round's window, a probe
   repeats the view's two projection calls on the same solver state
   (Whiten.whiten, then View.of_whitened; for ICA also one
   Fastica.prepare + fit_prepared) to split the view by layer and to
   run check (e) on the whitened matrix. *)

open Sider_data
open Sider_core
open Sider_projection
module Obs = Sider_obs.Obs

type t = {
  spans : Pb_spans.t;
  samples : (string, float list) Hashtbl.t;  (* counts and sizes *)
  mutable overhead : float list;  (* traced − untraced, per round *)
  mutable unaccounted : float list;
  mutable ica_fits : int;
  mutable ica_converged : int;
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
}

let create () =
  { spans = Pb_spans.create (); samples = Hashtbl.create 16;
    overhead = []; unaccounted = [];
    ica_fits = 0; ica_converged = 0; attempted = 0; failed = 0; errors = [] }

let sample t name v =
  Hashtbl.replace t.samples name
    (v :: Option.value ~default:[] (Hashtbl.find_opt t.samples name))

let words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* The body [GET …/projection] serves, built as the service builds it. *)
let projection_json s points =
  let xl, yl = Session.axis_labels s in
  let sx, sy = Session.view_scores s in
  let num f = Json.Number f in
  Json.Obj
    [ ("method", Json.String (View.method_name (Session.method_ s)));
      ("axis_labels", Json.List [ Json.String xl; Json.String yl ]);
      ("scores", Json.List [ num sx; num sy ]);
      ("points",
       Json.List
         (Array.to_list points
          |> List.map (fun (p : Session.point) ->
              let bx, by = p.background in
              Json.Obj
                (("i", num (float_of_int p.index)) :: ("x", num p.x)
                 :: ("y", num p.y) :: ("bx", num bx) :: ("by", num by)
                 :: (match p.label with
                     | Some l -> [ ("label", Json.String l) ]
                     | None -> [])))) ) ]

let now = Unix.gettimeofday

(* Check (e): the view's scores against the benchmark's own computation
   on the whitened matrix. *)
let check_scores t (v : View.t) y =
  let rows = Sider_linalg.Mat.to_arrays y in
  let errs =
    match v.View.method_ with
    | View.Pca ->
      Pb_checks.view_score ~what:"PCA axis 1" ~want:(Pb_checks.top_pca_gain rows)
        v.View.axis1.View.score
    | View.Ica ->
      List.concat_map
        (fun (what, ax) ->
          Pb_checks.view_score ~what
            ~want:(Pb_checks.log_cosh_score rows ax.View.direction) ax.View.score)
        [ ("ICA axis 1", v.View.axis1); ("ICA axis 2", v.View.axis2) ]
  in
  List.iter (fun e -> t.errors <- ("scores: " ^ e) :: t.errors) errs

let session t ~traced ~dir (a : Pb_plan.analyst) (d : Pb_plan.data) ~seed =
  let round = ref (Printf.sprintf "a%d-s%d-create" a.index seed) in
  let span name f =
    t.attempted <- t.attempted + 1;
    let f () =
      match f () with
      | v -> v
      | exception e -> t.failed <- t.failed + 1; raise e
    in
    if traced then Pb_spans.with_span t.spans ~round:!round name f else f ()
  in
  let method_ = if a.method_ = "ica" then View.Ica else View.Pca in
  let body = Pb_plan.create_body a d ~session_seed:seed in
  let ds =
    span "data.parse" (fun () ->
        Persist.dataset_of_json (Json.member "dataset" (Json.of_string body)))
  in
  let s = span "core.create" (fun () -> Session.create ~seed ~method_ ds) in
  let path =
    Filename.concat dir
      (Printf.sprintf "a%d-s%d-%s.journal" a.index seed (if traced then "t" else "u"))
  in
  let j = span "core.journal_start" (fun () -> Persist.journal_start path s) in
  let append ev = span "core.journal_append" (fun () -> Persist.journal_append j ev) in
  let constrain ev =
    append ev;
    span "core.constraint" (fun () ->
        match ev with
        | Session.Added_margin -> Session.add_margin_constraint s
        | Session.Added_cluster { rows; tag } -> Session.add_cluster_constraint ~tag s rows
        | Session.Added_two_d { rows; tag } -> Session.add_two_d_constraint ~tag s rows
        | _ -> ())
  in
  let update () =
    append (Session.Updated { time_cutoff = 10.; max_sweeps = None });
    let w0 = words () in
    let r = span "maxent.solve" (fun () -> Session.update_background ~time_cutoff:10. s) in
    if traced then sample t "maxent.alloc_words" (words () -. w0);
    match r with
    | Ok rep ->
      if traced then begin
        sample t "maxent.sweeps" (float_of_int rep.Sider_maxent.Solver.sweeps);
        sample t "maxent.warm_sweeps" (float_of_int rep.warm_sweeps);
        sample t "maxent.classes"
          (float_of_int (Sider_maxent.Solver.n_classes (Session.solver s)))
      end;
      if not rep.converged then t.errors <- "replay: update did not converge" :: t.errors;
      if rep.degradations <> [] then t.errors <- "replay: update degraded" :: t.errors
    | Error e -> t.errors <- ("replay: update failed: " ^ Sider_robust.Sider_error.to_string e) :: t.errors
  in
  let emit () =
    let points = span "core.scatter" (fun () -> Session.scatter s) in
    let tree = projection_json s points in
    ignore (span "data.emit" (fun () -> Json.to_string tree))
  in
  let view () =
    append (Session.Viewed method_);
    ignore (span "core.view" (fun () -> Session.recompute_view ~method_ s));
    emit ()
  in
  let probe () =
    let y = span "projection.whiten" (fun () -> Whiten.whiten (Session.solver s)) in
    let w0 = words () in
    let name = if method_ = View.Ica then "projection.ica" else "projection.pca" in
    let v =
      span name (fun () ->
          View.of_whitened ~rng:(Sider_rand.Rng.create seed) ~method_ y)
    in
    sample t "projection.alloc_words" (words () -. w0);
    if v.View.method_ <> method_ then t.errors <- "replay: ICA view degraded to PCA" :: t.errors;
    if method_ = View.Ica then begin
      let prep = span "projection.ica_prepare" (fun () -> Fastica.prepare y) in
      let f =
        span "projection.ica_fit" (fun () ->
            Fastica.fit_prepared (Sider_rand.Rng.create seed) prep)
      in
      sample t "projection.ica_iterations" (float_of_int f.Fastica.iterations);
      t.ica_fits <- t.ica_fits + 1;
      if f.Fastica.converged then t.ica_converged <- t.ica_converged + 1
    end;
    check_scores t v y
  in
  constrain Session.Added_margin;
  update ();
  view ();
  let rounds = ref [] in
  List.iteri
    (fun i ((kind, rows) as m) ->
      round := Printf.sprintf "a%d-s%d-r%d" a.index seed i;
      let t0 = now () in
      (* The tag the service assigns when the request names none. *)
      let tag =
        Printf.sprintf "%s%d"
          (if kind = Pb_plan.Cluster then "cluster" else "2d")
          (List.length (Session.constraint_tags s) + 1)
      in
      constrain
        (match m with
         | Pb_plan.Cluster, _ -> Session.Added_cluster { rows; tag }
         | Pb_plan.Two_d, _ -> Session.Added_two_d { rows; tag });
      update ();
      view ();
      let t1 = now () in
      rounds := (t1 -. t0) :: !rounds;
      if traced then begin
        let inside =
          List.filter (fun sp -> sp.Pb_spans.round = !round) (Pb_spans.spans t.spans)
        in
        t.unaccounted <- Pb_spans.unaccounted ~window:(t0, t1) inside :: t.unaccounted;
        round := !round ^ "-probe";
        probe ()
      end;
      round := Printf.sprintf "a%d-s%d-r%d-read" a.index seed i;
      emit ())
    d.rounds;
  Persist.journal_close j;
  (path, List.rev !rounds)

(* Replay [sessions] (analyst, dataset, session seed) in order, each traced and
   untraced, until [budget_s] has passed and at least one has run.  The
   first traced replay's journal is then reloaded, traced, to time
   recovery. *)
let run ~dir ~budget_s sessions =
  if not (Obs.enabled ()) then Obs.set_sink (Some Obs.null_sink);
  let t = create () in
  let stop = now () +. budget_s in
  let sessions = Array.of_list sessions in
  let rec go k kept =
    if k >= 1 && now () >= stop then kept
    else begin
      let a, d, seed = sessions.(k mod Array.length sessions) in
      let replay traced = session t ~traced ~dir a d ~seed in
      let (traced_path, traced), (untraced_path, untraced) =
        if k mod 2 = 0 then
          let tr = replay true in
          (tr, replay false)
        else
          let un = replay false in
          (replay true, un)
      in
      t.overhead <- List.map2 ( -. ) traced untraced @ t.overhead;
      Sys.remove untraced_path;
      match kept with
      | None -> go (k + 1) (Some traced_path)
      | Some _ -> Sys.remove traced_path; go (k + 1) kept
    end
  in
  match go 0 None with
  | None -> t
  | Some path ->
    t.attempted <- t.attempted + 1;
    (match
       Pb_spans.with_span t.spans ~round:"recover" "core.replay" (fun () ->
           Persist.journal_load path)
     with
     | Ok (_, events) -> sample t "core.replay_events" (float_of_int events)
     | Error e ->
       t.failed <- t.failed + 1;
       t.errors <- ("replay: journal load failed: " ^ Sider_robust.Sider_error.to_string e) :: t.errors);
    t
