(* In-memory span recorder for the traced replay.  A span is recorded
   around each call the benchmark makes into the program's libraries:
   name, start, end, the span that caused it, and the round it belongs
   to.  Spans stay in memory until {!write} at the end of the run, so
   recording costs two clock reads and one list cell. *)

type span = {
  id : int;
  parent : int;  (* -1 for a span opened outside any other *)
  round : string;  (* spans of one round share this identifier *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = {
  mutable spans : span list;  (* newest first *)
  mutable next_id : int;
  mutable open_ : int list;  (* ids of the spans enclosing the caller *)
}

let create () = { spans = []; next_id = 0; open_ = [] }

let now = Unix.gettimeofday

let with_span t ~round name f =
  let id = t.next_id in
  t.next_id <- id + 1;
  let parent = match t.open_ with p :: _ -> p | [] -> -1 in
  t.open_ <- id :: t.open_;
  let t0 = now () in
  let finish () =
    let t1 = now () in
    t.open_ <- List.tl t.open_;
    t.spans <- { id; parent; round; name; t0; t1 } :: t.spans
  in
  match f () with
  | v -> finish (); v
  | exception e -> finish (); raise e

let spans t = List.rev t.spans

let duration s = s.t1 -. s.t0

(* Total length of the union of closed intervals. *)
let union_length ivs =
  let ivs = List.sort compare (List.filter (fun (a, b) -> b > a) ivs) in
  let rec go acc cur = function
    | [] -> (match cur with Some (a, b) -> acc +. (b -. a) | None -> acc)
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) ->
        if a <= cb then go acc (Some (ca, Float.max cb b)) rest
        else go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None ivs

let clip (a, b) s = (Float.max a s.t0, Float.min b s.t1)

(* A span's duration minus the part of its interval its children
   cover. *)
let self_time all s =
  let kids = List.filter (fun c -> c.parent = s.id) all in
  duration s -. union_length (List.map (clip (s.t0, s.t1)) kids)

(* The part of the window [(a, b)] that no span covers. *)
let unaccounted ~window:(a, b) spans =
  (b -. a) -. union_length (List.map (clip (a, b)) spans)

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"round\":%S,\"name\":%S,\"t0\":%.6f,\
         \"t1\":%.6f}\n"
        s.id s.parent s.round s.name s.t0 s.t1)
    (spans t)
