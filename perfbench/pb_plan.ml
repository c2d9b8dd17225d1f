(* Workloads and the analyst session script, built from the run seed
   with the program's own dataset generators.  The service receives only
   these generated datasets and the requests below. *)

open Sider_data

type mark = Cluster | Two_d

(* One generated dataset and the rounds an analyst plays on it. *)
type data = {
  dataset : Dataset.t;
  dataset_json : string;  (* Persist snapshot schema, encoded once *)
  rounds : (mark * int array) list;  (* up to three ground-truth classes *)
}

type analyst = {
  index : int;
  method_ : string;  (* "ica" | "pca", as the API spells it *)
  pool : data array;  (* session k plays pool.(k mod length) *)
  closing : data;  (* the session that survives the restart *)
  closing_seed : int;
  seed : int;  (* session seeds derive from this *)
}

type workload = {
  name : string;
  analysts : analyst list;
}

let names = [ "segmentation-ica"; "corpus-pca"; "two-tenants" ]

(* One round per ground-truth class, at most three, alternating cluster
   and 2-D constraints. *)
let rounds_of ds =
  List.filteri (fun i _ -> i < 3) (Dataset.classes ds)
  |> List.mapi (fun i c ->
      ((if i mod 2 = 0 then Cluster else Two_d), Dataset.class_indices ds c))

let data ds =
  { dataset = ds;
    dataset_json = Json.to_string (Sider_core.Persist.dataset_to_json ds);
    rounds = rounds_of ds }

(* Sessions cycle through a pool of datasets drawn from the run seed, so
   a run's medians average over several datasets rather than ride on
   one.  The closing session, the one that survives the kill -9, plays
   inputs that do not depend on the run seed: its replay time is
   bimodal in the session's FastICA restarts (0.35-0.46 s against
   0.64-1.42 s on segmentation), so with a seed-dependent survivor
   recovery_s would measure which mode the last session fell in. *)
let analyst ~index ~seed ~method_ ~pool_size generate =
  { index;
    method_;
    pool = Array.init pool_size (fun k -> data (generate ((seed * 1000) + (10 * k) + index)));
    closing = data (generate index);
    closing_seed = index;
    seed = (seed * 31) + index }

let make name ~seed =
  let seg index =
    analyst ~index ~seed ~method_:"ica" ~pool_size:16 (fun s ->
        Segmentation.generate ~seed:s ())
  in
  match name with
  | "segmentation-ica" -> Some { name; analysts = [ seg 0 ] }
  | "two-tenants" -> Some { name; analysts = [ seg 0; seg 1 ] }
  | "corpus-pca" ->
    Some
      { name;
        analysts =
          [ analyst ~index:0 ~seed ~method_:"pca" ~pool_size:8 (fun s ->
                Corpus.generate ~seed:s ()) ] }
  | _ -> None

(* The dataset and seed of an analyst's [k]-th session. *)
let session a k = (a.pool.(k mod Array.length a.pool), (a.seed * 1000) + k)

let create_body a d ~session_seed =
  Printf.sprintf "{\"dataset\":%s,\"seed\":%d,\"method\":\"%s\"}"
    d.dataset_json session_seed a.method_

let mark_body (kind, rows) =
  Printf.sprintf "{\"type\":\"%s\",\"rows\":[%s]}"
    (match kind with Cluster -> "cluster" | Two_d -> "two_d")
    (String.concat "," (Array.to_list (Array.map string_of_int rows)))

let view_body a = Printf.sprintf "{\"method\":\"%s\"}" a.method_

let method_label a = String.uppercase_ascii a.method_
