(* [domain-safety] positive fixture: closures handed to Domain.spawn that
   write state the spawning domain can still reach, or print through
   Printf's shared channel buffers. *)

let ref_race (xs : float array) =
  let acc = ref 0.0 in
  let d = Domain.spawn (fun () ->
      acc := !acc +. Array.fold_left ( +. ) 0.0 xs) in
  acc := !acc +. 1.0;
  Domain.join d;
  !acc

let cell_race (bins : int array) (xs : int array) =
  Domain.spawn (fun () ->
      bins.(0) <- bins.(0) + Array.length xs)

type counter = { mutable hits : int }

let field_race (c : counter) =
  Domain.spawn (fun () -> c.hits <- c.hits + 1)

let table_race (tbl : (int, int) Hashtbl.t) lo hi =
  Domain.spawn (fun () ->
      Hashtbl.replace tbl lo hi)

let print_race (xs : float array) =
  Domain.spawn (fun () ->
      Printf.printf "sum %g\n" (Array.fold_left ( +. ) 0.0 xs))
