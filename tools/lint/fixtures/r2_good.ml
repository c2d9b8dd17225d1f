(* [domain-safety] negative fixture: closure-local accumulators returned
   through Domain.join, disjoint per-index writes, Atomic state and a
   pure string builder — the sanctioned patterns, none of them flagged. *)

let scale_into (dst : float array) (src : float array) =
  Domain.spawn (fun () ->
      for i = 0 to Array.length src - 1 do
        dst.(i) <- 2.0 *. src.(i)
      done)

let spawned_sum (xs : float array) =
  let d =
    Domain.spawn (fun () ->
        let s = ref 0.0 in
        for k = 0 to Array.length xs - 1 do
          s := !s +. xs.(k)
        done;
        !s)
  in
  Domain.join d

let atomic_count (hits : int Atomic.t) =
  Domain.spawn (fun () -> Atomic.incr hits)

let label n = Domain.spawn (fun () -> Printf.sprintf "worker-%d" n)
