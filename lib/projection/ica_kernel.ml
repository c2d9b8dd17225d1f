(* The [<> 0.0] zero-skips below intentionally mirror Mat's GEMM kernels
   bit-for-bit (a NaN entry falls through to the arithmetic either way). *)
[@@@sider.allow "float-equality"]

open Sider_linalg

external simd_available_stub : unit -> bool = "sider_ica_simd_available"
[@@noalloc]

external sweep_stub :
  float array -> float array -> float array -> float array ->
  int -> int -> int -> int -> unit
  = "sider_ica_sweep_simd_bc" "sider_ica_sweep_simd"
[@@noalloc]

let simd_available =
  let probed = lazy (simd_available_stub ()) in
  fun () -> Lazy.force probed

let max_simd_components = 64

(* SIDER_ICA_KERNEL is read once: kernel choice must not change under a
   running session (golden fixtures and the warm-ICA path both assume a
   stable kernel for the process lifetime).  [set_mode] exists for tests
   and benchmarks that need to pin a path within one process. *)
let env_selected =
  lazy
    (match Sys.getenv_opt "SIDER_ICA_KERNEL" with
    | Some "reference" -> `Reference
    | Some "simd" when simd_available () -> `Simd
    | Some "simd" -> `Reference
    | _ -> if simd_available () then `Simd else `Reference)

type mode = Auto | Force_reference | Force_simd

let override = ref Auto

let set_mode m = override := m

let selected () =
  match !override with
  | Force_reference -> `Reference
  | Force_simd when simd_available () -> `Simd
  | Force_simd -> `Reference
  | Auto -> Lazy.force env_selected

let default_name () =
  match selected () with `Simd -> "simd" | `Reference -> "reference"

type path =
  | Reference of { gbuf : float array }
  | Simd of {
      mpad : int;
      zpad : float array;   (* n × mpad, zero-padded columns *)
      wt : float array;     (* m × mpad: wt.(f*mpad + k) = w.(k,f) *)
    }

type t = { z : Mat.t; n : int; m : int; path : path }

(* The SIMD row-block size.  Each block's partial sums come from one C
   call; the partials are then merged by [tree_combine].  Block
   boundaries depend only on n, and the merge order is fixed, so the sums
   are deterministic — and FastICA's chaotic fixed point needs them to
   be, to the last bit. *)
let simd_chunk = 256

(* Ordered binary tree over the block partials, left-heavy so that three
   or fewer blocks reduce like a left fold. *)
let rec tree_combine combine partials lo hi =
  if hi - lo = 1 then partials.(lo)
  else begin
    let mid = lo + ((hi - lo + 1) / 2) in
    combine
      (tree_combine combine partials lo mid)
      (tree_combine combine partials mid hi)
  end

let create_reference z =
  let n, m = Mat.dims z in
  { z; n; m; path = Reference { gbuf = Array.make (Stdlib.max m 1) 0.0 } }

let create z =
  let n, m = Mat.dims z in
  match selected () with
  | `Simd when m >= 1 && m <= max_simd_components && n >= 1 ->
    let mpad = if m <= 8 then 8 else 4 * ((m + 3) / 4) in
    let za = z.Mat.a in
    let zpad = Array.make (n * mpad) 0.0 in
    for i = 0 to n - 1 do
      Array.blit za (i * m) zpad (i * mpad) m
    done;
    { z; n; m; path = Simd { mpad; zpad; wt = Array.make (m * mpad) 0.0 } }
  | _ -> create_reference z

let kernel_name t =
  match t.path with Simd _ -> "simd" | Reference _ -> "reference"

(* Portable fused sweep.  Bit-identity with the unfused pipeline holds
   because every destination slot sees the same chain of operations:
   each s entry is a k-increasing dot with the [matmul_nt_into] skip on
   zero z entries, tanh is the same direct libm call as [tanh_into], the
   eg sums accumulate in increasing row order like Fastica's column-sum
   pass, and each gz slot receives one read-modify-write per input row
   in increasing i with the [matmul_tn_into] skip on zero g entries. *)
let sweep_reference ~z ~w ~gz ~(eg : Vec.t) gbuf =
  let n, m = Mat.dims z in
  let za = z.Mat.a and wa = w.Mat.a and gza = gz.Mat.a in
  Array.fill gza 0 (m * m) 0.0;
  Array.fill eg 0 m 0.0;
  for i = 0 to n - 1 do
    let zoff = i * m in
    for k = 0 to m - 1 do
      let woff = k * m in
      let acc = ref 0.0 in
      for f = 0 to m - 1 do
        let zif = Array.unsafe_get za (zoff + f) in
        if zif <> 0.0 then
          acc := !acc +. (zif *. Array.unsafe_get wa (woff + f))
      done;
      let g = tanh !acc in
      Array.unsafe_set gbuf k g;
      Array.unsafe_set eg k (Array.unsafe_get eg k +. (1.0 -. (g *. g)))
    done;
    for k = 0 to m - 1 do
      let gik = Array.unsafe_get gbuf k in
      if gik <> 0.0 then begin
        let goff = k * m in
        for f = 0 to m - 1 do
          Array.unsafe_set gza (goff + f)
            (Array.unsafe_get gza (goff + f)
            +. (gik *. Array.unsafe_get za (zoff + f)))
        done
      end
    done
  done

let sweep_simd t ~w ~gz ~(eg : Vec.t) ~mpad ~zpad ~wt =
  let m = t.m in
  let wa = w.Mat.a in
  for f = 0 to m - 1 do
    let off = f * mpad in
    for k = 0 to m - 1 do
      Array.unsafe_set wt (off + k) (Array.unsafe_get wa ((k * m) + f))
    done
  done;
  (* [create] only builds the SIMD path for n >= 1, so there is at least
     one block. *)
  let partials =
    Array.init ((t.n + simd_chunk - 1) / simd_chunk) (fun c ->
        let lo = c * simd_chunk in
        let hi = Stdlib.min t.n (lo + simd_chunk) in
        let gzp = Array.make (m * mpad) 0.0 in
        let egp = Array.make mpad 0.0 in
        sweep_stub zpad wt gzp egp lo hi m mpad;
        (gzp, egp))
  in
  let combine (g1, e1) (g2, e2) =
    (* Partials flow through the ordered tree once each, so reusing the
       left buffer is safe and saves an allocation per merge. *)
    for i = 0 to (m * mpad) - 1 do
      Array.unsafe_set g1 i (Array.unsafe_get g1 i +. Array.unsafe_get g2 i)
    done;
    for i = 0 to mpad - 1 do
      Array.unsafe_set e1 i (Array.unsafe_get e1 i +. Array.unsafe_get e2 i)
    done;
    (g1, e1)
  in
  let gzp, egp = tree_combine combine partials 0 (Array.length partials) in
  let gza = gz.Mat.a in
  for k = 0 to m - 1 do
    Array.blit gzp (k * mpad) gza (k * m) m
  done;
  Array.blit egp 0 eg 0 m

let sweep t ~w ~gz ~eg =
  let wr, wc = Mat.dims w in
  if wr <> t.m || wc <> t.m then
    invalid_arg "Ica_kernel.sweep: w dims" [@sider.allow "error-discipline"];
  let gr, gc = Mat.dims gz in
  if gr <> t.m || gc <> t.m || Array.length eg < t.m then
    invalid_arg "Ica_kernel.sweep: output dims" [@sider.allow "error-discipline"];
  match t.path with
  | Reference { gbuf } -> sweep_reference ~z:t.z ~w ~gz ~eg gbuf
  | Simd { mpad; zpad; wt } -> sweep_simd t ~w ~gz ~eg ~mpad ~zpad ~wt
