(* Linter escapes, audited file-wide:
   - error-discipline: every raise here is an [Invalid_argument] on a
     caller-side precondition (shape/bounds mismatch), not a data-
     dependent numerical failure.  lib/robust depends on this library,
     so structured [Sider_error] values cannot be raised from linalg
     without a dependency cycle; the exact message strings are locked
     by the golden tests.
   - float-equality: every float [=]/[<>] is an exact-zero test in a
     dense kernel — sparse-skip guards that must compare bit-exactly
     (skipping a zero entry is not FP-neutral under NaN/Inf inputs, see
     [matmul]) on paths too hot for [Float.equal]'s C call. *)
[@@@sider.allow "error-discipline, float-equality"]

module Obs = Sider_obs.Obs

type t = { rows : int; cols : int; a : float array }

let create rows cols =
  if rows < 0 || cols < 0 then invalid_arg "Mat.create: negative dimension";
  { rows; cols; a = Array.make (rows * cols) 0.0 }

let init rows cols f =
  let m = create rows cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.a.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init n n (fun i j -> if i = j then 1.0 else 0.0)

let diag v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.0)

let diagonal m =
  if m.rows <> m.cols then invalid_arg "Mat.diagonal: not square";
  Array.init m.rows (fun i -> m.a.((i * m.cols) + i))

let of_arrays rows =
  let r = Array.length rows in
  if r = 0 then create 0 0
  else begin
    let c = Array.length rows.(0) in
    Array.iter
      (fun row ->
        if Array.length row <> c then
          invalid_arg "Mat.of_arrays: ragged rows")
      rows;
    init r c (fun i j -> rows.(i).(j))
  end

let to_arrays m =
  Array.init m.rows (fun i -> Array.sub m.a (i * m.cols) m.cols)

let copy m = { m with a = Array.copy m.a }

let copy_into ~dst src =
  if dst.rows <> src.rows || dst.cols <> src.cols then
    invalid_arg "Mat.copy_into: shape mismatch";
  Array.blit src.a 0 dst.a 0 (Array.length src.a)

let dims m = (m.rows, m.cols)

let get m i j = m.a.((i * m.cols) + j)

let set m i j x = m.a.((i * m.cols) + j) <- x

let row m i = Array.sub m.a (i * m.cols) m.cols

let get_row_into m i dst =
  if Array.length dst <> m.cols then
    invalid_arg "Mat.get_row_into: bad length";
  Array.blit m.a (i * m.cols) dst 0 m.cols

(* Dot of [a.(aoff..aoff+len-1)] with [b.(boff..boff+len-1)], unrolled by
   four.  One accumulator, strictly increasing index — the addition order
   is exactly that of the plain loop, so results are bit-identical; the
   unrolling only amortizes the loop-bound checks (~20% on the d²-sized
   kernels that dominate whitening and the solver). *)
let dot_range (a : float array) aoff (b : float array) boff len =
  let acc = ref 0.0 in
  let j = ref 0 in
  while !j + 3 < len do
    let j0 = !j in
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0) *. Array.unsafe_get b (boff + j0));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 1)
               *. Array.unsafe_get b (boff + j0 + 1));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 2)
               *. Array.unsafe_get b (boff + j0 + 2));
    acc := !acc
           +. (Array.unsafe_get a (aoff + j0 + 3)
               *. Array.unsafe_get b (boff + j0 + 3));
    j := j0 + 4
  done;
  while !j < len do
    acc := !acc
           +. (Array.unsafe_get a (aoff + !j) *. Array.unsafe_get b (boff + !j));
    incr j
  done;
  !acc

(* [dst.(doff+k) <- dst.(doff+k) +. s *. src.(soff+k)] for [k < len],
   unrolled by four.  Each destination slot is read and written exactly
   once per call, so the accumulation order across calls is unchanged. *)
let axpy_range (dst : float array) doff s (src : float array) soff len =
  let k = ref 0 in
  while !k + 3 < len do
    let k0 = !k in
    Array.unsafe_set dst (doff + k0)
      (Array.unsafe_get dst (doff + k0)
       +. (s *. Array.unsafe_get src (soff + k0)));
    Array.unsafe_set dst (doff + k0 + 1)
      (Array.unsafe_get dst (doff + k0 + 1)
       +. (s *. Array.unsafe_get src (soff + k0 + 1)));
    Array.unsafe_set dst (doff + k0 + 2)
      (Array.unsafe_get dst (doff + k0 + 2)
       +. (s *. Array.unsafe_get src (soff + k0 + 2)));
    Array.unsafe_set dst (doff + k0 + 3)
      (Array.unsafe_get dst (doff + k0 + 3)
       +. (s *. Array.unsafe_get src (soff + k0 + 3)));
    k := k0 + 4
  done;
  while !k < len do
    Array.unsafe_set dst (doff + !k)
      (Array.unsafe_get dst (doff + !k)
       +. (s *. Array.unsafe_get src (soff + !k)));
    incr k
  done

let row_dot m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.row_dot: bad length";
  dot_range m.a (i * m.cols) v 0 m.cols

let col m j = Array.init m.rows (fun i -> m.a.((i * m.cols) + j))

let set_row m i v =
  if Array.length v <> m.cols then invalid_arg "Mat.set_row: bad length";
  Array.blit v 0 m.a (i * m.cols) m.cols

let rows_list m = List.init m.rows (row m)

let transpose m =
  let t = create m.cols m.rows in
  let ma = m.a and ta = t.a in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set ta ((j * m.rows) + i) (Array.unsafe_get ma (off + j))
    done
  done;
  t

let check_same name x y =
  if x.rows <> y.rows || x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.%s: shape mismatch (%dx%d vs %dx%d)"
                   name x.rows x.cols y.rows y.cols)

let check_dst name dst rows cols =
  if dst.rows <> rows || dst.cols <> cols then
    invalid_arg (Printf.sprintf "Mat.%s: dst is %dx%d, need %dx%d"
                   name dst.rows dst.cols rows cols)

let add_into ~dst x y =
  check_same "add_into" x y;
  check_dst "add_into" dst x.rows x.cols;
  let xa = x.a and ya = y.a and za = dst.a in
  for i = 0 to Array.length xa - 1 do
    Array.unsafe_set za i (Array.unsafe_get xa i +. Array.unsafe_get ya i)
  done

let sub_into ~dst x y =
  check_same "sub_into" x y;
  check_dst "sub_into" dst x.rows x.cols;
  let xa = x.a and ya = y.a and za = dst.a in
  for i = 0 to Array.length xa - 1 do
    Array.unsafe_set za i (Array.unsafe_get xa i -. Array.unsafe_get ya i)
  done

let scale_into ~dst s x =
  check_dst "scale_into" dst x.rows x.cols;
  let xa = x.a and za = dst.a in
  for i = 0 to Array.length xa - 1 do
    Array.unsafe_set za i (s *. Array.unsafe_get xa i)
  done

let add x y =
  check_same "add" x y;
  let z = create x.rows x.cols in
  add_into ~dst:z x y;
  z

let sub x y =
  check_same "sub" x y;
  let z = create x.rows x.cols in
  sub_into ~dst:z x y;
  z

let scale s x =
  let z = create x.rows x.cols in
  scale_into ~dst:z s x;
  z

(* k-blocking keeps a bounded panel of [y] rows hot while it is streamed
   against the rows of [x]; block order never changes the per-entry
   accumulation order (increasing [k]), so results are identical to the
   unblocked loop. *)
let kblock = 64

let matmul_into ~dst x y =
  if x.cols <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_into: inner dims (%dx%d)*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_into" dst x.rows y.cols;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let xc = x.cols and yc = y.cols in
  (* The inner [j] loop is contiguous in both [y] and [dst]; indices are
     in range by construction, so unchecked access is safe (no flambda in
     this toolchain, so the bounds checks would not be elided).  The
     [xik <> 0.0] skip must be kept for exact reproducibility: skipping a
     zero row-entry is not FP-neutral when [y] holds NaN or infinities. *)
  Array.fill za 0 (x.rows * yc) 0.0;
  let kb = ref 0 in
  while !kb < xc do
    let khi = Stdlib.min xc (!kb + kblock) in
    for i = 0 to x.rows - 1 do
      let xoff = i * xc and zoff = i * yc in
      for k = !kb to khi - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then axpy_range za zoff xik ya (k * yc) yc
      done
    done;
    kb := khi
  done

(* The allocating wrappers share one counter: the [alloc-in-hot-loop]
   lint rule plus the restart-hoist regression test (test_projection) use
   it to pin how many allocating products a code path performs. *)
let count_alloc () = Obs.count "mat.matmul_alloc"

let matmul x y =
  if x.cols <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul: inner dims (%dx%d)*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  count_alloc ();
  let z = create x.rows y.cols in
  matmul_into ~dst:z x y;
  z

(* [x yᵀ] without forming the transpose: entry [(i, j)] is the dot product
   of row [i] of [x] with row [j] of [y], accumulated in increasing [k]
   with the same zero-skip as {!matmul_into} — bit-identical to
   [matmul x (transpose y)]. *)
let matmul_nt_into ~dst x y =
  if x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.matmul_nt_into: inner dims (%dx%d)*(%dx%d)ᵀ"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_nt_into" dst x.rows y.rows;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_nt_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let xc = x.cols and yr = y.rows in
  (* Register blocking: four output entries per pass over the [x] row, so
     the row is streamed once per four [y] rows instead of once per one.
     Each accumulator still sums in increasing [k] with the per-[xik]
     zero-skip, so every entry is bit-identical to the unblocked loop. *)
  for i = 0 to x.rows - 1 do
    let xoff = i * xc and zoff = i * yr in
    let j = ref 0 in
    while !j + 3 < yr do
      let j0 = !j in
      let y0 = j0 * xc
      and y1 = (j0 + 1) * xc
      and y2 = (j0 + 2) * xc
      and y3 = (j0 + 3) * xc in
      let a0 = ref 0.0 and a1 = ref 0.0 in
      let a2 = ref 0.0 and a3 = ref 0.0 in
      for k = 0 to xc - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then begin
          a0 := !a0 +. (xik *. Array.unsafe_get ya (y0 + k));
          a1 := !a1 +. (xik *. Array.unsafe_get ya (y1 + k));
          a2 := !a2 +. (xik *. Array.unsafe_get ya (y2 + k));
          a3 := !a3 +. (xik *. Array.unsafe_get ya (y3 + k))
        end
      done;
      Array.unsafe_set za (zoff + j0) !a0;
      Array.unsafe_set za (zoff + j0 + 1) !a1;
      Array.unsafe_set za (zoff + j0 + 2) !a2;
      Array.unsafe_set za (zoff + j0 + 3) !a3;
      j := j0 + 4
    done;
    while !j < yr do
      let yoff = !j * xc in
      let acc = ref 0.0 in
      for k = 0 to xc - 1 do
        let xik = Array.unsafe_get xa (xoff + k) in
        if xik <> 0.0 then
          acc := !acc +. (xik *. Array.unsafe_get ya (yoff + k))
      done;
      Array.unsafe_set za (zoff + !j) !acc;
      incr j
    done
  done

let matmul_nt x y =
  if x.cols <> y.cols then
    invalid_arg (Printf.sprintf "Mat.matmul_nt: inner dims (%dx%d)*(%dx%d)ᵀ"
                   x.rows x.cols y.rows y.cols);
  count_alloc ();
  let z = create x.rows y.rows in
  matmul_nt_into ~dst:z x y;
  z

(* [xᵀ y] without forming the transpose: output row [j] depends only on
   column [j] of [x]; each entry sums over the data rows in increasing [i] with the usual zero-skip —
   bit-identical to [matmul (transpose x) y]. *)
let matmul_tn_into ~dst x y =
  if x.rows <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_tn_into: inner dims (%dx%d)ᵀ*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  check_dst "matmul_tn_into" dst x.cols y.cols;
  (* Zero-length arrays are physically shared (the empty-array atom), so
     an empty dst is never a real alias. *)
  if Array.length dst.a > 0 && (dst.a == x.a || dst.a == y.a) then
    invalid_arg "Mat.matmul_tn_into: dst aliases an input";
  let xa = x.a and ya = y.a and za = dst.a in
  let rows = x.rows and xc = x.cols and yc = y.cols in
  (* i-outer: every input row is read
     once, contiguously, while each output entry still accumulates in
     increasing row order — bit-identical to the j-outer formulation but
     without the strided column walk over [x].  Output rows are register-
     blocked by four: when all four coefficients are non-zero (the dense
     common case) one pass over the [y] row feeds four accumulator rows;
     a zero in the block falls back to the per-row skipped axpy.  Each
     destination slot still sees exactly one read-modify-write per input
     row, in increasing [i], so the result is bit-identical either way. *)
  Array.fill za 0 (xc * yc) 0.0;
  for i = 0 to rows - 1 do
    let xoff = i * xc and yoff = i * yc in
    let j = ref 0 in
    while !j + 3 < xc do
      let j0 = !j in
      let x0 = Array.unsafe_get xa (xoff + j0)
      and x1 = Array.unsafe_get xa (xoff + j0 + 1)
      and x2 = Array.unsafe_get xa (xoff + j0 + 2)
      and x3 = Array.unsafe_get xa (xoff + j0 + 3) in
      if x0 <> 0.0 && x1 <> 0.0 && x2 <> 0.0 && x3 <> 0.0 then begin
        let d0 = j0 * yc
        and d1 = (j0 + 1) * yc
        and d2 = (j0 + 2) * yc
        and d3 = (j0 + 3) * yc in
        for c = 0 to yc - 1 do
          let yv = Array.unsafe_get ya (yoff + c) in
          Array.unsafe_set za (d0 + c)
            (Array.unsafe_get za (d0 + c) +. (x0 *. yv));
          Array.unsafe_set za (d1 + c)
            (Array.unsafe_get za (d1 + c) +. (x1 *. yv));
          Array.unsafe_set za (d2 + c)
            (Array.unsafe_get za (d2 + c) +. (x2 *. yv));
          Array.unsafe_set za (d3 + c)
            (Array.unsafe_get za (d3 + c) +. (x3 *. yv))
        done
      end
      else begin
        if x0 <> 0.0 then axpy_range za (j0 * yc) x0 ya yoff yc;
        if x1 <> 0.0 then axpy_range za ((j0 + 1) * yc) x1 ya yoff yc;
        if x2 <> 0.0 then axpy_range za ((j0 + 2) * yc) x2 ya yoff yc;
        if x3 <> 0.0 then axpy_range za ((j0 + 3) * yc) x3 ya yoff yc
      end;
      j := j0 + 4
    done;
    while !j < xc do
      let xij = Array.unsafe_get xa (xoff + !j) in
      if xij <> 0.0 then axpy_range za (!j * yc) xij ya yoff yc;
      incr j
    done
  done

let matmul_tn x y =
  if x.rows <> y.rows then
    invalid_arg (Printf.sprintf "Mat.matmul_tn: inner dims (%dx%d)ᵀ*(%dx%d)"
                   x.rows x.cols y.rows y.cols);
  count_alloc ();
  let z = create x.cols y.cols in
  matmul_tn_into ~dst:z x y;
  z

let mv_into ~dst m v =
  if m.cols <> Array.length v then
    invalid_arg "Mat.mv_into: dimension mismatch";
  if Array.length dst <> m.rows then invalid_arg "Mat.mv_into: bad dst";
  if Array.length dst > 0 && dst == v then
    invalid_arg "Mat.mv_into: dst aliases the input";
  let ma = m.a in
  for i = 0 to m.rows - 1 do
    Array.unsafe_set dst i (dot_range ma (i * m.cols) v 0 m.cols)
  done

let mv m v =
  if m.cols <> Array.length v then invalid_arg "Mat.mv: dimension mismatch";
  let dst = Array.make m.rows 0.0 in
  mv_into ~dst m v;
  dst

let tmv m v =
  if m.rows <> Array.length v then invalid_arg "Mat.tmv: dimension mismatch";
  let out = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let vi = v.(i) in
    if vi <> 0.0 then axpy_range out 0 vi m.a (i * m.cols) m.cols
  done;
  out

(* Allocation-free [vᵀ m v]: the inner loop reproduces one element of
   [mv m v] (increasing [j]), the outer one the [Vec.dot] fold
   (increasing [i]) — bit-identical to [Vec.dot v (mv m v)]. *)
let quad_form m v =
  if m.rows <> m.cols then invalid_arg "Mat.quad_form: not square";
  if m.cols <> Array.length v then
    invalid_arg "Mat.quad_form: dimension mismatch";
  let ma = m.a in
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    let r = dot_range ma (i * m.cols) v 0 m.cols in
    acc := !acc +. (Array.unsafe_get v i *. r)
  done;
  !acc

let outer u v =
  init (Array.length u) (Array.length v) (fun i j -> u.(i) *. v.(j))

let rank1_update m alpha v =
  if m.rows <> m.cols || m.rows <> Array.length v then
    invalid_arg "Mat.rank1_update: shape mismatch";
  let ma = m.a in
  for i = 0 to m.rows - 1 do
    let avi = alpha *. Array.unsafe_get v i in
    if avi <> 0.0 then begin
      let off = i * m.cols in
      for j = 0 to m.cols - 1 do
        Array.unsafe_set ma (off + j)
          (Array.unsafe_get ma (off + j) +. (avi *. Array.unsafe_get v j))
      done
    end
  done

let trace m =
  if m.rows <> m.cols then invalid_arg "Mat.trace: not square";
  let acc = ref 0.0 in
  for i = 0 to m.rows - 1 do
    acc := !acc +. get m i i
  done;
  !acc

let frobenius m = sqrt (Array.fold_left (fun s x -> s +. (x *. x)) 0.0 m.a)

let symmetrize m =
  if m.rows <> m.cols then invalid_arg "Mat.symmetrize: not square";
  init m.rows m.cols (fun i j -> 0.5 *. (get m i j +. get m j i))

let is_symmetric ?(eps = 1e-9) m =
  m.rows = m.cols
  && (let ok = ref true in
      for i = 0 to m.rows - 1 do
        for j = i + 1 to m.cols - 1 do
          if Float.abs (get m i j -. get m j i) > eps then ok := false
        done
      done;
      !ok)

let map f m = { m with a = Array.map f m.a }

let map_into ~dst f m =
  check_dst "map_into" dst m.rows m.cols;
  let ma = m.a and za = dst.a in
  for i = 0 to (m.rows * m.cols) - 1 do
    Array.unsafe_set za i (f (Array.unsafe_get ma i))
  done

let tanh_into ~dst m =
  check_dst "tanh_into" dst m.rows m.cols;
  let ma = m.a and za = dst.a in
  (* Specialized so [tanh] is a direct (unboxed) call: going through the
     [map_into] closure boxes every argument and result, which roughly
     doubles the cost of FastICA's dominant kernel. *)
  for i = 0 to (m.rows * m.cols) - 1 do
    Array.unsafe_set za i (tanh (Array.unsafe_get ma i))
  done

let col_means m =
  if m.rows = 0 then invalid_arg "Mat.col_means: empty matrix";
  let means = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      means.(j) <- means.(j) +. m.a.(off + j)
    done
  done;
  let n = float_of_int m.rows in
  for j = 0 to m.cols - 1 do
    means.(j) <- means.(j) /. n
  done;
  means

let col_variances m =
  let means = col_means m in
  let vars = Array.make m.cols 0.0 in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      let d = m.a.(off + j) -. means.(j) in
      vars.(j) <- vars.(j) +. (d *. d)
    done
  done;
  let n = float_of_int m.rows in
  Array.map (fun s -> s /. n) vars

let center_cols m =
  let means = col_means m in
  let c = create m.rows m.cols in
  let ma = m.a and ca = c.a in
  for i = 0 to m.rows - 1 do
    let off = i * m.cols in
    for j = 0 to m.cols - 1 do
      Array.unsafe_set ca (off + j)
        (Array.unsafe_get ma (off + j) -. Array.unsafe_get means j)
    done
  done;
  (c, means)

(* Row [j] of the covariance depends only on column [j] against every
   column; each entry sums over the data rows in increasing [i] with the
   same zero-skip as the single-pass loop. *)
let covariance m =
  let centered, _ = center_cols m in
  let cov = create m.cols m.cols in
  let ca = centered.a and cova = cov.a in
  let rows = m.rows and cols = m.cols in
  (* Same i-outer trick as [matmul_tn_into]: stream the centered matrix
     row by row, accumulating the upper triangle; per-entry
     order stays increasing-i, so the result is bit-identical.  The lower
     triangle is mirrored afterwards — exact because x·y = y·x in IEEE
     and both triangles would accumulate in the same row order. *)
  for i = 0 to rows - 1 do
    let off = i * cols in
    for j = 0 to cols - 1 do
      let xj = Array.unsafe_get ca (off + j) in
      if xj <> 0.0 then
        axpy_range cova ((j * cols) + j) xj ca (off + j) (cols - j)
    done
  done;
  for j = 1 to cols - 1 do
    for k = 0 to j - 1 do
      Array.unsafe_set cova ((j * cols) + k)
        (Array.unsafe_get cova ((k * cols) + j))
    done
  done;
  let s = 1.0 /. float_of_int rows in
  for i = 0 to (cols * cols) - 1 do
    Array.unsafe_set cova i (s *. Array.unsafe_get cova i)
  done;
  cov

let gram m = matmul_tn m m

let hcat x y =
  if x.rows <> y.rows then invalid_arg "Mat.hcat: row mismatch";
  init x.rows (x.cols + y.cols) (fun i j ->
      if j < x.cols then get x i j else get y i (j - x.cols))

let vcat x y =
  if x.cols <> y.cols then invalid_arg "Mat.vcat: column mismatch";
  init (x.rows + y.rows) x.cols (fun i j ->
      if i < x.rows then get x i j else get y (i - x.rows) j)

let select_rows m idx =
  init (Array.length idx) m.cols (fun i j -> get m idx.(i) j)

let approx_equal ?(eps = 1e-9) x y =
  x.rows = y.rows && x.cols = y.cols
  && (let ok = ref true in
      Array.iteri
        (fun i v -> if Float.abs (v -. y.a.(i)) > eps then ok := false)
        x.a;
      !ok)

let pp fmt m =
  Format.fprintf fmt "@[<v>";
  for i = 0 to m.rows - 1 do
    Format.fprintf fmt "@[<h>";
    for j = 0 to m.cols - 1 do
      if j > 0 then Format.fprintf fmt "  ";
      Format.fprintf fmt "%10.4g" (get m i j)
    done;
    Format.fprintf fmt "@]";
    if i < m.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
