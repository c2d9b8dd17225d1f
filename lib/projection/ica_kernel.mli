(** Fused FastICA sweep kernels.

    One sweep evaluates, for a fixed whitened data matrix [z] (n×m) and a
    candidate unmixing matrix [w] (m×m):

    {ul
    {- [s = z wᵀ] (scores, n×m — never materialised),}
    {- [g = tanh s] (contrast, n×m — never materialised),}
    {- [gz = gᵀ z] (Gram numerator of the fixed-point update, m×m),}
    {- [eg.(k) = Σᵢ (1 − g(i,k)²)] (the E[g'] column sums).}}

    Two implementations sit behind {!sweep}:

    {ul
    {- [reference] — portable OCaml, a single serial pass whose per-entry
       arithmetic order replicates the unfused
       [matmul_nt_into]/[tanh_into]/[matmul_tn_into] pipeline exactly, so
       its results are {b bit-identical} to that path (pinned by
       [test_projection]).}
    {- [simd] — AVX2+FMA C stubs with a polynomial [tanh]
       (~1e-15 relative error), selected by default when the CPU supports
       it.  Deterministic, because per-block partial sums are combined
       in a fixed tree over a block grid that depends only on [n] (pinned
       to the bit by [test/golden/ica_simd_bits.json]), but {e not}
       bit-identical to the reference path.}}

    Selection: [SIDER_ICA_KERNEL=reference] or [=simd] overrides the
    default (read once, at first use); [simd] is silently downgraded to
    [reference] when the CPU lacks AVX2/FMA or the component count
    exceeds {!max_simd_components}.  Golden fixtures that depend on ICA
    output record which kernel produced them and are skipped (not
    failed) when the active kernel differs. *)

open Sider_linalg

type t
(** Sweep state bound to one data matrix: the SIMD path keeps a padded
    copy of [z] plus scratch, so building [t] once per
    {!Fastica.prepare} and sweeping many times is the intended use. *)

val simd_available : unit -> bool
(** CPU supports AVX2 and FMA (probed once; false on non-x86-64). *)

val default_name : unit -> string
(** ["simd"] or ["reference"]: the kernel {!create} will select for any
    supported component count.  Used to tag golden fixtures. *)

val max_simd_components : int
(** Component counts above this always use the reference path (the C
    stubs bound their stack scratch). *)

val create : Mat.t -> t
(** [create z] binds a kernel to the whitened matrix [z].  The caller
    must not mutate [z] afterwards (the SIMD path snapshots it; the
    reference path reads it live). *)

val create_reference : Mat.t -> t
(** Like {!create} but always the portable reference path, regardless of
    CPU and environment — the anchor for byte-identity tests. *)

type mode = Auto | Force_reference | Force_simd

val set_mode : mode -> unit
(** Override the environment/CPU selection for subsequent {!create}
    calls.  A test/bench hook: production code must not flip kernels
    mid-session (golden determinism assumes a stable kernel per
    process).  [Force_simd] still degrades to the reference path when
    the CPU lacks AVX2/FMA. *)

val kernel_name : t -> string
(** Which path this instance actually runs: ["simd"] or ["reference"]. *)

val sweep : t -> w:Mat.t -> gz:Mat.t -> eg:Vec.t -> unit
(** [sweep t ~w ~gz ~eg] overwrites [gz] (m×m) and [eg] (length m) with
    the quantities above.  [w] must be m×m. *)
