//! Dense matrix-multiply kernels: packed SIMD GEMM with runtime dispatch.
//!
//! Three transpose combinations cover everything the NMF algorithms need:
//!
//! * `C = A·B`   — reconstruction `W·H`, and `A·Hᵀ` (the left-factor
//!   update input, with `Hᵀ` stored row-major);
//! * `C = Aᵀ·B`  — `WᵀA` (the right-factor update input);
//! * `C = A·Bᵀ`  — dot-product form, used for `X·G` with symmetric `G`.
//!
//! # Performance notes
//!
//! The primary entry points ([`matmul_into`], [`matmul_ta_into`],
//! [`matmul_par_into`], [`matmul_packed_into`]) all run the full
//! GotoBLAS decomposition (Goto & van de Geijn, *Anatomy of
//! High-Performance Matrix Multiplication*):
//!
//! 1. **Packing** ([`pack`](crate::pack)): the left operand is packed
//!    into `MR×KC` depth-major panels, the right operand into `KC×NR`
//!    tiles, so the microkernel's inner step is two contiguous loads
//!    with zero-padded edges (no strides, no remainder branches).
//! 2. **Microkernel** ([`simd`]): an `MR×NR` register
//!    block of `C` accumulates across a whole `KC`-deep panel. On
//!    AVX2+FMA hosts this is a 6×8 intrinsics kernel (twelve `ymm`
//!    accumulators saturating both FMA ports); elsewhere a portable 4×8
//!    scalar kernel that LLVM autovectorizes. The choice is made once
//!    per process (`is_x86_feature_detected!`, cached in a `OnceLock`)
//!    and can be pinned to the fallback with `NMF_FORCE_SCALAR=1`.
//! 3. **Amortized packing**: `B` tiles are packed per call into
//!    thread-local scratch that grows once and is reused; the left
//!    operand can be packed **once per session** into a
//!    [`PackedPanels`] and passed to [`matmul_packed_into`] — the ANLS
//!    win from the paper: the data matrix never changes across
//!    iterations, so `crates/core` packs it (and its transpose) at
//!    engine construction and every iteration reads only packed panels.
//!
//! `C = Aᵀ·B` needs no transpose materialization:
//! [`PackedPanels::pack_transposed`] emits the same panel format while
//! reading `A` row-by-row in `MR`-wide contiguous chunks.
//!
//! `*_into` variants write into caller-owned storage so per-iteration
//! workspaces can be reused; the allocating wrappers exist for
//! convenience at call sites that are not on a hot path.
//!
//! [`matmul_par`] provides a rayon row-parallel GEMM for *standalone*
//! (sequential-baseline) use: each worker packs and multiplies its own
//! contiguous stripe of `C`. The distributed ranks deliberately use the
//! serial kernels: each virtual-MPI rank is already an OS thread, and
//! nesting rayon inside them would oversubscribe the machine.

use crate::mat::Mat;
use crate::pack::{pack_b_block, PackedPanels, KC, NR};
use crate::simd;
use rayon::prelude::*;
use std::cell::RefCell;

thread_local! {
    /// Per-thread packing scratch: grows to the largest operands seen,
    /// then every subsequent GEMM on this thread packs into the same
    /// storage — steady-state iterations allocate nothing.
    static SCRATCH: RefCell<GemmScratch> = RefCell::new(GemmScratch::default());
}

#[derive(Default)]
struct GemmScratch {
    apack: PackedPanels,
    bpack: Vec<f64>,
}

/// `C = A·B`, allocating the output.
///
/// # Panics
/// Panics on inner-dimension mismatch.
pub fn matmul(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    matmul_into(a, b, &mut c);
    c
}

/// `C = A·B` into caller-owned `c` (overwritten). Packs both operands
/// and runs the dispatched SIMD microkernel; see the module docs.
pub fn matmul_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.nrows(), b.ncols()),
        "matmul output shape mismatch"
    );
    c.as_mut_slice().fill(0.0);
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        scratch.apack.pack_into(a);
        gemm_packed(
            &scratch.apack,
            b.as_slice(),
            b.ncols(),
            c.as_mut_slice(),
            &mut scratch.bpack,
        );
    });
}

/// `C = P·B` where `P` is a pre-packed left operand (see
/// [`PackedPanels`]): the steady-state entry point — no repacking of
/// `P`, only the (cheap, `kdim×n`) `B` tiles are packed per call.
///
/// # Panics
/// Panics on shape mismatch, or if `p` was packed under a different
/// kernel dispatch than the currently active one (impossible within one
/// process — dispatch is cached — but guarded for clarity).
pub fn matmul_packed_into(p: &PackedPanels, b: &Mat, c: &mut Mat) {
    SCRATCH.with(|s| {
        matmul_packed_scratch_into(p, b, c, &mut s.borrow_mut().bpack);
    });
}

/// [`matmul_packed_into`] with caller-owned `B`-tile scratch instead of
/// the thread-local buffer. Hot-loop callers that must not touch any
/// hidden allocation (the engine's counting-allocator invariant) hold
/// the scratch in their workspace, pre-sized via
/// [`PackedPanels::b_scratch_len`], so steady-state calls allocate
/// nothing — including on the very first iteration.
///
/// # Panics
/// Same contract as [`matmul_packed_into`].
pub fn matmul_packed_scratch_into(p: &PackedPanels, b: &Mat, c: &mut Mat, bpack: &mut Vec<f64>) {
    let (m, kdim) = p.shape();
    assert_eq!(kdim, b.nrows(), "matmul_packed inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (m, b.ncols()),
        "matmul_packed output shape mismatch"
    );
    assert_eq!(
        p.mr(),
        simd::active().mr,
        "packed panels built for a different microkernel geometry"
    );
    c.as_mut_slice().fill(0.0);
    gemm_packed(p, b.as_slice(), b.ncols(), c.as_mut_slice(), bpack);
}

/// The packed GEMM driver: `c += P·b` where `P` is the packed `m×kdim`
/// left operand, `b` is `kdim×n` row-major, `c` is `m×n` (leading
/// dimension `n`, pre-initialized). For each `KC`-deep block, packs the
/// corresponding `B` rows into `KC×NR` tiles in `bpack`, then sweeps
/// `MR`-row panels × `NR`-column tiles through the dispatched
/// microkernel. Accumulators live in registers for the whole block;
/// edge tiles are handled by the kernels' clipped store phase (the
/// packed zero-padding makes the extra multiply-adds exact `+0.0`s).
fn gemm_packed(p: &PackedPanels, b: &[f64], n: usize, c: &mut [f64], bpack: &mut Vec<f64>) {
    let (m, kdim) = p.shape();
    debug_assert_eq!(b.len(), kdim * n);
    debug_assert_eq!(c.len(), m * n);
    if m == 0 || n == 0 || kdim == 0 {
        return;
    }
    let cfg = simd::active();
    let mr = p.mr();
    debug_assert_eq!(mr, cfg.mr);
    let ntiles = n.div_ceil(NR);
    let mut k0 = 0;
    while k0 < kdim {
        let kc = KC.min(kdim - k0);
        pack_b_block(b, n, k0, kc, bpack);
        let mut i0 = 0;
        while i0 < m {
            let mr_eff = mr.min(m - i0);
            let pa = p.panel(k0, kc, i0);
            for jt in 0..ntiles {
                let j0 = jt * NR;
                let nr_eff = NR.min(n - j0);
                let pbt = &bpack[jt * NR * kc..(jt + 1) * NR * kc];
                match cfg.path {
                    #[cfg(target_arch = "x86_64")]
                    simd::KernelPath::Avx2Fma => {
                        // SAFETY: the Avx2Fma path is only selected after
                        // `is_x86_feature_detected!("avx2")`/`("fma")`
                        // succeed; `pa` is a full `mr*kc` panel, `pbt` a
                        // full `NR*kc` tile, and the `c` tile starting at
                        // `i0*n + j0` is valid for `mr_eff` rows of
                        // `nr_eff` elements at row stride `n`.
                        unsafe {
                            simd::kernel_6x8_avx2(
                                pa.as_ptr(),
                                pbt.as_ptr(),
                                kc,
                                c.as_mut_ptr().add(i0 * n + j0),
                                n,
                                mr_eff,
                                nr_eff,
                            );
                        }
                    }
                    _ => simd::kernel_4x8_scalar(
                        pa,
                        pbt,
                        kc,
                        &mut c[i0 * n + j0..],
                        n,
                        mr_eff,
                        nr_eff,
                    ),
                }
            }
            i0 += mr;
        }
        k0 += kc;
    }
}

/// `C = Aᵀ·B`, allocating the output. `A` is `m×k`, `B` is `m×n`, `C` is `k×n`.
pub fn matmul_ta(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.ncols(), b.ncols());
    matmul_ta_into(a, b, &mut c);
    c
}

/// `C = Aᵀ·B` into caller-owned `c` (overwritten). Packs `Aᵀ` directly
/// from `A`'s rows (no transpose materialization) and runs the same
/// dispatched packed kernel as [`matmul_into`].
pub fn matmul_ta_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.nrows(), b.nrows(), "matmul_ta inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.ncols(), b.ncols()),
        "matmul_ta output shape mismatch"
    );
    c.as_mut_slice().fill(0.0);
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        scratch.apack.pack_transposed_into(a);
        gemm_packed(
            &scratch.apack,
            b.as_slice(),
            b.ncols(),
            c.as_mut_slice(),
            &mut scratch.bpack,
        );
    });
}

/// `C = A·Bᵀ`, allocating the output. `A` is `m×n`, `B` is `k×n`, `C` is `m×k`.
pub fn matmul_tb(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.nrows());
    matmul_tb_into(a, b, &mut c);
    c
}

/// `C = A·Bᵀ` into caller-owned `c` (overwritten).
///
/// Each output entry is a dot product of two contiguous rows; four
/// output columns are computed per pass (via the dispatched [`dot4`])
/// so the `A` row streams once per four rows of `B`.
pub fn matmul_tb_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.ncols(), b.ncols(), "matmul_tb inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.nrows(), b.nrows()),
        "matmul_tb output shape mismatch"
    );
    let k = b.nrows();
    let k4 = k - k % 4;
    for i in 0..a.nrows() {
        let arow = a.row(i);
        let crow = c.row_mut(i);
        let mut j = 0;
        while j < k4 {
            let (s0, s1, s2, s3) = dot4(arow, b.row(j), b.row(j + 1), b.row(j + 2), b.row(j + 3));
            crow[j] = s0;
            crow[j + 1] = s1;
            crow[j + 2] = s2;
            crow[j + 3] = s3;
            j += 4;
        }
        for (jj, cv) in crow.iter_mut().enumerate().skip(k4) {
            *cv = dot(arow, b.row(jj));
        }
    }
}

/// Rayon row-parallel `C = A·B` for standalone use (see module docs).
/// Same packed dispatched kernel as [`matmul_into`], with the rows of
/// `C` split into one contiguous stripe per worker thread (each worker
/// packs its own operand stripe into its thread-local scratch).
pub fn matmul_par(a: &Mat, b: &Mat) -> Mat {
    let mut c = Mat::zeros(a.nrows(), b.ncols());
    matmul_par_into(a, b, &mut c);
    c
}

/// Row-parallel `C = A·B` into caller-owned `c` (overwritten).
pub fn matmul_par_into(a: &Mat, b: &Mat, c: &mut Mat) {
    assert_eq!(a.ncols(), b.nrows(), "matmul inner dimension mismatch");
    assert_eq!(
        c.shape(),
        (a.nrows(), b.ncols()),
        "matmul output shape mismatch"
    );
    let m = a.nrows();
    let kdim = a.ncols();
    let n = b.ncols();
    c.as_mut_slice().fill(0.0);
    if m == 0 || n == 0 {
        return; // empty output; chunking by stripe * n would be ill-formed
    }
    // At least four rows per worker, so a stripe is never a sliver.
    const MIN_STRIPE: usize = 4;
    let stripe = m.div_ceil(rayon::current_num_threads()).max(MIN_STRIPE);
    let aslice = a.as_slice();
    let bslice = b.as_slice();
    c.as_mut_slice()
        .par_chunks_mut(stripe * n)
        .enumerate()
        .for_each(|(ci, cchunk)| {
            let r0 = ci * stripe;
            let rows = cchunk.len() / n;
            SCRATCH.with(|s| {
                let scratch = &mut *s.borrow_mut();
                scratch
                    .apack
                    .pack_slice_into(&aslice[r0 * kdim..(r0 + rows) * kdim], rows, kdim);
                gemm_packed(&scratch.apack, bslice, n, cchunk, &mut scratch.bpack);
            });
        });
}

/// `y += alpha * x` over equal-length slices.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Minimum slice length before the dispatched dot products reach for
/// the AVX2 path; below this the call overhead dominates.
const DOT_SIMD_MIN: usize = 32;

/// Dot product of two equal-length slices. Dispatches to the AVX2+FMA
/// reduction for long slices; otherwise 4-way unrolled scalar.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    #[cfg(target_arch = "x86_64")]
    if x.len() >= DOT_SIMD_MIN && simd::active().path == simd::KernelPath::Avx2Fma {
        // SAFETY: the Avx2Fma path implies the detector observed AVX2
        // and FMA support on this CPU.
        return unsafe { simd::dot_avx2(x, y) };
    }
    let chunks = x.len() / 4;
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for c in 0..chunks {
        let i = c * 4;
        s0 += x[i] * y[i];
        s1 += x[i + 1] * y[i + 1];
        s2 += x[i + 2] * y[i + 2];
        s3 += x[i + 3] * y[i + 3];
    }
    let mut s = s0 + s1 + s2 + s3;
    for i in chunks * 4..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// Four simultaneous dot products sharing the left operand: returns
/// `(x·y0, x·y1, x·y2, x·y3)`. `x` streams through cache once; long
/// slices dispatch to the AVX2+FMA quad reduction.
#[inline]
pub fn dot4(x: &[f64], y0: &[f64], y1: &[f64], y2: &[f64], y3: &[f64]) -> (f64, f64, f64, f64) {
    debug_assert!(
        x.len() == y0.len() && x.len() == y1.len() && x.len() == y2.len() && x.len() == y3.len()
    );
    #[cfg(target_arch = "x86_64")]
    if x.len() >= DOT_SIMD_MIN && simd::active().path == simd::KernelPath::Avx2Fma {
        // SAFETY: the Avx2Fma path implies the detector observed AVX2
        // and FMA support on this CPU.
        return unsafe { simd::dot4_avx2(x, y0, y1, y2, y3) };
    }
    let (mut s0, mut s1, mut s2, mut s3) = (0.0, 0.0, 0.0, 0.0);
    for i in 0..x.len() {
        let xv = x[i];
        s0 += xv * y0[i];
        s1 += xv * y1[i];
        s2 += xv * y2[i];
        s3 += xv * y3[i];
    }
    (s0, s1, s2, s3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Fill;

    fn naive_matmul(a: &Mat, b: &Mat) -> Mat {
        let mut c = Mat::zeros(a.nrows(), b.ncols());
        for i in 0..a.nrows() {
            for j in 0..b.ncols() {
                let mut s = 0.0;
                for kk in 0..a.ncols() {
                    s += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = s;
            }
        }
        c
    }

    #[test]
    fn matmul_matches_naive() {
        let a = Mat::uniform(17, 9, 42);
        let b = Mat::uniform(9, 13, 43);
        let c = matmul(&a, &b);
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn dispatched_matches_naive_across_edge_shapes() {
        // Shapes chosen to exercise every remainder path of both MR
        // geometries (4 and 6) and the NR/KC boundaries.
        for &(m, kk, n) in &[
            (1usize, 1usize, 1usize),
            (4, 8, 8),
            (5, 3, 9),
            (6, 12, 16),
            (7, 300, 17),
            (8, 256, 8),
            (9, 257, 31),
            (12, 511, 33),
            (13, 40, 7),
            (64, 513, 40),
        ] {
            let a = Mat::uniform(m, kk, (m * 1000 + n) as u64);
            let b = Mat::uniform(kk, n, (n * 1000 + kk) as u64);
            let expect = naive_matmul(&a, &b);
            let c = matmul(&a, &b);
            assert!(
                c.max_abs_diff(&expect) < 1e-10,
                "dispatched GEMM wrong at {m}x{kk}x{n}"
            );
        }
    }

    #[test]
    fn prepacked_matches_dispatched() {
        for &(m, kk, n) in &[(5usize, 3usize, 9usize), (48, 300, 17), (64, 257, 40)] {
            let a = Mat::uniform(m, kk, 77);
            let b = Mat::uniform(kk, n, 78);
            let p = PackedPanels::pack(&a);
            let mut c = Mat::zeros(m, n);
            matmul_packed_into(&p, &b, &mut c);
            assert!(
                c.max_abs_diff(&matmul(&a, &b)) < 1e-12,
                "prepacked GEMM wrong at {m}x{kk}x{n}"
            );
        }
    }

    #[test]
    fn matmul_ta_matches_explicit_transpose() {
        for &(m, k, n) in &[
            (23usize, 7usize, 11usize),
            (24, 8, 8),
            (25, 9, 13),
            (300, 6, 10),
            (3, 2, 2),
        ] {
            let a = Mat::uniform(m, k, 1);
            let b = Mat::uniform(m, n, 2);
            let c = matmul_ta(&a, &b);
            let expect = naive_matmul(&a.transpose(), &b);
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "matmul_ta wrong at {m}x{k}x{n}"
            );
            let p = PackedPanels::pack_transposed(&a);
            let mut cp = Mat::zeros(k, n);
            matmul_packed_into(&p, &b, &mut cp);
            assert!(
                cp.max_abs_diff(&expect) < 1e-12,
                "prepacked matmul_ta wrong at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_tb_matches_explicit_transpose() {
        for &(m, k, n) in &[(19usize, 5usize, 8usize), (19, 8, 8), (6, 9, 4), (2, 1, 3)] {
            let a = Mat::uniform(m, n, 3);
            let b = Mat::uniform(k, n, 4);
            let c = matmul_tb(&a, &b);
            let expect = naive_matmul(&a, &b.transpose());
            assert!(
                c.max_abs_diff(&expect) < 1e-12,
                "matmul_tb wrong at {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn matmul_par_handles_empty_output() {
        let a = Mat::uniform(5, 4, 50);
        let b = Mat::zeros(4, 0);
        assert_eq!(matmul_par(&a, &b).shape(), (5, 0));
        let a0 = Mat::zeros(0, 4);
        let b2 = Mat::uniform(4, 3, 51);
        assert_eq!(matmul_par(&a0, &b2).shape(), (0, 3));
    }

    #[test]
    fn matmul_par_matches_serial() {
        for &(m, kk, n) in &[(31usize, 15usize, 9usize), (128, 64, 32), (3, 5, 2)] {
            let a = Mat::uniform(m, kk, 5);
            let b = Mat::uniform(kk, n, 6);
            assert!(matmul_par(&a, &b).max_abs_diff(&matmul(&a, &b)) < 1e-12);
        }
    }

    #[test]
    fn into_variants_reuse_storage() {
        let a = Mat::uniform(6, 4, 7);
        let b = Mat::uniform(4, 5, 8);
        let mut c = Mat::filled(6, 5, f64::NAN);
        matmul_into(&a, &b, &mut c);
        assert!(c.all_finite());
        assert!(c.max_abs_diff(&naive_matmul(&a, &b)) < 1e-12);
    }

    #[test]
    fn identity_is_neutral() {
        let a = Mat::uniform(9, 9, 10);
        assert!(matmul(&a, &Mat::eye(9)).max_abs_diff(&a) < 1e-15);
        assert!(matmul(&Mat::eye(9), &a).max_abs_diff(&a) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "inner dimension")]
    fn mismatched_dims_panic() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        matmul(&a, &b);
    }

    #[test]
    fn dot_handles_remainders() {
        for n in 0..10 {
            let x: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let y: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let expect: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot(&x, &y), expect);
        }
    }

    #[test]
    fn dot4_matches_four_dots() {
        for len in [5usize, 37, 64, 130] {
            let x = Mat::uniform(1, len, 11);
            let ys = Mat::uniform(4, len, 12);
            let (s0, s1, s2, s3) = dot4(x.row(0), ys.row(0), ys.row(1), ys.row(2), ys.row(3));
            for (got, j) in [(s0, 0), (s1, 1), (s2, 2), (s3, 3)] {
                assert!((got - dot(x.row(0), ys.row(j))).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn negative_zero_and_nan_propagate_through_edge_tiles() {
        // The edge tiles must not skip explicit zeros: a NaN in B must
        // poison the product even when the matching A entry is 0.0.
        let mut a = Mat::zeros(3, 2); // 3 rows → edge tile under both MRs
        a[(0, 0)] = 0.0;
        a[(0, 1)] = 1.0;
        let mut b = Mat::zeros(2, 3); // 3 cols → NR edge tile
        b[(0, 0)] = f64::NAN;
        b[(1, 1)] = 2.0;
        let c = matmul(&a, &b);
        assert!(c[(0, 0)].is_nan(), "0.0·NaN must propagate, not be skipped");
        assert_eq!(c[(0, 1)], 2.0);
    }
}
