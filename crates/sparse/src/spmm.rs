//! Sparse × tall-dense multiply kernels (the `MM` task for sparse inputs).
//!
//! The two products the algorithms need are `A·Hᵀ` (for the `W` update)
//! and `WᵀA` (for the `H` update). Both are computed here with the dense
//! operand and output held in a "k-contiguous" layout — every logical
//! column of the k-dimensional factor is a contiguous row — so each
//! visited nonzero triggers one contiguous axpy of length `k`:
//!
//! * [`spmm_dense_t`]: `V = A·Bᵀ` with `B` given as `Bt` (`n×k`), output
//!   `m×k`. Used as `V = A·Hᵀ` with `Ht`.
//! * [`spmm_at_dense`]: `Y = Aᵀ·W` (`n×k`) for `W` of shape `m×k`. `WᵀA`
//!   is its transpose; the algorithms keep the `n×k` layout throughout and
//!   only reinterpret, never physically transpose.
//!
//! Each kernel performs `2·nnz(A)·k` flops, the count the paper uses for
//! sparse inputs.

use crate::csc::CscView;
use crate::csr::Csr;
use nmf_matrix::gemm::axpy;
use nmf_matrix::Mat;
use rayon::prelude::*;

/// `V = A·Bᵀ` where `A` is `m×n` sparse and `Bt` is `n×k` dense
/// (i.e. `B` is `k×n`). Output is `m×k`.
pub fn spmm_dense_t(a: &Csr, bt: &Mat) -> Mat {
    let mut v = Mat::zeros(a.nrows(), bt.ncols());
    spmm_dense_t_into(a, bt, &mut v);
    v
}

/// `V = A·Bᵀ` into caller-owned `v` (overwritten).
pub fn spmm_dense_t_into(a: &Csr, bt: &Mat, v: &mut Mat) {
    assert_eq!(
        a.ncols(),
        bt.nrows(),
        "spmm_dense_t inner dimension mismatch"
    );
    assert_eq!(
        v.shape(),
        (a.nrows(), bt.ncols()),
        "spmm_dense_t output shape mismatch"
    );
    v.as_mut_slice().fill(0.0);
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let vrow = v.row_mut(i);
        for (&j, &x) in cols.iter().zip(vals) {
            axpy(x, bt.row(j), vrow);
        }
    }
}

/// `Y = Aᵀ·W` where `A` is `m×n` sparse and `W` is `m×k` dense.
/// Output is `n×k` (the transpose of `WᵀA`).
pub fn spmm_at_dense(a: &Csr, w: &Mat) -> Mat {
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    spmm_at_dense_into(a, w, &mut y);
    y
}

/// `Y = Aᵀ·W` into caller-owned `y` (overwritten).
pub fn spmm_at_dense_into(a: &Csr, w: &Mat, y: &mut Mat) {
    assert_eq!(
        a.nrows(),
        w.nrows(),
        "spmm_at_dense inner dimension mismatch"
    );
    assert_eq!(
        y.shape(),
        (a.ncols(), w.ncols()),
        "spmm_at_dense output shape mismatch"
    );
    y.as_mut_slice().fill(0.0);
    let k = w.ncols();
    for i in 0..a.nrows() {
        let (cols, vals) = a.row(i);
        let wrow = w.row(i);
        for (&j, &x) in cols.iter().zip(vals) {
            let yrow = &mut y.as_mut_slice()[j * k..(j + 1) * k];
            axpy(x, wrow, yrow);
        }
    }
}

/// `Y = Aᵀ·W` via the column view: the forward-traversal kernel.
///
/// The CSR pass above scatters one axpy into a different output row per
/// visited nonzero; here each output row `y[j]` is accumulated start to
/// finish while column `j`'s nonzeros stream, so the output is written
/// with perfect locality and only the `W` reads hop (a gather that the
/// hardware prefetcher handles far better than scattered read-modify-
/// write). Values are read through the view's shared-ordering positions
/// — no second copy of the payload exists.
///
/// **Bit-for-bit identical** to [`spmm_at_dense_into`]: for a fixed
/// output row `j`, both kernels add the contributions of rows
/// `i₀ < i₁ < …` in the same ascending order ([`CscView::from_csr`]
/// preserves row order within each column), so every intermediate sum
/// is the same float — including `-0.0` and NaN propagation. The
/// property tests in `tests/csc_props.rs` assert this at the bit level.
pub fn spmm_at_dense_csc_into(a: &Csr, csc: &CscView, w: &Mat, y: &mut Mat) {
    assert_eq!(
        a.nrows(),
        w.nrows(),
        "spmm_at_dense_csc inner dimension mismatch"
    );
    assert_eq!(
        y.shape(),
        (a.ncols(), w.ncols()),
        "spmm_at_dense_csc output shape mismatch"
    );
    debug_assert!(csc.matches(a), "CSC view does not index this CSR");
    let vals = a.values();
    let (m, k) = w.shape();
    y.as_mut_slice().fill(0.0);
    if k == 0 {
        return;
    }
    // Row-panel blocking: restrict each sweep over the columns to the
    // rows of one panel, sized so the panel's slice of `W` (the
    // gathered operand) stays L2-resident. The value gathers then land
    // in one contiguous `nnz(panel)`-sized window of the CSR values
    // array, and each touched output row absorbs all of the panel's
    // contributions in a single visit instead of one scattered
    // read-modify-write per nonzero. Per-column cursors advance
    // monotonically, so every index element is streamed exactly once
    // across all panels (the cursor vector is the only scratch — one
    // `ncols`-word allocation per call, trivial next to the product).
    //
    // Bit-identity with the CSR transposed pass is preserved: panels
    // are visited in ascending row order and rows ascend within each
    // column of a panel, so output row `j` still accumulates rows
    // `i₀ < i₁ < …` in exactly the same order.
    let panel_rows = (csc_panel_bytes() / (8 * k)).max(1);
    let mut cur = vec![0usize; a.ncols()];
    let mut acc = [0.0f64; ACC_WIDTH];
    let mut r0 = 0;
    while r0 < m {
        let r1 = (r0 + panel_rows).min(m);
        for (j, t) in cur.iter_mut().enumerate() {
            let (rows, src) = csc.col(j);
            if *t == rows.len() || rows[*t] >= r1 {
                continue;
            }
            let yrow = y.row_mut(j);
            *t = if k <= ACC_WIDTH {
                // The output row is fixed for the whole segment, so
                // accumulate it in an L1-resident stack buffer and
                // store once — the per-nonzero read-modify-write of a
                // far-away `y` row is what the CSR pass cannot avoid.
                // Same `axpy` calls in the same order, so every
                // intermediate float is unchanged.
                let dst = &mut acc[..k];
                dst.copy_from_slice(yrow);
                let nt = accumulate_segment(rows, src, vals, w, dst, *t, r1);
                yrow.copy_from_slice(dst);
                nt
            } else {
                accumulate_segment(rows, src, vals, w, yrow, *t, r1)
            };
        }
        r0 = r1;
    }
}

/// One column's nonzeros within `[.., r1)` starting at cursor `t`,
/// accumulated into `dst`; returns the advanced cursor.
#[inline(always)]
fn accumulate_segment(
    rows: &[usize],
    src: &[usize],
    vals: &[f64],
    w: &Mat,
    dst: &mut [f64],
    mut t: usize,
    r1: usize,
) -> usize {
    while t < rows.len() && rows[t] < r1 {
        let (i, p) = (rows[t], src[t]);
        // Both gathered streams ascend sparsely — a stride the
        // hardware prefetcher does not track — so fetch a few
        // nonzeros ahead by hand.
        #[cfg(target_arch = "x86_64")]
        if let (Some(&ni), Some(&np)) = (rows.get(t + PREFETCH_DIST), src.get(t + PREFETCH_DIST)) {
            // SAFETY: prefetch has no memory effects; both
            // addresses lie inside live allocations.
            unsafe {
                use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
                _mm_prefetch(vals.as_ptr().add(np) as *const i8, _MM_HINT_T0);
                _mm_prefetch(w.row(ni).as_ptr() as *const i8, _MM_HINT_T0);
            }
        }
        axpy(vals[p], w.row(i), dst);
        t += 1;
    }
    t
}

/// Target footprint of one row panel's `W` slice: half of the probed
/// L2 (leaving room for the output rows and index streams), or half of
/// a typical 2 MiB L2 when the probe is unavailable, or the
/// `NMF_CSC_PANEL_BYTES` environment override verbatim. Resolved once.
/// Panel height only regroups the accumulation — identical `axpy`s in
/// identical order — so this is a pure tuning knob; every float is
/// unchanged under any value (the bit-identity property tests run
/// regardless of what this returns).
fn csc_panel_bytes() -> usize {
    static TARGET: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *TARGET.get_or_init(|| {
        if let Some(v) = std::env::var("NMF_CSC_PANEL_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            return v;
        }
        cache_bytes("index2").map_or(1 << 20, |l2| (l2 / 2).max(4 << 10))
    })
}

/// How many nonzeros ahead the CSC kernel prefetches its two gathered
/// streams (the value and the `W` row). At ~10 cycles of axpy work per
/// nonzero this covers L2/L3 hit latency without thrashing L1.
const PREFETCH_DIST: usize = 8;

/// Widest factor rank the stack accumulator covers (512 bytes — eight
/// cache lines, comfortably L1). Wider ranks fall back to accumulating
/// in the output row directly.
const ACC_WIDTH: usize = 64;

/// Allocating wrapper over [`spmm_at_dense_csc_into`].
pub fn spmm_at_dense_csc(a: &Csr, csc: &CscView, w: &Mat) -> Mat {
    let mut y = Mat::zeros(a.ncols(), w.ncols());
    spmm_at_dense_csc_into(a, csc, w, &mut y);
    y
}

/// `Y = Aᵀ·W` choosing the traversal orientation by output size.
///
/// The two kernels are bit-identical, so the choice is purely a
/// performance call: the CSR transposed pass wins while its scatter
/// target (`Y`, `n×k`) stays cache-resident — every read-modify-write
/// is a cache hit and values stream sequentially — and the CSC forward
/// traversal wins once `Y` outgrows the last-level cache, because it
/// writes each output row with locality (panel-hoisted into an L1
/// accumulator) while its gathers stay panel-local. The crossover is
/// therefore the LLC size, probed from sysfs with an `NMF_CSC_MIN_OUT_BYTES`
/// override for machines where the probe is unavailable or wrong.
pub fn spmm_at_dense_auto_into(a: &Csr, csc: &CscView, w: &Mat, y: &mut Mat) {
    if csc_chosen(a.ncols(), w.ncols()) {
        spmm_at_dense_csc_into(a, csc, w, y);
    } else {
        spmm_at_dense_into(a, w, y);
    }
}

/// Whether [`spmm_at_dense_auto_into`] routes an `n×k` output to the
/// CSC forward kernel. Exposed so benches can report the routing.
pub fn csc_chosen(n: usize, k: usize) -> bool {
    n.saturating_mul(k).saturating_mul(8) > csc_min_out_bytes()
}

/// Output size above which the forward kernel is preferred: the
/// last-level cache size (sysfs), or 32 MiB when unreadable, or the
/// `NMF_CSC_MIN_OUT_BYTES` environment override. Resolved once.
fn csc_min_out_bytes() -> usize {
    static THRESHOLD: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        if let Some(v) = std::env::var("NMF_CSC_MIN_OUT_BYTES")
            .ok()
            .and_then(|v| v.parse().ok())
        {
            return v;
        }
        llc_bytes().unwrap_or(32 << 20)
    })
}

/// Size of the largest cache level reported for cpu0, if readable.
fn llc_bytes() -> Option<usize> {
    cache_bytes("index3").or_else(|| cache_bytes("index2"))
}

/// Size of one cpu0 cache level from sysfs (`index2` is typically L2,
/// `index3` L3), if readable.
fn cache_bytes(index: &str) -> Option<usize> {
    let path = format!("/sys/devices/system/cpu/cpu0/cache/{index}/size");
    let text = std::fs::read_to_string(path).ok()?;
    let text = text.trim();
    let (digits, mult) = match text.as_bytes().last() {
        Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
        Some(b'M') => (&text[..text.len() - 1], 1 << 20),
        _ => (text, 1),
    };
    digits.parse::<usize>().ok().map(|v| v * mult)
}

/// Rayon row-parallel `V = A·Bᵀ` for the standalone (sequential-baseline)
/// path: output rows are independent, so `V` is split into one contiguous
/// row stripe per worker thread and each stripe runs the serial kernel.
/// The distributed ranks use the serial kernels — each virtual-MPI rank
/// is already an OS thread.
pub fn spmm_dense_t_par(a: &Csr, bt: &Mat) -> Mat {
    let mut v = Mat::zeros(a.nrows(), bt.ncols());
    spmm_dense_t_par_into(a, bt, &mut v);
    v
}

/// Row-parallel `V = A·Bᵀ` into caller-owned `v` (overwritten).
pub fn spmm_dense_t_par_into(a: &Csr, bt: &Mat, v: &mut Mat) {
    assert_eq!(
        a.ncols(),
        bt.nrows(),
        "spmm_dense_t inner dimension mismatch"
    );
    assert_eq!(
        v.shape(),
        (a.nrows(), bt.ncols()),
        "spmm_dense_t output shape mismatch"
    );
    let k = bt.ncols();
    if k == 0 {
        return;
    }
    let stripe = a.nrows().div_ceil(rayon::current_num_threads()).max(1);
    v.as_mut_slice()
        .par_chunks_mut(stripe * k)
        .enumerate()
        .for_each(|(ci, vchunk)| {
            vchunk.fill(0.0);
            let r0 = ci * stripe;
            let rows = vchunk.len() / k;
            for local in 0..rows {
                let (cols, vals) = a.row(r0 + local);
                let vrow = &mut vchunk[local * k..(local + 1) * k];
                for (&j, &x) in cols.iter().zip(vals) {
                    axpy(x, bt.row(j), vrow);
                }
            }
        });
}

/// Rayon-parallel `Y = Aᵀ·W` for the standalone path.
///
/// The transpose product scatters along columns, so rows of `Y` cannot be
/// partitioned directly from CSR. Each worker instead reduces a
/// contiguous stripe of `A`'s rows into a private `n×k` accumulator, and
/// the accumulators are summed (itself column-parallel) at the end —
/// the standard row-split + private-accumulator SpMMᵀ scheme. Worth it
/// only when `nnz·k` dominates `threads·n·k`; callers on a hot serial
/// path should prefer [`spmm_at_dense`].
pub fn spmm_at_dense_par(a: &Csr, w: &Mat) -> Mat {
    assert_eq!(
        a.nrows(),
        w.nrows(),
        "spmm_at_dense inner dimension mismatch"
    );
    let n = a.ncols();
    let k = w.ncols();
    let threads = rayon::current_num_threads();
    let stripe = a.nrows().div_ceil(threads).max(1);
    let nstripes = a.nrows().div_ceil(stripe).max(1);
    // Private accumulators, one per stripe, built in parallel.
    let partials: Vec<Mat> = (0..nstripes)
        .into_par_iter()
        .map(|si| {
            let mut y = Mat::zeros(n, k);
            let r0 = si * stripe;
            let r1 = ((si + 1) * stripe).min(a.nrows());
            let ym = y.as_mut_slice();
            for i in r0..r1 {
                let (cols, vals) = a.row(i);
                let wrow = w.row(i);
                for (&j, &x) in cols.iter().zip(vals) {
                    axpy(x, wrow, &mut ym[j * k..(j + 1) * k]);
                }
            }
            y
        })
        .collect();
    // Sum the partials, parallel over row stripes of Y.
    let mut y = Mat::zeros(n, k);
    if k > 0 && n > 0 {
        let ystripe = n.div_ceil(threads).max(1);
        y.as_mut_slice()
            .par_chunks_mut(ystripe * k)
            .enumerate()
            .for_each(|(ci, ychunk)| {
                let off = ci * ystripe * k;
                for p in &partials {
                    let src = &p.as_slice()[off..off + ychunk.len()];
                    for (yv, sv) in ychunk.iter_mut().zip(src) {
                        *yv += sv;
                    }
                }
            });
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::gemm::{matmul_ta, matmul_tb};
    use nmf_matrix::rng::Fill;

    fn random_sparse(m: usize, n: usize, seed: u64) -> Csr {
        let mut d = Mat::uniform(m, n, seed);
        for (idx, v) in d.as_mut_slice().iter_mut().enumerate() {
            if idx % 4 != 0 {
                *v = 0.0;
            }
        }
        Csr::from_dense(&d)
    }

    #[test]
    fn a_ht_matches_dense() {
        let a = random_sparse(14, 9, 61);
        let ht = Mat::uniform(9, 5, 62); // Hᵀ, n×k
        let v = spmm_dense_t(&a, &ht);
        // Dense reference: A · (Htᵀ)ᵀ = A·Hᵀ with H = htᵀ.
        let expect = matmul_tb(&a.to_dense(), &ht.transpose());
        assert!(v.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn at_w_matches_dense() {
        let a = random_sparse(11, 13, 63);
        let w = Mat::uniform(11, 4, 64);
        let y = spmm_at_dense(&a, &w);
        let expect = matmul_ta(&a.to_dense(), &w);
        assert!(y.max_abs_diff(&expect) < 1e-12);
    }

    #[test]
    fn csc_kernel_is_bit_identical_to_csr_pass() {
        for &(m, n, k) in &[(11usize, 13usize, 4usize), (40, 27, 7), (3, 50, 1)] {
            let a = random_sparse(m, n, (m * n) as u64);
            let csc = CscView::from_csr(&a);
            let w = Mat::uniform(m, k, 64);
            let y_csr = spmm_at_dense(&a, &w);
            let y_csc = spmm_at_dense_csc(&a, &csc, &w);
            let same = y_csr
                .as_slice()
                .iter()
                .zip(y_csc.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "CSC kernel diverged bitwise at {m}x{n}x{k}");
        }
    }

    #[test]
    fn empty_matrix_yields_zero() {
        let a = Csr::empty(5, 7);
        let ht = Mat::uniform(7, 3, 65);
        assert_eq!(spmm_dense_t(&a, &ht), Mat::zeros(5, 3));
        let w = Mat::uniform(5, 3, 66);
        assert_eq!(spmm_at_dense(&a, &w), Mat::zeros(7, 3));
    }

    #[test]
    fn into_variants_overwrite() {
        let a = random_sparse(6, 6, 67);
        let ht = Mat::uniform(6, 2, 68);
        let mut v = Mat::filled(6, 2, f64::NAN);
        spmm_dense_t_into(&a, &ht, &mut v);
        assert!(v.all_finite());
    }

    #[test]
    fn parallel_kernels_match_serial() {
        for &(m, n, k) in &[
            (53usize, 47usize, 5usize),
            (200, 160, 16),
            (3, 2, 1),
            (17, 300, 8),
        ] {
            let a = random_sparse(m, n, (m + n) as u64);
            let bt = Mat::uniform(n, k, 71);
            let serial = spmm_dense_t(&a, &bt);
            assert!(
                spmm_dense_t_par(&a, &bt).max_abs_diff(&serial) < 1e-12,
                "spmm_dense_t_par diverged at {m}x{n}x{k}"
            );
            let mut v = Mat::filled(m, k, f64::NAN);
            spmm_dense_t_par_into(&a, &bt, &mut v);
            assert!(v.max_abs_diff(&serial) < 1e-12);

            let w = Mat::uniform(m, k, 72);
            let serial_t = spmm_at_dense(&a, &w);
            assert!(
                spmm_at_dense_par(&a, &w).max_abs_diff(&serial_t) < 1e-12,
                "spmm_at_dense_par diverged at {m}x{n}x{k}"
            );
        }
    }

    #[test]
    fn parallel_kernels_handle_empty() {
        let a = Csr::empty(5, 7);
        let ht = Mat::uniform(7, 3, 73);
        assert_eq!(spmm_dense_t_par(&a, &ht), Mat::zeros(5, 3));
        let w = Mat::uniform(5, 3, 74);
        assert_eq!(spmm_at_dense_par(&a, &w), Mat::zeros(7, 3));
    }
}
