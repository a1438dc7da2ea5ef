//! Property-based equivalence of every GEMM path against a naive
//! triple loop, on randomized shapes chosen to straddle the microkernel
//! geometry boundaries: `MR` (4 scalar / 6 AVX2), `NR = 8`, and the
//! `KC = 256` depth blocking.
//!
//! All paths compute the same sums in different association orders, so
//! agreement is to a tolerance scaled well below the 1e-10 the kernel
//! contract promises on O(1) entries. Which SIMD path runs depends on
//! the host (and `NMF_FORCE_SCALAR`); the properties hold under either
//! dispatch — CI runs this suite both ways.

use nmf_matrix::rng::Fill;
use nmf_matrix::{
    matmul_into, matmul_packed_into, matmul_packed_scratch_into, matmul_par_into, matmul_ta_into,
    matmul_tb_into, Mat, PackedPanels,
};
use proptest::prelude::*;

const TOL: f64 = 1e-10;

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

/// Dimension straddling the register-block edges: values within ±2 of
/// each MR/NR multiple, plus tiny and awkward primes.
fn edge_dim(raw: usize) -> usize {
    const EDGES: [usize; 14] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17];
    EDGES[raw % EDGES.len()]
}

/// Inner dimension straddling the `KC = 256` depth blocking.
fn edge_kdim(raw: usize) -> usize {
    const EDGES: [usize; 10] = [1, 3, 8, 31, 64, 255, 256, 257, 300, 511];
    EDGES[raw % EDGES.len()]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn all_gemm_paths_match_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        let m = edge_dim(mraw);
        let kdim = edge_kdim(kraw);
        let n = edge_dim(nraw);
        let a = Mat::uniform(m, kdim, seed);
        let b = Mat::uniform(kdim, n, seed + 1);
        let expect = naive_matmul(&a, &b);
        // Tolerance scaled by the inner-dimension magnitude.
        let tol = TOL * (kdim as f64);

        let mut c = Mat::zeros(m, n);
        matmul_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "dispatched {m}x{kdim}x{n}");

        matmul_par_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "par {m}x{kdim}x{n}");

        let p = PackedPanels::pack(&a);
        matmul_packed_into(&p, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "prepacked {m}x{kdim}x{n}");

        // Caller-owned scratch (the engine's workspace path), entered
        // cold to prove the pre-size bound is merely an optimization.
        let mut scratch = Vec::new();
        matmul_packed_scratch_into(&p, &b, &mut c, &mut scratch);
        prop_assert!(c.max_abs_diff(&expect) < tol, "packed+scratch {m}x{kdim}x{n}");
    }

    #[test]
    fn transposed_paths_match_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        // C = Aᵀ·B with A of shape inner×m (inner is the big dimension).
        let m = edge_dim(mraw);
        let inner = edge_kdim(kraw);
        let n = edge_dim(nraw);
        let a = Mat::uniform(inner, m, seed);
        let b = Mat::uniform(inner, n, seed + 1);
        let expect = naive_matmul(&a.transpose(), &b);
        let tol = TOL * (inner as f64);

        let mut c = Mat::zeros(m, n);
        matmul_ta_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "ta dispatched {m}x{inner}x{n}");

        let p = PackedPanels::pack_transposed(&a);
        matmul_packed_into(&p, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "ta prepacked {m}x{inner}x{n}");
    }

    #[test]
    fn dot_form_matches_naive(
        mraw in 0usize..100,
        kraw in 0usize..100,
        nraw in 0usize..100,
        seed in 0u64..10_000,
    ) {
        // C = A·Bᵀ: every entry a row-row dot product (exercises the
        // dispatched dot/dot4 reductions across the SIMD length cutoff).
        let m = edge_dim(mraw);
        let k = edge_dim(nraw);
        let inner = edge_kdim(kraw);
        let a = Mat::uniform(m, inner, seed);
        let b = Mat::uniform(k, inner, seed + 1);
        let expect = naive_matmul(&a, &b.transpose());
        let tol = TOL * (inner as f64);

        let mut c = Mat::zeros(m, k);
        matmul_tb_into(&a, &b, &mut c);
        prop_assert!(c.max_abs_diff(&expect) < tol, "tb {m}x{inner}x{k}");
    }
}
