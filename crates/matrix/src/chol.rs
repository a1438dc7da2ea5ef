//! Cholesky factorization and SPD solves.
//!
//! The normal-equation systems inside every NLS solver are `k×k` symmetric
//! positive (semi-)definite with `k ≤ ~100`, so an unblocked Cholesky is
//! plenty. A small diagonal shift fallback handles the semidefinite edge
//! case that arises when a factor matrix temporarily loses column rank
//! (common in early NMF iterations).

use crate::mat::Mat;

/// Failure of a Cholesky factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CholError {
    /// The matrix is not positive definite (a pivot was `<= 0` or NaN),
    /// reported with the offending pivot index.
    NotPositiveDefinite(usize),
    /// The input is not square.
    NotSquare,
}

impl std::fmt::Display for CholError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CholError::NotPositiveDefinite(i) => {
                write!(f, "matrix is not positive definite (pivot {i})")
            }
            CholError::NotSquare => write!(f, "matrix is not square"),
        }
    }
}

impl std::error::Error for CholError {}

/// Computes the lower-triangular `L` with `A = L·Lᵀ`.
///
/// Only the lower triangle of `A` is read.
pub fn cholesky(a: &Mat) -> Result<Mat, CholError> {
    let mut l = Mat::zeros(a.nrows(), a.nrows());
    cholesky_into(a, &mut l)?;
    Ok(l)
}

/// [`cholesky`] into caller-owned `l` (resized as needed) — the
/// workspace variant used by the NLS hot path.
///
/// Only the lower triangle and diagonal of `l` are written (and only
/// those are read by the solve routines); when `l` is a reused buffer of
/// matching shape its strict upper triangle keeps stale values.
// `!(d > 0.0)` is deliberate: it also catches NaN pivots.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
pub fn cholesky_into(a: &Mat, l: &mut Mat) -> Result<(), CholError> {
    if a.nrows() != a.ncols() {
        return Err(CholError::NotSquare);
    }
    let n = a.nrows();
    l.resize(n, n);
    for j in 0..n {
        // d = A[j,j] - sum_{k<j} L[j,k]^2
        let mut d = a[(j, j)];
        for k in 0..j {
            d -= l[(j, k)] * l[(j, k)];
        }
        if !(d > 0.0) {
            return Err(CholError::NotPositiveDefinite(j));
        }
        let djj = d.sqrt();
        l[(j, j)] = djj;
        for i in j + 1..n {
            let mut s = a[(i, j)];
            for k in 0..j {
                s -= l[(i, k)] * l[(j, k)];
            }
            l[(i, j)] = s / djj;
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·X = B` for `X` given the Cholesky factor `L`. `B` is
/// `n×r` (multi-right-hand-side).
pub fn cholesky_solve(l: &Mat, b: &Mat) -> Mat {
    let mut x = b.clone();
    cholesky_solve_in_place(l, &mut x);
    x
}

/// Right-hand-side columns processed per batched substitution sweep:
/// an 8-wide accumulator block stays in registers across the whole
/// triangular sweep.
const NC: usize = 8;

/// Solves `L·Lᵀ·X = B` in place: `b` holds `B` on entry and `X` on exit.
/// The workspace variant — no allocation.
///
/// Batched over right-hand sides: the columns are processed in
/// `NC = 8`-wide blocks, each forward/backward sweep keeping its block of
/// partial solutions in a register accumulator — every `X` row is read
/// once and written once per sweep, instead of once per `(i, k)` pair
/// as in the column-at-a-time form.
pub fn cholesky_solve_in_place(l: &Mat, b: &mut Mat) {
    assert_eq!(l.nrows(), l.ncols());
    assert_eq!(l.nrows(), b.nrows(), "rhs row count mismatch");
    let n = l.nrows();
    let r = b.ncols();
    if n == 0 || r == 0 {
        return;
    }
    let mut c0 = 0;
    while c0 < r {
        let nc = NC.min(r - c0);
        if nc == NC {
            solve_sweep_full(l, b, c0);
        } else {
            solve_sweep_edge(l, b, c0, nc);
        }
        c0 += NC;
    }
}

/// One full `NC`-column forward+backward sweep starting at column `c0`.
fn solve_sweep_full(l: &Mat, b: &mut Mat, c0: usize) {
    let n = l.nrows();
    let ldx = b.ncols();
    let x = b.as_mut_slice();
    // Forward substitution: L·Y = B.
    for i in 0..n {
        let li = l.row(i);
        let mut acc: [f64; NC] = x[i * ldx + c0..i * ldx + c0 + NC]
            .try_into()
            .expect("NC-wide block");
        for (k, &lik) in li[..i].iter().enumerate() {
            let xk = &x[k * ldx + c0..k * ldx + c0 + NC];
            for (a, &v) in acc.iter_mut().zip(xk) {
                *a -= lik * v;
            }
        }
        let d = li[i];
        for (dst, a) in x[i * ldx + c0..i * ldx + c0 + NC].iter_mut().zip(acc) {
            *dst = a / d;
        }
    }
    // Backward substitution: Lᵀ·X = Y.
    for i in (0..n).rev() {
        let mut acc: [f64; NC] = x[i * ldx + c0..i * ldx + c0 + NC]
            .try_into()
            .expect("NC-wide block");
        for k in i + 1..n {
            let lki = l.row(k)[i];
            let xk = &x[k * ldx + c0..k * ldx + c0 + NC];
            for (a, &v) in acc.iter_mut().zip(xk) {
                *a -= lki * v;
            }
        }
        let d = l.row(i)[i];
        for (dst, a) in x[i * ldx + c0..i * ldx + c0 + NC].iter_mut().zip(acc) {
            *dst = a / d;
        }
    }
}

/// Remainder sweep for the final `nc < NC` columns (same algorithm with
/// a runtime-width accumulator prefix).
fn solve_sweep_edge(l: &Mat, b: &mut Mat, c0: usize, nc: usize) {
    let n = l.nrows();
    let ldx = b.ncols();
    let x = b.as_mut_slice();
    let mut acc = [0.0f64; NC];
    for i in 0..n {
        let li = l.row(i);
        acc[..nc].copy_from_slice(&x[i * ldx + c0..i * ldx + c0 + nc]);
        for (k, &lik) in li[..i].iter().enumerate() {
            let xk = &x[k * ldx + c0..k * ldx + c0 + nc];
            for (a, &v) in acc[..nc].iter_mut().zip(xk) {
                *a -= lik * v;
            }
        }
        let d = li[i];
        for (dst, &a) in x[i * ldx + c0..i * ldx + c0 + nc].iter_mut().zip(&acc) {
            *dst = a / d;
        }
    }
    for i in (0..n).rev() {
        acc[..nc].copy_from_slice(&x[i * ldx + c0..i * ldx + c0 + nc]);
        for k in i + 1..n {
            let lki = l.row(k)[i];
            let xk = &x[k * ldx + c0..k * ldx + c0 + nc];
            for (a, &v) in acc[..nc].iter_mut().zip(xk) {
                *a -= lki * v;
            }
        }
        let d = l.row(i)[i];
        for (dst, &a) in x[i * ldx + c0..i * ldx + c0 + nc].iter_mut().zip(&acc) {
            *dst = a / d;
        }
    }
}

/// Solves the SPD system `A·X = B`.
///
/// If `A` is only semidefinite (Cholesky breakdown), retries with
/// progressively larger Tikhonov shifts `A + eps·tr(A)/n·I`; this mirrors
/// the regularization LAPACK-based NMF codes apply when a factor loses
/// rank mid-iteration.
pub fn solve_spd(a: &Mat, b: &Mat) -> Result<Mat, CholError> {
    match cholesky(a) {
        Ok(l) => Ok(cholesky_solve(&l, b)),
        Err(CholError::NotSquare) => Err(CholError::NotSquare),
        Err(_) => {
            let n = a.nrows();
            let trace: f64 = (0..n).map(|i| a[(i, i)]).sum();
            let base = if trace > 0.0 { trace / n as f64 } else { 1.0 };
            let mut shift = base * 1e-12;
            for _ in 0..8 {
                let mut shifted = a.clone();
                for i in 0..n {
                    shifted[(i, i)] += shift;
                }
                if let Ok(l) = cholesky(&shifted) {
                    return Ok(cholesky_solve(&l, b));
                }
                shift *= 100.0;
            }
            Err(CholError::NotPositiveDefinite(0))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gemm::{matmul, matmul_tb};
    use crate::gram::gram;
    use crate::rng::Fill;

    fn spd(n: usize, seed: u64) -> Mat {
        // XᵀX + I is strictly positive definite.
        let x = Mat::gaussian(2 * n, n, seed);
        let mut g = gram(&x);
        for i in 0..n {
            g[(i, i)] += 1.0;
        }
        g
    }

    #[test]
    fn factor_reconstructs() {
        let a = spd(8, 21);
        let l = cholesky(&a).unwrap();
        let llt = matmul_tb(&l, &l);
        assert!(llt.max_abs_diff(&a) < 1e-10);
        // L is lower triangular.
        for i in 0..8 {
            for j in i + 1..8 {
                assert_eq!(l[(i, j)], 0.0);
            }
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd(10, 22);
        let x_true = Mat::gaussian(10, 4, 23);
        let b = matmul(&a, &x_true);
        let x = solve_spd(&a, &b).unwrap();
        assert!(x.max_abs_diff(&x_true) < 1e-8);
    }

    #[test]
    fn rejects_indefinite() {
        let mut a = Mat::eye(3);
        a[(2, 2)] = -1.0;
        assert_eq!(cholesky(&a), Err(CholError::NotPositiveDefinite(2)));
    }

    #[test]
    fn rejects_non_square() {
        assert_eq!(cholesky(&Mat::zeros(2, 3)), Err(CholError::NotSquare));
    }

    #[test]
    fn semidefinite_falls_back_to_shift() {
        // Rank-1 Gram matrix: strictly semidefinite.
        let x = Mat::filled(5, 3, 1.0);
        let g = gram(&x);
        let b = Mat::filled(3, 2, 1.0);
        let sol = solve_spd(&g, &b).expect("shifted solve should succeed");
        assert!(sol.all_finite());
    }

    /// Column-at-a-time `L·Lᵀ·X = B` solve: the reference the batched
    /// sweeps must reproduce bit for bit (batching does not change the
    /// per-column reduction order).
    fn cholesky_solve_percol_in_place(l: &Mat, b: &mut Mat) {
        let n = l.nrows();
        let r = b.ncols();
        let x = b;
        for c in 0..r {
            for i in 0..n {
                let mut s = x[(i, c)];
                for k in 0..i {
                    s -= l[(i, k)] * x[(k, c)];
                }
                x[(i, c)] = s / l[(i, i)];
            }
            for i in (0..n).rev() {
                let mut s = x[(i, c)];
                for k in i + 1..n {
                    s -= l[(k, i)] * x[(k, c)];
                }
                x[(i, c)] = s / l[(i, i)];
            }
        }
    }

    #[test]
    fn batched_solve_matches_per_column_baseline() {
        // Widths straddling the NC=8 sweep blocking, including edge
        // remainders; the batched sweeps reorder nothing per column, so
        // the results are bit-identical.
        let a = spd(12, 31);
        let l = cholesky(&a).unwrap();
        for r in [1usize, 3, 8, 9, 16, 21] {
            let b = Mat::gaussian(12, r, 40 + r as u64);
            let mut batched = b.clone();
            cholesky_solve_in_place(&l, &mut batched);
            let mut percol = b.clone();
            cholesky_solve_percol_in_place(&l, &mut percol);
            assert_eq!(
                batched.as_slice(),
                percol.as_slice(),
                "batched vs per-column diverge at r={r}"
            );
        }
    }

    #[test]
    fn one_by_one_system() {
        let a = Mat::from_rows(&[&[4.0]]);
        let b = Mat::from_rows(&[&[8.0, 2.0]]);
        let x = solve_spd(&a, &b).unwrap();
        assert!((x[(0, 0)] - 2.0).abs() < 1e-14);
        assert!((x[(0, 1)] - 0.5).abs() < 1e-14);
    }
}
