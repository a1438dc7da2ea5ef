//! Nonnegative least squares (NLS) solvers on normal equations.
//!
//! Both alternating updates in the ANLS framework reduce to many
//! independent single-right-hand-side NLS problems (paper Eq. 5):
//!
//! ```text
//!   min_{x ≥ 0} ‖Cx − b‖²
//! ```
//!
//! whose data enters only through the `k×k` Gram matrix `G = CᵀC` and the
//! vector `Cᵀb`. We adopt the layout used throughout the reproduction: the
//! right-hand sides are the **rows** of an `r×k` matrix `CtB` (row `i`
//! holds `Cᵀbᵢ`), and the unknowns are the rows of an `r×k` matrix `X`.
//! The `W`-update (`r = m/p` rows of `W`) and the `H`-update (`r = n/p`
//! columns of `H`, stored transposed) then share one code path.
//!
//! Three solvers implement [`NlsSolver`], the paper's menu (§4); BPP is
//! the one exact solver, MU and HALS take one improving step per call:
//!
//! * [`Bpp`] — **Block Principal Pivoting** (Kim & Park 2011), the
//!   paper's solver of choice: an active-set-like method that swaps whole
//!   blocks of variables between the active and passive sets, with
//!   Murty's single-swap backup rule to guarantee termination. Each row
//!   starts from the support of the incoming iterate; rows that share a
//!   passive set are grouped by a sort and share one `G_FF` factor, which
//!   at larger `k` is usually a group of one row.
//! * [`Mu`] — Lee & Seung's multiplicative update (one damped step per
//!   outer iteration).
//! * [`Hals`] — hierarchical alternating least squares (one sweep of
//!   block coordinate descent over the `k` components).
//!
//! [`reference::exhaustive_nnls`] solves the same problem by enumerating
//! all `2^k` active sets; tests use it as ground truth for small `k`.

pub mod bpp;
pub mod hals;
pub mod mu;
pub mod reference;

use nmf_matrix::Mat;

pub use bpp::Bpp;
pub use hals::Hals;
pub use mu::Mu;

/// A solver for the row-wise NLS problem
/// `minimize Σᵢ ‖xᵢ‖²_G − 2·xᵢᵀ·CtBᵢ  subject to X ≥ 0`.
///
/// `update` takes `&mut self` so solvers can keep reusable workspaces
/// (pivot states, sort buffers, factor buffers) across the one-call-
/// per-factor-per-iteration pattern of the ANLS drivers — the scratch is
/// buffer reuse only and must never carry *information* between calls
/// (every call's result is a pure function of `gram`, `ctb`, and `x`).
pub trait NlsSolver {
    /// Improves (or exactly solves, for BPP) `x` in place.
    ///
    /// * `gram` — `k×k` symmetric positive semidefinite `CᵀC`;
    /// * `ctb`  — `r×k`, row `i` is `Cᵀbᵢ`;
    /// * `x`    — `r×k` current iterate (must be nonnegative on entry).
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat);

    /// Short name for reports ("BPP", "MU", "HALS").
    fn name(&self) -> &'static str;
}

/// The solver menu exposed by the NMF drivers (paper §4: "the parallel
/// algorithm ... can be easily extended for other algorithms such as MU
/// and HALS").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SolverKind {
    /// Block principal pivoting (exact NLS solve per outer iteration).
    Bpp,
    /// Multiplicative update.
    Mu,
    /// Hierarchical alternating least squares.
    Hals,
}

impl SolverKind {
    /// Instantiates the solver with default settings.
    pub fn build(self) -> Box<dyn NlsSolver + Send> {
        match self {
            SolverKind::Bpp => Box::new(Bpp::default()),
            SolverKind::Mu => Box::new(Mu::default()),
            SolverKind::Hals => Box::new(Hals::default()),
        }
    }

    pub const ALL: [SolverKind; 3] = [SolverKind::Bpp, SolverKind::Mu, SolverKind::Hals];
}

/// The (shifted) objective `Σᵢ xᵢᵀ·G·xᵢ − 2·xᵢᵀ·bᵢ`; differs from
/// `Σ‖Cxᵢ−bᵢ‖²` by the constant `Σ‖bᵢ‖²`, so it orders solutions
/// identically. Used by tests to verify monotonicity and optimality.
pub fn nls_objective(gram: &Mat, ctb: &Mat, x: &Mat) -> f64 {
    nls_objective_into(gram, ctb, x, &mut Mat::zeros(x.nrows(), x.ncols()))
}

/// [`nls_objective`] with the `r×k` product `X·G` written into the
/// caller's `xg` (resized as needed), so a solver can evaluate it without
/// allocating.
pub(crate) fn nls_objective_into(gram: &Mat, ctb: &Mat, x: &Mat, xg: &mut Mat) -> f64 {
    assert_eq!(x.shape(), ctb.shape());
    assert_eq!(gram.nrows(), x.ncols());
    xg.resize(x.nrows(), x.ncols());
    nmf_matrix::matmul_tb_into(x, gram, xg); // row i = G·xᵢ (G symmetric)
    let mut obj = 0.0;
    for i in 0..x.nrows() {
        let xi = x.row(i);
        let gxi = xg.row(i);
        let bi = ctb.row(i);
        for j in 0..x.ncols() {
            obj += xi[j] * gxi[j] - 2.0 * xi[j] * bi[j];
        }
    }
    obj
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta};

    #[test]
    fn objective_matches_residual_up_to_constant() {
        let c = Mat::gaussian(12, 4, 1);
        let b = Mat::gaussian(12, 3, 2);
        let g = gram(&c);
        let ctb = matmul_ta(&b, &c); // rows are Cᵀbᵢ: (BᵀC) is r×k
        let x = Mat::uniform(3, 4, 3);
        // Direct residual: Σᵢ ‖C xᵢ − bᵢ‖².
        let mut direct = 0.0;
        for i in 0..3 {
            for row in 0..12 {
                let mut cx = 0.0;
                for j in 0..4 {
                    cx += c[(row, j)] * x[(i, j)];
                }
                let d = cx - b[(row, i)];
                direct += d * d;
            }
        }
        let shifted = nls_objective(&g, &ctb, &x) + b.fro_norm_sq();
        assert!((direct - shifted).abs() < 1e-9 * direct.max(1.0));
    }

    #[test]
    fn solver_kinds_build() {
        for kind in SolverKind::ALL {
            let s = kind.build();
            assert!(!s.name().is_empty());
        }
    }
}
