//! Block Principal Pivoting for nonnegative least squares.
//!
//! Implements Kim & Park's algorithm (SISC 2011) for the KKT system of
//! `min_{x≥0} ‖Cx − b‖²` (paper Eq. 6): find complementary supports where
//!
//! ```text
//!   y = G·x − Cᵀb,   x ≥ 0,   y ≥ 0,   xᵀy = 0 .
//! ```
//!
//! Variables are partitioned into a *passive* set `F` (where `x` is free
//! and `y = 0`) and an *active* set (where `x = 0` and `y` is free). Each
//! iteration solves the unconstrained system on `F`, finds the infeasible
//! variables `V`, and exchanges them between sets — all at once while
//! progress is made (the "block" move), falling back to Murty's
//! single-variable rule (exchange only the largest infeasible index) when
//! the infeasibility count stops decreasing, which guarantees finite
//! termination.
//!
//! Multi-right-hand-side optimization: rows whose passive sets coincide
//! are solved together, so each distinct `G_FF` is factorized exactly
//! once per exchange round. The paper attributes BPP's practicality for
//! NMF precisely to this regime (`k ≪ min(m,n)`, thousands of RHS, few
//! distinct supports after the first iterations).
//!
//! ## Workspace reuse
//!
//! The solver is called once per factor per outer ANLS iteration with
//! identical shapes, so all pivoting state lives in a solver-held
//! [`BppScratch`]: the dual matrix `y`, the per-row pivot states, the
//! passive-set grouping index (a `HashMap` plus a pool of row-index
//! vectors whose allocations are recycled), and the per-group `G_FF` /
//! RHS / factor buffers. After the first call nothing in the hot path
//! allocates except pathological support churn that outgrows a buffer's
//! retained capacity.

use crate::NlsSolver;
use nmf_matrix::{cholesky_into, cholesky_solve_in_place, solve_spd, Mat};
use std::collections::HashMap;

/// Block-principal-pivoting solver.
#[derive(Clone, Debug)]
pub struct Bpp {
    /// Safety cap on exchange rounds; `3k` + slack always suffices in
    /// practice, and the cap guards against cycling under severe
    /// ill-conditioning.
    pub max_rounds: usize,
    /// Backup-rule budget: full-block exchanges allowed after the
    /// infeasibility count last improved (Kim & Park use 3).
    pub backup_budget: u32,
    /// Reused solver state (buffers only — carries no information
    /// between calls). Public so struct-update construction
    /// (`Bpp { max_rounds: .., ..Bpp::default() }`) keeps working.
    pub scratch: BppScratch,
}

impl Default for Bpp {
    fn default() -> Self {
        Bpp {
            max_rounds: 1000,
            backup_budget: 3,
            scratch: BppScratch::default(),
        }
    }
}

/// Per-row pivoting state.
#[derive(Clone, Debug)]
struct RowState {
    /// Bit `j` set ⇔ variable `j` is passive (free).
    passive: u128,
    /// Lowest infeasibility count seen (β in Kim & Park).
    best_infeasible: u32,
    /// Remaining full-exchange moves before the backup rule engages (α).
    budget: u32,
    done: bool,
}

/// Reusable buffers held by a [`Bpp`] solver across calls (see the
/// module docs). All fields are implementation detail.
#[derive(Clone, Debug, Default)]
pub struct BppScratch {
    /// Dual matrix `y = G·x − Cᵀb` (r×k).
    y: Mat,
    /// Incoming iterate, kept for the monotonicity guard (r×k).
    x_prev: Mat,
    states: Vec<RowState>,
    /// Passive-set mask → index into `group_rows`.
    group_of: HashMap<u128, usize>,
    /// Row-index pools, one per active group; allocations recycled.
    group_rows: Vec<Vec<usize>>,
    group_masks: Vec<u128>,
    n_groups: usize,
    /// Per-group solve buffers.
    support: SupportScratch,
}

/// Buffers for one passive-set solve (`G_FF`, its factor, the stacked
/// right-hand sides, the free-index list).
#[derive(Clone, Debug, Default)]
struct SupportScratch {
    free: Vec<usize>,
    gff: Mat,
    factor: Mat,
    rhs: Mat,
}

impl NlsSolver for Bpp {
    fn update(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        self.solve(gram, ctb, x);
    }

    fn name(&self) -> &'static str {
        "BPP"
    }
}

impl Bpp {
    /// Solves `min_{X≥0} Σᵢ ‖·‖`, exactly when `gram` is well
    /// conditioned.
    ///
    /// When `gram` is (near-)singular — common once ANLS converges onto a
    /// lower-rank solution — the passive-set solves become ambiguous and
    /// plain BPP can terminate at a point *worse* than the incoming
    /// iterate. Like production ANLS codes, we guard monotonicity: if the
    /// fresh solve does not improve the (nonnegative, feasible) incoming
    /// `x`, the incoming iterate is kept.
    pub fn solve(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        let (r, k) = x.shape();
        self.scratch.x_prev.resize(r, k);
        self.scratch.x_prev.copy_from(x);
        self.solve_cold(gram, ctb, x);
        if self.scratch.x_prev.all_nonnegative() {
            let f_new = crate::nls_objective(gram, ctb, x);
            let f_in = crate::nls_objective(gram, ctb, &self.scratch.x_prev);
            if f_new > f_in {
                x.copy_from(&self.scratch.x_prev);
            }
        }
    }

    /// The raw cold-start pivoting loop, without the monotonicity guard.
    fn solve_cold(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        let k = gram.nrows();
        assert_eq!(gram.ncols(), k, "gram must be square");
        assert!(k <= 128, "BPP implementation supports k <= 128");
        assert_eq!(x.shape(), ctb.shape(), "x and ctb must have equal shapes");
        assert_eq!(x.ncols(), k, "x must have k columns");
        let r = x.nrows();
        if r == 0 || k == 0 {
            return;
        }
        let scr = &mut self.scratch;

        // Initial partition: x = 0, y = −Cᵀb, all variables active.
        // (Kim & Park's standard cold start; warm starting from the
        // support of the incoming x is possible but changes iterate
        // trajectories, which would break the paper's same-computations
        // initialization guarantee, so we keep the cold start.)
        x.as_mut_slice().fill(0.0);
        scr.y.resize(r, k);
        for (yv, &cv) in scr.y.as_mut_slice().iter_mut().zip(ctb.as_slice()) {
            *yv = -cv;
        }

        scr.states.clear();
        scr.states.extend((0..r).map(|_| RowState {
            passive: 0,
            best_infeasible: k as u32 + 1,
            budget: self.backup_budget,
            done: false,
        }));

        for _round in 0..self.max_rounds {
            // Phase 1: per-row infeasibility detection and set exchange.
            let mut any_pending = false;
            for i in 0..r {
                let st = &mut scr.states[i];
                if st.done {
                    continue;
                }
                let mut infeasible: u128 = 0;
                let xi = x.row(i);
                let yi = scr.y.row(i);
                for j in 0..k {
                    let bit = 1u128 << j;
                    let bad = if st.passive & bit != 0 {
                        xi[j] < 0.0
                    } else {
                        yi[j] < 0.0
                    };
                    if bad {
                        infeasible |= bit;
                    }
                }
                if infeasible == 0 {
                    st.done = true;
                    continue;
                }
                any_pending = true;
                let count = infeasible.count_ones();
                if count < st.best_infeasible {
                    st.best_infeasible = count;
                    st.budget = self.backup_budget;
                    st.passive ^= infeasible;
                } else if st.budget > 0 {
                    st.budget -= 1;
                    st.passive ^= infeasible;
                } else {
                    // Murty's backup rule: flip only the largest index.
                    let top = 127 - infeasible.leading_zeros();
                    st.passive ^= 1u128 << top;
                }
            }
            if !any_pending {
                return;
            }

            // Phase 2: solve the unconstrained systems on the passive
            // sets and refresh x, y. Group rows by passive set, recycling
            // the row-index vectors and the map's buckets.
            scr.group_of.clear();
            scr.n_groups = 0;
            for (i, st) in scr.states.iter().enumerate() {
                if st.done {
                    continue;
                }
                let gi = *scr.group_of.entry(st.passive).or_insert_with(|| {
                    let gi = scr.n_groups;
                    scr.n_groups += 1;
                    if scr.group_rows.len() < scr.n_groups {
                        scr.group_rows.push(Vec::new());
                        scr.group_masks.push(0);
                    }
                    scr.group_rows[gi].clear();
                    scr.group_masks[gi] = st.passive;
                    gi
                });
                scr.group_rows[gi].push(i);
            }
            for gi in 0..scr.n_groups {
                solve_support(
                    gram,
                    ctb,
                    x,
                    &mut scr.y,
                    scr.group_masks[gi],
                    &scr.group_rows[gi],
                    &mut scr.support,
                );
            }
        }
        // Round cap hit: keep the best-effort solution but make it
        // feasible (nonnegative); callers treat BPP output as a
        // projection anyway.
        x.project_nonnegative();
    }
}

/// Solves rows `rows` (all sharing passive set `mask`) and updates
/// their `x` and `y` rows, using the caller's scratch buffers.
fn solve_support(
    gram: &Mat,
    ctb: &Mat,
    x: &mut Mat,
    y: &mut Mat,
    mask: u128,
    rows: &[usize],
    scr: &mut SupportScratch,
) {
    let k = gram.nrows();
    scr.free.clear();
    scr.free
        .extend((0..k).filter(|&j| mask & (1u128 << j) != 0));
    let free = &scr.free;
    let f = free.len();

    if f == 0 {
        // Entirely active: x = 0, y = −Cᵀb.
        for &i in rows {
            x.row_mut(i).fill(0.0);
            let yi = y.row_mut(i);
            for (j, v) in yi.iter_mut().enumerate() {
                *v = -ctb[(i, j)];
            }
        }
        return;
    }

    // G_FF and the stacked right-hand sides (one column per row).
    scr.gff.resize(f, f);
    for (a, &ja) in free.iter().enumerate() {
        for (b, &jb) in free.iter().enumerate() {
            scr.gff[(a, b)] = gram[(ja, jb)];
        }
    }
    scr.rhs.resize(f, rows.len());
    for (col, &i) in rows.iter().enumerate() {
        for (a, &ja) in free.iter().enumerate() {
            scr.rhs[(a, col)] = ctb[(i, ja)];
        }
    }
    // Factor and solve in place: `rhs` holds the solution afterwards.
    match cholesky_into(&scr.gff, &mut scr.factor) {
        Ok(()) => cholesky_solve_in_place(&scr.factor, &mut scr.rhs),
        Err(_) => {
            // Semidefinite fallback (rare): shifted solve, allocating.
            let sol = solve_spd(&scr.gff, &scr.rhs).unwrap_or_else(|_| Mat::zeros(f, rows.len()));
            scr.rhs.copy_from(&sol);
        }
    }
    let sol = &scr.rhs;

    for (col, &i) in rows.iter().enumerate() {
        // x_F = solution, x elsewhere = 0.
        let xi = x.row_mut(i);
        xi.fill(0.0);
        for (a, &ja) in free.iter().enumerate() {
            xi[ja] = sol[(a, col)];
        }
        // y = G·x − Cᵀb on the active set; exactly 0 on F.
        let yi = y.row_mut(i);
        for j in 0..k {
            if mask & (1u128 << j) != 0 {
                yi[j] = 0.0;
            } else {
                let mut v = -ctb[(i, j)];
                let grow = gram.row(j);
                for (a, &ja) in free.iter().enumerate() {
                    v += grow[ja] * sol[(a, col)];
                }
                yi[j] = v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nls_objective;
    use crate::reference::exhaustive_nnls;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{gram, matmul_ta, solve_spd};

    /// Builds a well-conditioned random NLS instance: G = CᵀC + δI,
    /// CtB from random C and B.
    fn instance(k: usize, r: usize, seed: u64) -> (Mat, Mat) {
        let c = Mat::gaussian(3 * k + 5, k, seed);
        let b = Mat::gaussian(3 * k + 5, r, seed + 1);
        let mut g = gram(&c);
        for i in 0..k {
            g[(i, i)] += 1e-8;
        }
        let ctb = matmul_ta(&b, &c); // r×k
        (g, ctb)
    }

    #[test]
    fn matches_exhaustive_reference() {
        // Twenty small instances (k in 2..=6, 4 rows), plus an 8×50 one
        // with enough rows to exercise the passive-set grouping.
        let small = (0..20u64).map(|seed| (2 + (seed as usize % 5), 4, 100 + seed));
        for (k, r, seed) in small.chain([(8, 50, 11)]) {
            let (g, ctb) = instance(k, r, seed);
            let mut x = Mat::zeros(r, k);
            Bpp::default().solve(&g, &ctb, &mut x);
            for i in 0..r {
                let expect = exhaustive_nnls(&g, ctb.row(i));
                for j in 0..k {
                    assert!(
                        (x[(i, j)] - expect[j]).abs() < 1e-6,
                        "seed {seed} row {i}: got {:?}, expected {:?}",
                        x.row(i),
                        expect
                    );
                }
            }
        }
    }

    #[test]
    fn satisfies_kkt_conditions() {
        let (g, ctb) = instance(10, 30, 7);
        let mut x = Mat::zeros(30, 10);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!(x.all_nonnegative(), "primal feasibility");
        // y = G·x − Cᵀb must be ≥ −tol, and complementary to x.
        let xg = nmf_matrix::matmul_tb(&x, &g);
        for i in 0..30 {
            for j in 0..10 {
                let yij = xg[(i, j)] - ctb[(i, j)];
                assert!(yij > -1e-7, "dual feasibility violated: y[{i},{j}] = {yij}");
                assert!(
                    (x[(i, j)] * yij).abs() < 1e-6,
                    "complementarity violated at ({i},{j}): x={} y={yij}",
                    x[(i, j)]
                );
            }
        }
    }

    #[test]
    fn reused_solver_matches_fresh_solver() {
        // One solver instance reused across many calls (the driver
        // pattern) must produce the same results as a fresh solver per
        // call — scratch carries no state between calls.
        let mut reused = Bpp::default();
        for seed in 0..12 {
            let k = 3 + (seed as usize % 6);
            let r = 5 + (seed as usize % 17);
            let (g, ctb) = instance(k, r, 300 + seed);
            let mut x_reused = Mat::zeros(r, k);
            reused.solve(&g, &ctb, &mut x_reused);
            let mut x_fresh = Mat::zeros(r, k);
            Bpp::default().solve(&g, &ctb, &mut x_fresh);
            assert_eq!(
                x_reused, x_fresh,
                "seed {seed}: reused-scratch solve diverged from fresh solve"
            );
        }
    }

    #[test]
    fn unconstrained_optimum_is_returned_when_nonnegative() {
        // If Cᵀb has the same sign structure as a nonnegative solution,
        // BPP must return the plain least-squares solution.
        let k = 5;
        let c = Mat::gaussian(20, k, 42);
        let g = {
            let mut g = gram(&c);
            for i in 0..k {
                g[(i, i)] += 0.1;
            }
            g
        };
        let x_true = Mat::uniform(3, k, 43); // strictly positive rows
                                             // ctb = G·x_true ⇒ unconstrained optimum is x_true itself.
        let ctb = nmf_matrix::matmul_tb(&x_true, &g);
        let mut x = Mat::zeros(3, k);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!(x.max_abs_diff(&x_true) < 1e-7);
    }

    #[test]
    fn zero_rhs_gives_zero_solution() {
        let (g, _) = instance(6, 1, 3);
        let ctb = Mat::zeros(4, 6);
        let mut x = Mat::uniform(4, 6, 9);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_eq!(x, Mat::zeros(4, 6));
    }

    #[test]
    fn negative_rhs_gives_zero_solution() {
        // Cᵀb < 0 everywhere ⇒ y = −Cᵀb > 0 with x = 0 satisfies KKT.
        let (g, mut ctb) = instance(6, 5, 17);
        for v in ctb.as_mut_slice() {
            *v = -v.abs() - 0.1;
        }
        let mut x = Mat::zeros(5, 6);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_eq!(x, Mat::zeros(5, 6));
    }

    #[test]
    fn improves_on_projected_least_squares() {
        // BPP's optimum must be at least as good as clamping the
        // unconstrained solution.
        let (g, ctb) = instance(7, 10, 23);
        let mut x_bpp = Mat::zeros(10, 7);
        Bpp::default().solve(&g, &ctb, &mut x_bpp);
        let rhs_t = ctb.transpose();
        let mut clamped = solve_spd(&g, &rhs_t).unwrap().transpose();
        clamped.project_nonnegative();
        let f_bpp = nls_objective(&g, &ctb, &x_bpp);
        let f_clamped = nls_objective(&g, &ctb, &clamped);
        assert!(
            f_bpp <= f_clamped + 1e-9,
            "BPP {f_bpp} worse than clamped LS {f_clamped}"
        );
    }

    #[test]
    fn handles_k_equal_one() {
        let g = Mat::from_rows(&[&[2.0]]);
        let ctb = Mat::from_rows(&[&[4.0], &[-3.0]]);
        let mut x = Mat::zeros(2, 1);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert!((x[(0, 0)] - 2.0).abs() < 1e-12); // 2x = 4
        assert_eq!(x[(1, 0)], 0.0); // negative rhs clamps to 0
    }
}
