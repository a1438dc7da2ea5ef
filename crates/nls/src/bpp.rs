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
//! ## Warm start
//!
//! Row `i` starts from the support of the incoming iterate,
//! `F = {j : x_ij > 0}` (Kim & Park 2011; Kim, He & Park, J. Global
//! Optim. 2014): it is solved on that set first, then enters the
//! exchange loop. Between ANLS iterations a row's support changes
//! little, so most rows need one or two exchange rounds instead of
//! growing their support from empty. The cold start is the case
//! `x = 0`. The start depends only on the row's own values, so every
//! call is still a pure function of `(gram, ctb, x)`: schemes that split
//! the rows differently, and a run resumed from a checkpoint, compute
//! the same bits.
//!
//! ## One support per row
//!
//! The paper's case for BPP is that many right-hand sides share a
//! passive set, so one `G_FF` factorization serves many rows. That holds
//! at small `k`; at `k = 32` nearly every row has a support of its own.
//! Each exchange round therefore sorts `(mask, row)` pairs and solves
//! every run of equal masks as one group, whatever its size: `G_FF` is
//! factored once, read straight from `gram` through the free-index list
//! into a packed buffer, then each row of the group is forward and back
//! substituted on its own slice. Every entry keeps the operation order of
//! [`nmf_matrix::cholesky_into`] and [`nmf_matrix::cholesky_solve_in_place`]
//! on the gathered `G_FF` (sequential in the inner index, multiply then
//! subtract, then the divide), so the results are bit-identical to that
//! solve. A Cholesky breakdown (semidefinite `G_FF`) retries with the
//! diagonal shifts of [`nmf_matrix::solve_spd`].
//!
//! ## Workspace reuse
//!
//! The solver is called once per factor per outer ANLS iteration with
//! identical shapes, so all state lives in a solver-held [`BppScratch`]:
//! the dual matrix `y`, the incoming iterate and `X·G` for the
//! monotonicity guard, the per-row pivot states, the sorted `(mask, row)`
//! list, and the free-index list, `k×k` factor and length-`k` solution
//! of the group being solved. They are sized on the first call; later
//! calls with no larger shapes allocate nothing, including the breakdown
//! fallback.

use crate::{nls_objective_into, NlsSolver};
use nmf_matrix::{spd_shifts, Mat};

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
    /// `X·G` for the guard's objectives (r×k).
    xg: Mat,
    states: Vec<RowState>,
    /// `(passive mask, row)` of every pending row, sorted so that rows
    /// sharing a mask are adjacent.
    pending: Vec<(u128, usize)>,
    /// Per-group solve buffers.
    support: SupportScratch,
}

/// Buffers for one passive-set group, sized for `f = k` on first use.
#[derive(Clone, Debug, Default)]
struct SupportScratch {
    free: Vec<usize>,
    /// Packed row-major `f×f` factor of `G_FF`: `L` in the lower
    /// triangle and on the diagonal, `Lᵀ` mirrored above it.
    factor: Vec<f64>,
    /// One row's right-hand side on entry to the substitution, its
    /// solution on exit (length `f`).
    sol: Vec<f64>,
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
    /// conditioned, warm-started from the support of `x`.
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
        self.pivot(gram, ctb, x);
        let scr = &mut self.scratch;
        if scr.x_prev.all_nonnegative() {
            let f_new = nls_objective_into(gram, ctb, x, &mut scr.xg);
            let f_in = nls_objective_into(gram, ctb, &scr.x_prev, &mut scr.xg);
            if f_new > f_in {
                x.copy_from(&scr.x_prev);
            }
        }
    }

    /// The pivoting loop from the warm start, without the monotonicity
    /// guard.
    fn pivot(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
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

        // Initial partition: the support of the incoming x, solved once
        // so that x and y are consistent before the first exchange.
        scr.y.resize(r, k);
        scr.states.clear();
        scr.states.extend((0..r).map(|i| RowState {
            passive: support(x.row(i)),
            best_infeasible: k as u32 + 1,
            budget: self.backup_budget,
            done: false,
        }));
        scr.solve_pending(gram, ctb, x);

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
            // Phase 2: solve the unconstrained systems on the new
            // passive sets and refresh x, y.
            scr.solve_pending(gram, ctb, x);
        }
        // Round cap hit: keep the best-effort solution but make it
        // feasible (nonnegative); callers treat BPP output as a
        // projection anyway.
        x.project_nonnegative();
    }
}

impl BppScratch {
    /// Solves every pending row on its passive set and refreshes its
    /// `x` and `y` rows, one group per distinct mask.
    fn solve_pending(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat) {
        self.pending.clear();
        self.pending.extend(
            self.states
                .iter()
                .enumerate()
                .filter(|(_, st)| !st.done)
                .map(|(i, st)| (st.passive, i)),
        );
        self.pending.sort_unstable();
        for group in self.pending.chunk_by(|a, b| a.0 == b.0) {
            self.support.solve(gram, ctb, x, &mut self.y, group);
        }
    }
}

impl SupportScratch {
    /// Solves the rows of `group` (all sharing one passive mask) and
    /// updates their `x` and `y` rows.
    fn solve(&mut self, gram: &Mat, ctb: &Mat, x: &mut Mat, y: &mut Mat, group: &[(u128, usize)]) {
        let k = gram.nrows();
        let mask = group[0].0;
        if self.sol.len() < k {
            self.free.reserve(k);
            self.factor.resize(k * k, 0.0);
            self.sol.resize(k, 0.0);
        }
        let SupportScratch { free, factor, sol } = self;
        free.clear();
        free.extend((0..k).filter(|&j| mask & (1u128 << j) != 0));
        let f = free.len();
        let l = &mut factor[..f * f];
        let sol = &mut sol[..f];
        let factored = factor_support(gram, free, 0.0, l) || {
            let trace = free.iter().map(|&j| gram[(j, j)]).sum();
            spd_shifts(trace, f).any(|shift| factor_support(gram, free, shift, l))
        };

        for &(_, i) in group {
            // x_F solves G_FF·x_F = (Cᵀb)_F (zero if even the shifted
            // factorizations broke down); x elsewhere = 0.
            if factored {
                for (s, &j) in sol.iter_mut().zip(free.iter()) {
                    *s = ctb[(i, j)];
                }
                substitute(l, sol);
            } else {
                sol.fill(0.0);
            }
            let xi = x.row_mut(i);
            xi.fill(0.0);
            for (&s, &j) in sol.iter().zip(free.iter()) {
                xi[j] = s;
            }
            // y = G·x − Cᵀb on the active set; exactly 0 on F.
            for (j, yv) in y.row_mut(i).iter_mut().enumerate() {
                if mask & (1u128 << j) != 0 {
                    *yv = 0.0;
                } else {
                    let grow = gram.row(j);
                    let mut v = -ctb[(i, j)];
                    for (&s, &ja) in sol.iter().zip(free.iter()) {
                        v += grow[ja] * s;
                    }
                    *yv = v;
                }
            }
        }
    }
}

/// The mask of `{j : row_j > 0}`.
fn support(row: &[f64]) -> u128 {
    row.iter()
        .enumerate()
        .filter(|&(_, &v)| v > 0.0)
        .fold(0, |mask, (j, _)| mask | 1 << j)
}

/// Factors `G_FF + shift·I = L·Lᵀ`, reading `G_FF` from `gram` through
/// the free-index list, into the packed row-major `f×f` buffer `l`: `L`
/// in the lower triangle and on the diagonal, `Lᵀ` mirrored above it for
/// the back substitution. Returns `false` on a pivot that is not
/// positive (or is NaN).
///
/// Every entry is computed in the order of `cholesky_into` on the
/// gathered `G_FF` (sequential in the inner index, multiply then
/// subtract, then the divide), so `L` is bit-identical to it. The four
/// rows of a column block are independent dependency chains and are
/// interleaved to overlap their latencies. A zero shift leaves every
/// positive pivot's bits unchanged.
// `!(d > 0.0)` is deliberate: it also catches NaN pivots.
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn factor_support(gram: &Mat, free: &[usize], shift: f64, l: &mut [f64]) -> bool {
    let f = free.len();
    debug_assert_eq!(l.len(), f * f);
    for (j, &gj) in free.iter().enumerate() {
        let (row_j, below) = l[j * f..].split_at_mut(f);
        let (lj, upper) = row_j.split_at_mut(j);
        let mut d = gram[(gj, gj)] + shift;
        for &v in lj.iter() {
            d -= v * v;
        }
        if !(d > 0.0) {
            return false;
        }
        let djj = d.sqrt();
        let (pivot, mirror) = upper.split_first_mut().expect("column j < f");
        *pivot = djj;

        let mut rows4 = below.chunks_exact_mut(4 * f);
        let mut free4 = free[j + 1..].chunks_exact(4);
        let mut mirror4 = mirror.chunks_exact_mut(4);
        for ((rows, g), m) in (&mut rows4).zip(&mut free4).zip(&mut mirror4) {
            let (r0, rest) = rows.split_at_mut(f);
            let (r1, rest) = rest.split_at_mut(f);
            let (r2, r3) = rest.split_at_mut(f);
            let (a0, a1, a2, a3) = (&r0[..j], &r1[..j], &r2[..j], &r3[..j]);
            let mut s = [
                gram[(g[0], gj)],
                gram[(g[1], gj)],
                gram[(g[2], gj)],
                gram[(g[3], gj)],
            ];
            for (t, &v) in lj.iter().enumerate() {
                s[0] -= a0[t] * v;
                s[1] -= a1[t] * v;
                s[2] -= a2[t] * v;
                s[3] -= a3[t] * v;
            }
            for ((row, out), sq) in [r0, r1, r2, r3].into_iter().zip(m).zip(s) {
                row[j] = sq / djj;
                *out = row[j];
            }
        }
        let rest = rows4.into_remainder().chunks_exact_mut(f);
        for ((row, &g), out) in rest.zip(free4.remainder()).zip(mirror4.into_remainder()) {
            let mut s = gram[(g, gj)];
            for (&a, &v) in row[..j].iter().zip(lj.iter()) {
                s -= a * v;
            }
            row[j] = s / djj;
            *out = row[j];
        }
    }
    true
}

/// Solves `L·Lᵀ·s = b` in place on one row (`s` holds `b` on entry),
/// with `l` packed by [`factor_support`]. Each entry follows the order of
/// `cholesky_solve_in_place` for one right-hand-side column.
fn substitute(l: &[f64], s: &mut [f64]) {
    let f = s.len();
    // Forward: L·z = b.
    for i in 0..f {
        let li = &l[i * f..i * f + i];
        let mut acc = s[i];
        for (&a, &v) in li.iter().zip(&s[..i]) {
            acc -= a * v;
        }
        s[i] = acc / l[i * f + i];
    }
    // Backward: Lᵀ·s = z, reading Lᵀ's row i from the mirror.
    for i in (0..f).rev() {
        let ui = &l[i * f + i + 1..(i + 1) * f];
        let mut acc = s[i];
        for (&a, &v) in ui.iter().zip(&s[i + 1..]) {
            acc -= a * v;
        }
        s[i] = acc / l[i * f + i];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nls_objective;
    use crate::reference::exhaustive_nnls;
    use nmf_matrix::rng::Fill;
    use nmf_matrix::{cholesky_into, cholesky_solve_in_place, gram, matmul_ta, solve_spd};

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

    /// Asserts the KKT conditions of `min_{x≥0}` at `x`.
    fn assert_kkt(g: &Mat, ctb: &Mat, x: &Mat) {
        assert!(x.all_nonnegative(), "primal feasibility");
        // y = G·x − Cᵀb must be ≥ −tol, and complementary to x.
        let xg = nmf_matrix::matmul_tb(x, g);
        let (r, k) = x.shape();
        for i in 0..r {
            for j in 0..k {
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
    fn satisfies_kkt_conditions() {
        let (g, ctb) = instance(10, 30, 7);
        let mut x = Mat::zeros(30, 10);
        Bpp::default().solve(&g, &ctb, &mut x);
        assert_kkt(&g, &ctb, &x);
    }

    /// Warm starts of the three kinds: cold (`x = 0`), strictly
    /// positive, and nonnegative with zeros.
    fn starts(r: usize, k: usize, seed: u64) -> [Mat; 3] {
        let positive = Mat::uniform(r, k, seed);
        let mut with_zeros = Mat::gaussian(r, k, seed + 1);
        with_zeros.project_nonnegative();
        [
            Mat::zeros(r, k),
            Mat::from_fn(r, k, |i, j| positive[(i, j)] + 0.1),
            with_zeros,
        ]
    }

    #[test]
    fn warm_starts_match_exhaustive_reference() {
        for seed in 0..20u64 {
            let (k, r) = (2 + seed as usize % 5, 4);
            let (g, ctb) = instance(k, r, 700 + seed);
            for (s, x0) in starts(r, k, 800 + seed).into_iter().enumerate() {
                let mut x = x0;
                Bpp::default().solve(&g, &ctb, &mut x);
                for i in 0..r {
                    let expect = exhaustive_nnls(&g, ctb.row(i));
                    for j in 0..k {
                        assert!(
                            (x[(i, j)] - expect[j]).abs() < 1e-6,
                            "seed {seed} start {s} row {i}: got {:?}, expected {:?}",
                            x.row(i),
                            expect
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn warm_starts_at_k32_satisfy_kkt_and_repeat_bit_for_bit() {
        let (k, r) = (32, 200);
        let (g, ctb) = instance(k, r, 41);
        let mut solver = Bpp::default();
        for (s, x0) in starts(r, k, 42).into_iter().enumerate() {
            let mut first = x0.clone();
            solver.solve(&g, &ctb, &mut first);
            assert_kkt(&g, &ctb, &first);
            let mut second = x0;
            solver.solve(&g, &ctb, &mut second);
            let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert!(
                bits(&first) == bits(&second),
                "start {s}: two solves from the same x differ"
            );
        }
    }

    /// `f` distinct indices of `0..k` in ascending order, drawn with `seed`.
    fn random_support(k: usize, f: usize, seed: u64) -> Vec<usize> {
        let keys = Mat::uniform(1, k, seed);
        let mut idx: Vec<usize> = (0..k).collect();
        idx.sort_by(|&a, &b| keys[(0, a)].total_cmp(&keys[(0, b)]));
        idx.truncate(f);
        idx.sort_unstable();
        idx
    }

    #[test]
    fn packed_factor_and_row_solves_match_gathered_cholesky_bit_for_bit() {
        // Every support size f = 1..=k, so every f mod 4 of the
        // four-row interleave, on random SPD Grams up to k = 40.
        for k in [1usize, 2, 3, 4, 5, 6, 7, 9, 17, 32, 40] {
            let g = gram(&Mat::gaussian(2 * k + 3, k, 500 + k as u64));
            for f in 1..=k {
                let free = random_support(k, f, 1000 * k as u64 + f as u64);
                let gff = Mat::from_fn(f, f, |a, b| g[(free[a], free[b])]);
                let mut l_ref = Mat::zeros(f, f);
                cholesky_into(&gff, &mut l_ref).expect("G_FF is positive definite");
                let mut l = vec![0.0; f * f];
                assert!(factor_support(&g, &free, 0.0, &mut l), "k={k} f={f}");
                for a in 0..f {
                    for b in 0..=a {
                        let want = l_ref[(a, b)].to_bits();
                        assert_eq!(l[a * f + b].to_bits(), want, "k={k} f={f} L[{a},{b}]");
                        assert_eq!(l[b * f + a].to_bits(), want, "k={k} f={f} Lᵀ[{b},{a}]");
                    }
                }
                // 11 right-hand sides: one full batched sweep of the
                // reference solve plus an edge sweep.
                let rhs = Mat::gaussian(f, 11, 7 * k as u64 + f as u64);
                let mut want = rhs.clone();
                cholesky_solve_in_place(&l_ref, &mut want);
                for col in 0..rhs.ncols() {
                    let mut s = rhs.col(col);
                    substitute(&l, &mut s);
                    for (a, v) in s.iter().enumerate() {
                        assert_eq!(
                            v.to_bits(),
                            want[(a, col)].to_bits(),
                            "k={k} f={f} rhs {col} entry {a}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn breakdown_fallback_matches_solve_spd_bit_for_bit() {
        // Column 1 of C is zero, so G[1][1] = 0 and every G_FF holding
        // index 1 breaks down unshifted.
        let k = 4;
        let mut c = Mat::gaussian(6, k, 61);
        for i in 0..6 {
            c[(i, 1)] = 0.0;
        }
        let g = gram(&c);
        let ctb = Mat::uniform(3, k, 62);
        let free = [0, 1, 3];
        let mask = 0b1011u128;
        assert!(!factor_support(&g, &free, 0.0, &mut [0.0; 9]));

        let (mut x, mut y) = (Mat::zeros(3, k), Mat::zeros(3, k));
        let group: Vec<(u128, usize)> = (0..3).map(|i| (mask, i)).collect();
        SupportScratch::default().solve(&g, &ctb, &mut x, &mut y, &group);

        let gff = Mat::from_fn(3, 3, |a, b| g[(free[a], free[b])]);
        let rhs = Mat::from_fn(3, 3, |a, i| ctb[(i, free[a])]);
        let want = solve_spd(&gff, &rhs).expect("a shifted factorization succeeds");
        for i in 0..3 {
            for (a, &j) in free.iter().enumerate() {
                assert_eq!(x[(i, j)].to_bits(), want[(a, i)].to_bits(), "x[{i},{j}]");
            }
            assert_eq!(x[(i, 2)], 0.0);
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
