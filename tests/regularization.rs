//! Tests for the L2 (Frobenius) regularization extension.

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;

fn input(seed: u64) -> Input {
    Input::Dense(Mat::uniform(40, 30, seed))
}

fn sequential(a: &Input, config: &NmfConfig) -> NmfOutput {
    factorize(a, 1, Algo::Sequential, config)
}

#[test]
fn ridge_shrinks_factor_norms() {
    let a = input(1);
    let base = sequential(&a, &NmfConfig::new(4).with_max_iters(15));
    let reg = sequential(&a, &NmfConfig::new(4).with_max_iters(15).with_l2(5.0, 5.0));
    // The unregularized problem is scale-indifferent between the factors
    // (any c·W, H/c keeps the fit), so a single factor's norm need not
    // shrink — ANLS happens to park most of the scale in W. What ridge
    // actually penalizes, and therefore must shrink, is the combined
    // λ_W‖W‖² + λ_H‖H‖² (here with equal λ: the norm sum).
    let base_penalty = base.w.fro_norm_sq() + base.h.fro_norm_sq();
    let reg_penalty = reg.w.fro_norm_sq() + reg.h.fro_norm_sq();
    assert!(
        reg_penalty < base_penalty,
        "ridge must shrink ‖W‖²+‖H‖²: {reg_penalty} vs {base_penalty}"
    );
    // The unregularized fit degrades (we traded fit for norm).
    assert!(reg.objective >= base.objective);
}

#[test]
fn zero_ridge_is_identity() {
    let a = input(2);
    let base = sequential(&a, &NmfConfig::new(3).with_max_iters(5));
    let reg = sequential(&a, &NmfConfig::new(3).with_max_iters(5).with_l2(0.0, 0.0));
    assert_eq!(base.w, reg.w);
    assert_eq!(base.h, reg.h);
}

#[test]
fn regularized_parallel_matches_sequential() {
    let a = input(3);
    let config = NmfConfig::new(3).with_max_iters(5).with_l2(0.5, 0.25);
    let seq = sequential(&a, &config);
    for (p, algo) in [
        (4usize, Algo::Hpc2D),
        (6, Algo::Hpc2D),
        (4, Algo::Naive),
        (3, Algo::Hpc1D),
    ] {
        let par = factorize(&a, p, algo, &config);
        assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8,
            "{} p={p}: regularized W diverges",
            algo.name()
        );
        assert!(par.h.max_abs_diff(&seq.h) < 1e-8);
    }
}

#[test]
fn regularization_works_with_every_solver() {
    let a = input(4);
    for solver in SolverKind::ALL {
        let out = sequential(
            &a,
            &NmfConfig::new(3)
                .with_max_iters(8)
                .with_solver(solver)
                .with_l2(1.0, 1.0),
        );
        assert!(out.w.all_nonnegative() && out.w.all_finite(), "{solver:?}");
        assert!(out.h.all_nonnegative() && out.h.all_finite());
    }
}

#[test]
#[should_panic(expected = "regularization must be nonnegative")]
fn negative_ridge_is_rejected() {
    let _ = NmfConfig::new(3).with_l2(-1.0, 0.0);
}
