//! The sequential algorithm (Algorithm 1), run through the session: the
//! single-process reference every parallel scheme must reproduce.

use hpc_nmf::prelude::*;
use nmf_matrix::ops::dense_relative_error;
use nmf_matrix::rng::Fill;
use nmf_matrix::{matmul, Mat};
use nmf_sparse::gen::erdos_renyi;

fn low_rank_input(m: usize, n: usize, k: usize, seed: u64) -> Input {
    let w = Mat::uniform(m, k, seed);
    let h = Mat::uniform(k, n, seed + 1);
    Input::Dense(matmul(&w, &h))
}

fn sequential(input: &Input, config: &NmfConfig) -> NmfOutput {
    factorize(input, 1, Algo::Sequential, config)
}

#[test]
fn recovers_exact_low_rank_structure() {
    // A has exact nonnegative rank 4; BPP-ANLS should drive the
    // relative error near zero.
    let input = low_rank_input(40, 30, 4, 81);
    let out = sequential(&input, &NmfConfig::new(4).with_max_iters(50).with_seed(3));
    // ANLS converges to a stationary point, not necessarily the
    // global optimum; <1% on exact rank-4 data demonstrates the
    // structure is recovered (the initial error is ~30%).
    assert!(
        out.rel_error < 1e-2,
        "rel_error {} too large",
        out.rel_error
    );
    assert!(out.w.all_nonnegative());
    assert!(out.h.all_nonnegative());
    if let Input::Dense(a) = &input {
        let direct = dense_relative_error(a, &out.w, &out.h);
        assert!(
            (direct - out.rel_error).abs() < 1e-6 + 0.05 * direct,
            "Gram-identity error {} vs direct {}",
            out.rel_error,
            direct
        );
    }
}

#[test]
fn objective_decreases_for_every_solver() {
    let input = low_rank_input(25, 20, 3, 82);
    for solver in SolverKind::ALL {
        let out = sequential(
            &input,
            &NmfConfig::new(5)
                .with_solver(solver)
                .with_max_iters(15)
                .with_seed(4),
        );
        let hist = out.history();
        for win in hist.windows(2) {
            assert!(
                win[1] <= win[0] * (1.0 + 1e-9) + 1e-9,
                "{solver:?} objective increased: {win:?}"
            );
        }
    }
}

#[test]
fn sparse_input_works() {
    let a = erdos_renyi(60, 50, 0.1, 83);
    let out = sequential(&Input::Sparse(a), &NmfConfig::new(6).with_max_iters(10));
    assert!(out.rel_error < 1.0);
    assert!(out.w.all_nonnegative() && out.h.all_nonnegative());
    assert_eq!(out.w.shape(), (60, 6));
    assert_eq!(out.h.shape(), (6, 50));
}

#[test]
fn tolerance_stops_early() {
    let input = low_rank_input(30, 25, 3, 84);
    let out = sequential(
        &input,
        &NmfConfig::new(3).with_max_iters(200).with_tol(1e-6),
    );
    assert!(out.iterations < 200, "tolerance should trigger early exit");
}

#[test]
fn same_seed_same_result() {
    let input = low_rank_input(20, 15, 3, 85);
    let a = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
    let b = sequential(&input, &NmfConfig::new(4).with_max_iters(5).with_seed(7));
    assert_eq!(a.w, b.w);
    assert_eq!(a.h, b.h);
}
