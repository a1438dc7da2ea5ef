//! Warm-start (incremental) factorization tests: the paper's streaming
//! video scenario (§6.1.1) — when new data arrives, restarting ANLS from
//! the previous factors should converge much faster than a cold start.

use hpc_nmf::init_ht;
use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::{matmul, Mat};

/// A "video" whose background drifts slightly between two windows.
fn window(m: usize, n: usize, k: usize, drift: f64, seed: u64) -> Input {
    let w = Mat::uniform(m, k, seed);
    let h = Mat::uniform(k, n, seed + 1);
    let mut a = matmul(&w, &h);
    let noise = Mat::uniform(m, n, seed + 2);
    for (av, nv) in a.as_mut_slice().iter_mut().zip(noise.as_slice()) {
        *av += drift * nv;
    }
    Input::Dense(a)
}

/// Runs `algo` on `p` ranks from the explicit factors `w0` / `ht0`.
fn warm_started(
    input: &Input,
    p: usize,
    algo: Algo,
    config: &NmfConfig,
    w0: Mat,
    ht0: Mat,
) -> NmfOutput {
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(p)
        .warm_start(w0, ht0)
        .build()
        .expect("valid warm-start request");
    model.run();
    model.into_output()
}

#[test]
fn warm_start_converges_faster_than_cold() {
    let (m, n, k) = (60, 40, 4);
    let config = NmfConfig::new(k).with_max_iters(25);
    // Fit window 1 from scratch.
    let first = factorize(&window(m, n, k, 0.0, 10), 4, Algo::Hpc2D, &config);

    // Window 2: same planted structure, small drift.
    let second = window(m, n, k, 0.05, 10);
    let budget = NmfConfig::new(k).with_max_iters(3);
    let cold = factorize(&second, 4, Algo::Hpc2D, &budget);
    let mut ht_prev = first.h.transpose();
    // Previous factors may contain exact zeros; keep them valid inits.
    ht_prev.project_nonnegative();
    let warm = warm_started(&second, 4, Algo::Hpc2D, &budget, first.w.clone(), ht_prev);
    assert!(
        warm.objective < cold.objective,
        "warm start ({}) should beat cold start ({}) on a small budget",
        warm.objective,
        cold.objective
    );
}

#[test]
fn warm_start_is_consistent_across_drivers() {
    let (m, n, k) = (36, 28, 3);
    let input = window(m, n, k, 0.1, 20);
    let w0 = Mat::uniform(m, k, 21);
    let ht0 = init_ht(n, k, 22);
    let config = NmfConfig::new(k).with_max_iters(4);
    let seq = warm_started(
        &input,
        1,
        Algo::Sequential,
        &config,
        w0.clone(),
        ht0.clone(),
    );
    for (p, algo) in [(4usize, Algo::Hpc2D), (3, Algo::Naive), (2, Algo::Hpc1D)] {
        let par = warm_started(&input, p, algo, &config, w0.clone(), ht0.clone());
        assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8 && par.h.max_abs_diff(&seq.h) < 1e-8,
            "{} warm start diverged from sequential",
            algo.name()
        );
    }
}
