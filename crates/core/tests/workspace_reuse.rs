//! Workspace-reuse correctness, through the path production uses: each
//! rank's engine owns its `IterWorkspace`, and `Model::refit` hands it to
//! the successor engine (`take_workspace` → `build_engine`). Reuse must be
//! a pure optimization — identical results run-to-run, identical results
//! when a refit reuses a workspace sized for another rank `k`, and
//! identical results between the parallel schemes and the sequential
//! reference (the paper's §6.1.3 same-computations protocol).

use hpc_nmf::prelude::*;
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;

fn test_input(m: usize, n: usize, seed: u64) -> Input {
    Input::Dense(Mat::uniform(m, n, seed))
}

/// A dense HPC-NMF session on an explicit 2×2 grid.
fn hpc_2x2(input: &Input, config: &NmfConfig) -> Model {
    Nmf::on(input)
        .config(*config)
        .algo(Algo::HpcGrid(Grid::new(2, 2)))
        .ranks(4)
        .build()
        .expect("valid 2x2 request")
}

/// Runs `model` to its stopping condition; returns `(W, H, objective)`.
fn fit(model: &mut Model) -> (Mat, Mat, f64) {
    model.run();
    let (w, h) = model.factors();
    (w, h, model.objective())
}

#[test]
fn two_consecutive_runs_are_bit_identical() {
    let input = test_input(36, 28, 91);
    let config = NmfConfig::new(4).with_max_iters(2).with_seed(5);
    let a = fit(&mut hpc_2x2(&input, &config));
    let b = fit(&mut hpc_2x2(&input, &config));
    assert_eq!(a.0, b.0, "W must be deterministic");
    assert_eq!(a.1, b.1, "H must be deterministic");
    assert_eq!(a.2, b.2, "objective must be deterministic");
}

#[test]
fn refit_to_another_rank_and_back_matches_a_fresh_build() {
    // One workspace per rank serves three engines: k=3, then k=5 (the
    // buffers grow), then k=3 again (they shrink). Each refit must match
    // a fresh build exactly — the workspace carries capacity, never
    // information.
    let input = test_input(30, 42, 17);
    let config = NmfConfig::new(3).with_max_iters(3).with_seed(9);
    let wider = NmfConfig { k: 5, ..config };
    let mut model = hpc_2x2(&input, &config);
    fit(&mut model);
    model.refit(wider).expect("refit to k=5");
    let refit_wider = fit(&mut model);
    model.refit(config).expect("refit back to k=3");
    let refit_back = fit(&mut model);

    for (refit, cfg, label) in [
        (&refit_wider, &wider, "refit to k=5"),
        (&refit_back, &config, "refit back to k=3"),
    ] {
        let fresh = fit(&mut hpc_2x2(&input, cfg));
        assert_eq!(refit.0, fresh.0, "{label}: reused workspace changed W");
        assert_eq!(refit.1, fresh.1, "{label}: reused workspace changed H");
        assert_eq!(refit.2, fresh.2, "{label}: objective differs");
    }
}

#[test]
fn hpc_workspace_path_matches_sequential_reference() {
    // The paper's same-computations protocol through the workspace-backed
    // path: every scheme and grid shape agrees with the sequential
    // reference to reassociation tolerance.
    for (m, n, p, algo) in [
        (24usize, 18usize, 4usize, Algo::Hpc2D),
        (21, 33, 3, Algo::Hpc1D),
        (16, 16, 4, Algo::Naive),
        (26, 19, 6, Algo::Hpc2D),
    ] {
        let input = test_input(m, n, (m * n) as u64);
        let config = NmfConfig::new(3).with_max_iters(3).with_seed(7);
        let seq = factorize(&input, 1, Algo::Sequential, &config);
        let par = factorize(&input, p, algo, &config);
        assert!(
            par.w.max_abs_diff(&seq.w) < 1e-8,
            "{:?} p={p} {m}x{n}: W diverged from sequential",
            algo
        );
        assert!(
            par.h.max_abs_diff(&seq.h) < 1e-8,
            "{:?} p={p} {m}x{n}: H diverged from sequential",
            algo
        );
    }
}

#[test]
fn sparse_input_workspace_path_matches_sequential() {
    use nmf_sparse::gen::erdos_renyi;
    let a = erdos_renyi(40, 30, 0.15, 77);
    let input = Input::Sparse(a);
    let config = NmfConfig::new(4).with_max_iters(3).with_seed(21);
    let seq = factorize(&input, 1, Algo::Sequential, &config);
    let par = factorize(&input, 4, Algo::Hpc2D, &config);
    assert!(par.w.max_abs_diff(&seq.w) < 1e-8, "sparse W diverged");
    assert!(par.h.max_abs_diff(&seq.h) < 1e-8, "sparse H diverged");
}
