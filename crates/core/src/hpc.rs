//! HPC-NMF (Algorithm 3): the paper's communication-optimal algorithm.
//!
//! The data matrix is distributed once, as `pr × pc` blocks `Aᵢⱼ`; the
//! factors live in 1D distributions (`W` row-wise, `H` column-wise) with
//! each grid row/column collectively owning one block. Per iteration and
//! per factor, the algorithm performs exactly one all-reduce (`k×k` Gram),
//! one all-gather (assembling the factor block along the grid dimension
//! that shares it), and one reduce-scatter (summing the local matrix
//! products and slicing the result back to the 1D distribution) — giving
//! the `O(√(mnk²/p))`-word, `O(log p)`-message costs of Table 2.
//!
//! The iteration loop itself lives in [`crate::engine`]: this module is
//! a thin constructor that binds the engine to the [`Grid2D`] scheme
//! (whose methods carry the paper's Algorithm 3 line-number comments).
//!
//! # Performance notes: the zero-allocation iteration loop
//!
//! The steady-state loop performs **no heap allocations in the compute
//! path**. Three mechanisms combine to achieve that:
//!
//! 1. every per-iteration matrix — Grams, assembled factor blocks, `MM`
//!    products, reduce-scatter outputs — lives in an [`IterWorkspace`]
//!    allocated once before the loop and overwritten in place each
//!    iteration ([`nmf_matrix::matmul_into`], `gram_into`,
//!    `mm_a_ht_into`, …);
//! 2. the collectives are the `_into` variants
//!    ([`Comm::all_reduce_into`](nmf_vmpi::Comm::all_reduce_into) & co.),
//!    which write into those workspace buffers and draw their own round
//!    staging from a per-rank arena inside the communicator;
//! 3. the NLS solvers hold their pivoting state and factorization
//!    buffers in solver-owned scratch reused across iterations.
//!
//! What still allocates: the one-time setup (sub-communicators, counts,
//! workspace), the per-iteration `IterRecord` bookkeeping pushed onto the
//! result vector (instrumentation, reserved up front), and the message
//! boxes inside the channel transport (the "interconnect" — a real MPI
//! would hand those to the NIC). The repository benchmark (`nmfbench/`)
//! tracks the resulting per-iteration times.

use crate::config::NmfConfig;
use crate::engine::{AnlsEngine, Grid2D};
use crate::grid::Grid;
use crate::input::LocalMat;
use crate::naive::RankNmfOutput;
use crate::workspace::IterWorkspace;
use nmf_matrix::Mat;
use nmf_vmpi::Comm;

/// Runs Algorithm 3 on one rank of a `grid.pr × grid.pc` processor grid.
///
/// * `local` — this rank's block `Aᵢⱼ` (`≈ m/pr × n/pc`);
/// * `w0`    — this rank's `(Wᵢ)ⱼ` slice of the global `W` init
///   (`≈ m/p × k`);
/// * `ht0`   — this rank's `(Hⱼ)ᵢ` slice of the global `H` init, stored
///   transposed (`≈ n/p × k`).
///
/// Allocates an [`IterWorkspace`] and delegates to
/// [`hpc_nmf_rank_with_workspace`]; callers running repeated
/// factorizations (warm restarts, parameter sweeps) can hold the
/// workspace themselves and skip even the setup allocations.
pub fn hpc_nmf_rank(
    comm: &Comm,
    grid: Grid,
    dims: (usize, usize),
    local: &LocalMat,
    w0: Mat,
    ht0: Mat,
    config: &NmfConfig,
) -> RankNmfOutput {
    let mut ws = IterWorkspace::for_hpc(
        local.nrows(),
        local.ncols(),
        w0.nrows(),
        ht0.nrows(),
        config.k,
    );
    hpc_nmf_rank_with_workspace(comm, grid, dims, local, w0, ht0, config, &mut ws)
}

/// [`hpc_nmf_rank`] with a caller-owned workspace (resized to fit if the
/// shapes differ from its previous use).
///
/// A thin constructor over [`AnlsEngine`] with the [`Grid2D`] scheme,
/// which owns the grid-row/grid-column sub-communicators and performs
/// Algorithm 3's collectives (lines 4–7 and 10–13) inside the engine's
/// shared loop body.
#[allow(clippy::too_many_arguments)]
pub fn hpc_nmf_rank_with_workspace(
    comm: &Comm,
    grid: Grid,
    dims: (usize, usize),
    local: &LocalMat,
    w0: Mat,
    ht0: Mat,
    config: &NmfConfig,
    ws: &mut IterWorkspace,
) -> RankNmfOutput {
    let scheme = Grid2D::new(comm, grid, dims, config.k).with_overlap(config.overlap);
    assert_eq!(
        (local.nrows(), local.ncols()),
        scheme.block_shape(),
        "local block shape mismatch"
    );
    assert_eq!(w0.shape(), scheme.w_shape());
    assert_eq!(ht0.shape(), scheme.ht_shape());

    let mut engine = AnlsEngine::with_workspace(scheme, local, config, w0, ht0, std::mem::take(ws));
    engine.run();
    let (out, ws_back) = engine.into_rank_output_and_workspace();
    *ws = ws_back;
    out
}
