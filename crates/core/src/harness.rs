//! Batch front-end: run any algorithm to completion on a shared input.
//!
//! [`factorize`] is the one-call wrapper over the session: it builds a
//! [`Model`](crate::session::Model) through
//! [`Nmf`](crate::session::Nmf::on), runs it to its stopping condition,
//! and assembles the classic [`NmfOutput`]. Code that needs warm starts,
//! stepping, checkpoints or typed errors uses
//! [`Nmf::on(..)`](crate::session::Nmf::on) directly, which reports
//! invalid requests as [`NmfError`](crate::error::NmfError) values
//! instead of this wrapper's panics.

use crate::config::{NmfConfig, NmfOutput};
use crate::grid::Grid;
use crate::input::Input;
use crate::session::Nmf;

use nmf_vmpi::CommStats;

/// Which parallel algorithm (and grid) to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Single-process ANLS (Algorithm 1); ignores `p`.
    Sequential,
    /// Naive-Parallel-NMF (Algorithm 2) on `p` ranks.
    Naive,
    /// HPC-NMF (Algorithm 3) with a 1D grid (`pr = p, pc = 1`).
    Hpc1D,
    /// HPC-NMF with the communication-optimal 2D grid for the input
    /// shape ([`Grid::optimal`]).
    Hpc2D,
    /// HPC-NMF with an explicit grid.
    HpcGrid(Grid),
}

impl Algo {
    /// Grid used for `p` ranks on an `m×n` input.
    pub fn grid(&self, m: usize, n: usize, p: usize) -> Grid {
        match self {
            Algo::Sequential => Grid::new(1, 1),
            Algo::Naive | Algo::Hpc1D => Grid::one_dimensional(p),
            Algo::Hpc2D => Grid::optimal(m, n, p),
            Algo::HpcGrid(g) => {
                assert_eq!(g.size(), p, "explicit grid must have p ranks");
                *g
            }
        }
    }

    pub fn name(&self) -> &'static str {
        match self {
            Algo::Sequential => "Sequential",
            Algo::Naive => "Naive",
            Algo::Hpc1D => "HPC-NMF-1D",
            Algo::Hpc2D => "HPC-NMF-2D",
            Algo::HpcGrid(_) => "HPC-NMF-grid",
        }
    }
}

/// Runs `algo` on `p` ranks over `input` from the seeded initialization
/// and returns assembled factors plus per-rank instrumentation. Panics
/// on a request [`Nmf::on`] would reject; `p` is ignored for
/// [`Algo::Sequential`].
pub fn factorize(input: &Input, p: usize, algo: Algo, config: &NmfConfig) -> NmfOutput {
    let ranks = if matches!(algo, Algo::Sequential) {
        1
    } else {
        p
    };
    let mut model = Nmf::on(input)
        .config(*config)
        .algo(algo)
        .ranks(ranks)
        .build()
        .unwrap_or_else(|e| panic!("invalid factorization request: {e}"));
    model.run();
    model.into_output()
}

/// Sum of all ranks' communication counters.
pub fn total_comm(out: &NmfOutput) -> CommStats {
    let mut total = CommStats::new();
    for s in &out.rank_comm {
        total.merge(s);
    }
    total
}
