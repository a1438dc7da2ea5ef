//! Per-iteration workspaces for the ANLS engine.
//!
//! Every ANLS outer iteration of every scheme produces the same cast of
//! intermediate matrices — two `k×k` Grams and their globally-reduced
//! and ridge-shifted copies, the assembled factor block, the `MM`
//! products, and (for HPC-NMF) the reduce-scattered normal-equation
//! right-hand sides. [`IterWorkspace`] owns them all. One struct serves
//! all three schemes; each scheme's `size_for_*` method sizes exactly
//! the buffers it touches and leaves the rest `0×0`.
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
//!    `mm_a_ht_packed_into`, …);
//! 2. the collectives are the `_into` variants
//!    ([`Comm::all_reduce_into`](nmf_vmpi::Comm::all_reduce_into) & co.),
//!    which write into those workspace buffers and draw their own round
//!    staging from a per-rank arena inside the communicator;
//! 3. the NLS solvers hold their pivoting state and factorization
//!    buffers in solver-owned scratch reused across iterations.
//!
//! What still allocates: the one-time setup (sub-communicators, counts,
//! workspace), the per-iteration `IterRecord` bookkeeping pushed onto the
//! engine's record vector (instrumentation; `iters` is reserved with
//! `max_iters` capacity up front), and the message boxes inside the
//! channel transport (the "interconnect" — a real MPI would hand those
//! to the NIC). `crates/core/tests/alloc_steady_state.rs` counts
//! allocations to hold this; the repository benchmark (`nmfbench/`)
//! tracks the resulting per-iteration times.

use nmf_matrix::{Mat, PackedPanels};

/// The once-per-session packed form of this rank's data matrix, plus the
/// `B`-tile scratch the packed GEMM repacks per call.
///
/// ANLS structure: the data matrix `A` never changes across iterations,
/// so its microkernel panels (`a`, feeding `A·Hᵀ`) and its transpose's
/// (`at`, feeding `Aᵀ·W`) are built **once** at engine construction by
/// [`AnlsData::pack_session`](crate::engine::AnlsData::pack_session) and
/// every iteration's `MM` reads only packed panels. Sparse inputs leave
/// both panel sets empty (their `MM` kernels walk the CSR directly).
///
/// `bpack` is the right-operand tile scratch, pre-sized by
/// [`reserve_scratch`](SessionPack::reserve_scratch) to the largest
/// `KC`-deep block either product needs, so even the *first* iteration's
/// packed GEMMs allocate nothing — the counting-allocator tests assert
/// iteration-count-independent totals with no warmup.
#[derive(Clone, Debug, Default)]
pub struct SessionPack {
    /// Panels of the local `A` block (left operand of `A·Hᵀ`).
    pub a: PackedPanels,
    /// Panels of the local `Aᵀ` (left operand of `Aᵀ·W`), packed from
    /// `A`'s rows without materializing the transpose.
    pub at: PackedPanels,
    /// Per-call `B`-tile scratch shared by both packed products.
    pub bpack: Vec<f64>,
}

impl SessionPack {
    /// Grow `bpack` to the bound both packed products need for a `·×k`
    /// right operand; afterwards steady-state GEMMs never resize it.
    pub fn reserve_scratch(&mut self, k: usize) {
        let need = self.a.b_scratch_len(k).max(self.at.b_scratch_len(k));
        if self.bpack.len() < need {
            self.bpack.resize(need, 0.0);
        }
    }
}

/// Owned storage for every per-iteration matrix of an ANLS engine.
///
/// Field names follow the update in which the buffer is produced; the
/// table maps them to the paper's Algorithm 1–3 symbols:
///
/// | field        | sequential (Alg. 1) | naive (Alg. 2)      | HPC (Alg. 3)          |
/// |--------------|---------------------|---------------------|-----------------------|
/// | `gram_w`     | `WᵀW`               | `WᵀW` (redundant)   | `WᵀW` (all-reduced)   |
/// | `gram_solve` | `HHᵀ`+ridge, then ridged `WᵀW` copy | same | same              |
/// | `gram_local` | next `HHᵀ`          | local `HHᵀ`         | `Uᵢⱼ` / `Xᵢⱼ`        |
/// | `ht_gather`  | —                   | assembled `Hᵀ`      | `Hⱼᵀ` (col gather)    |
/// | `w_gather`   | —                   | assembled `W`       | `Wᵢ` (row gather)     |
/// | `mm_w`       | `AHᵀ`               | `AᵢHᵀ`              | `Vᵢⱼ = AᵢⱼHⱼᵀ`       |
/// | `mm_h`       | `AᵀW`               | `(Aʲ)ᵀW`            | `Yᵢⱼ = (Wᵢᵀ Aᵢⱼ)ᵀ`   |
/// | `aht`        | —                   | —                   | `((AHᵀ)ᵢ)ⱼ` (rs out)  |
/// | `wta`        | —                   | —                   | `((WᵀA)ⱼ)ᵢ` (rs out)  |
///
/// `pack` is not a per-iteration buffer but the once-per-session
/// [`SessionPack`]ed form of the data matrix; it lives here so the
/// warm-restart path
/// ([`AnlsEngine::with_workspace`](crate::engine::AnlsEngine::with_workspace)
/// → `take_workspace`) carries the packed panels' storage across
/// engines too.
#[derive(Clone, Debug, Default)]
pub struct IterWorkspace {
    pub gram_w: Mat,
    pub gram_solve: Mat,
    pub gram_local: Mat,
    pub ht_gather: Mat,
    pub w_gather: Mat,
    pub mm_w: Mat,
    pub mm_h: Mat,
    pub aht: Mat,
    pub wta: Mat,
    pub pack: SessionPack,
}

impl IterWorkspace {
    /// Sizes the three `k×k` Gram buffers every scheme uses.
    fn size_grams(&mut self, k: usize) {
        self.gram_w.resize(k, k);
        self.gram_solve.resize(k, k);
        self.gram_local.resize(k, k);
    }

    /// In-place (re)sizing for the sequential scheme on an `m×n` input
    /// at rank `k`; a no-op when already sized. The single source of
    /// truth for which buffers Algorithm 1 touches (the engine's
    /// `LocalScheme`).
    pub fn size_for_seq(&mut self, m: usize, n: usize, k: usize) {
        self.size_grams(k);
        self.mm_w.resize(m, k);
        self.mm_h.resize(n, k);
    }

    /// In-place (re)sizing for one rank of the naive scheme: `m×n`
    /// global dims, `rows`/`cols` this rank's row-block height and
    /// column-block width (the engine's `Replicated1D`).
    pub fn size_for_naive(&mut self, m: usize, n: usize, rows: usize, cols: usize, k: usize) {
        self.size_grams(k);
        self.ht_gather.resize(n, k);
        self.w_gather.resize(m, k);
        self.mm_w.resize(rows, k);
        self.mm_h.resize(cols, k);
    }

    /// In-place (re)sizing for one rank of HPC-NMF:
    /// `block_rows`/`block_cols` the local `Aᵢⱼ` dimensions,
    /// `w_rows`/`ht_rows` the heights of this rank's 1D factor slices
    /// `(Wᵢ)ⱼ` and `(Hⱼ)ᵢ` (the engine's `Grid2D`).
    pub fn size_for_hpc(
        &mut self,
        block_rows: usize,
        block_cols: usize,
        w_rows: usize,
        ht_rows: usize,
        k: usize,
    ) {
        self.size_grams(k);
        self.ht_gather.resize(block_cols, k);
        self.w_gather.resize(block_rows, k);
        self.mm_w.resize(block_rows, k);
        self.mm_h.resize(block_cols, k);
        self.aht.resize(w_rows, k);
        self.wta.resize(ht_rows, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizing_touches_only_what_each_scheme_uses() {
        let mut seq = IterWorkspace::default();
        seq.size_for_seq(10, 8, 3);
        assert_eq!(seq.mm_w.shape(), (10, 3));
        assert_eq!(seq.mm_h.shape(), (8, 3));
        assert_eq!(seq.ht_gather.shape(), (0, 0));
        assert_eq!(seq.aht.shape(), (0, 0));

        let mut naive = IterWorkspace::default();
        naive.size_for_naive(10, 8, 5, 4, 3);
        assert_eq!(naive.ht_gather.shape(), (8, 3));
        assert_eq!(naive.w_gather.shape(), (10, 3));
        assert_eq!(naive.mm_w.shape(), (5, 3));
        assert_eq!(naive.mm_h.shape(), (4, 3));

        let mut hpc = IterWorkspace::default();
        hpc.size_for_hpc(6, 5, 3, 2, 4);
        assert_eq!(hpc.ht_gather.shape(), (5, 4));
        assert_eq!(hpc.w_gather.shape(), (6, 4));
        assert_eq!(hpc.mm_w.shape(), (6, 4));
        assert_eq!(hpc.mm_h.shape(), (5, 4));
        assert_eq!(hpc.aht.shape(), (3, 4));
        assert_eq!(hpc.wta.shape(), (2, 4));
        assert_eq!(hpc.gram_solve.shape(), (4, 4));
    }
}
