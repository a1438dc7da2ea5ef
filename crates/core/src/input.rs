//! Input matrices: dense or sparse, global or per-rank local blocks.
//!
//! The engine is generic over density through [`LocalMat`]:
//! the two matrix-multiply kernels (`A·Hᵀ` and `Aᵀ·W`) are the only
//! operations that touch the data matrix, exactly as in the paper
//! ("the data matrix itself is never communicated").

use nmf_matrix::{matmul_into, matmul_packed_scratch_into, matmul_ta_into, Mat, PackedPanels};
use nmf_sparse::{spmm_at_dense_auto_into, spmm_dense_t_into, Csr, SpBlock};

/// A whole input matrix (held by the test/benchmark harness; in a real
/// MPI deployment each rank would read only its block from disk).
#[derive(Clone, Debug)]
pub enum Input {
    Dense(Mat),
    Sparse(Csr),
}

impl Input {
    pub fn nrows(&self) -> usize {
        match self {
            Input::Dense(a) => a.nrows(),
            Input::Sparse(a) => a.nrows(),
        }
    }

    pub fn ncols(&self) -> usize {
        match self {
            Input::Dense(a) => a.ncols(),
            Input::Sparse(a) => a.ncols(),
        }
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.nrows(), self.ncols())
    }

    /// Stored nonzeros (dense matrices report `m·n`).
    pub fn nnz(&self) -> usize {
        match self {
            Input::Dense(a) => a.len(),
            Input::Sparse(a) => a.nnz(),
        }
    }

    pub fn is_sparse(&self) -> bool {
        matches!(self, Input::Sparse(_))
    }

    pub fn fro_norm_sq(&self) -> f64 {
        match self {
            Input::Dense(a) => a.fro_norm_sq(),
            Input::Sparse(a) => a.fro_norm_sq(),
        }
    }

    /// Extracts the local block rows `r0..r0+nr`, cols `c0..c0+nc`.
    pub fn block(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> LocalMat {
        match self {
            Input::Dense(a) => LocalMat::Dense(a.block(r0, c0, nr, nc)),
            Input::Sparse(a) => LocalMat::Sparse(SpBlock::from_csr(a.block(r0, c0, nr, nc))),
        }
    }
}

/// One rank's block of the input matrix. Sparse blocks carry both the
/// CSR and its column view over one shared values ordering
/// ([`SpBlock`]), so `A_loc·Hᵀ` runs row-major and `A_locᵀ·W` runs the
/// forward-traversal CSC kernel — bit-identical to the transposed CSR
/// pass, without its scattered output writes.
#[derive(Clone, Debug)]
pub enum LocalMat {
    Dense(Mat),
    Sparse(SpBlock),
}

impl LocalMat {
    pub fn nrows(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.nrows(),
            LocalMat::Sparse(a) => a.nrows(),
        }
    }

    pub fn ncols(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.ncols(),
            LocalMat::Sparse(a) => a.ncols(),
        }
    }

    pub fn nnz(&self) -> usize {
        match self {
            LocalMat::Dense(a) => a.len(),
            LocalMat::Sparse(a) => a.nnz(),
        }
    }

    pub fn fro_norm_sq(&self) -> f64 {
        match self {
            LocalMat::Dense(a) => a.fro_norm_sq(),
            LocalMat::Sparse(a) => a.fro_norm_sq(),
        }
    }

    /// Packs this block into left-operand panels for `A_loc·Hᵀ` (dense;
    /// sparse blocks clear `p` — the CSR kernels need no packing).
    pub fn pack_a_into(&self, p: &mut PackedPanels) {
        match self {
            LocalMat::Dense(a) => p.pack_into(a),
            LocalMat::Sparse(_) => p.clear(),
        }
    }

    /// Packs this block's transpose into left-operand panels for
    /// `A_locᵀ·W` (dense; sparse blocks clear `p`).
    pub fn pack_at_into(&self, p: &mut PackedPanels) {
        match self {
            LocalMat::Dense(a) => p.pack_transposed_into(a),
            LocalMat::Sparse(_) => p.clear(),
        }
    }

    /// Local `A_loc·Hᵀ` into `out` (the `MM` task of the `W` update),
    /// reading the session-packed panels `p` when present (dense blocks
    /// fall back to pack-per-call if `p` is empty).
    pub fn mm_a_ht_packed_into(
        &self,
        p: &PackedPanels,
        ht: &Mat,
        out: &mut Mat,
        scratch: &mut Vec<f64>,
    ) {
        match self {
            LocalMat::Dense(a) if p.is_empty() => matmul_into(a, ht, out),
            LocalMat::Dense(_) => matmul_packed_scratch_into(p, ht, out, scratch),
            LocalMat::Sparse(a) => spmm_dense_t_into(a.csr(), ht, out),
        }
    }

    /// Local `A_locᵀ·W` into `out` (the `MM` task of the `H` update),
    /// reading the session-packed transpose panels `p` when present
    /// (dense blocks fall back to pack-per-call if `p` is empty). Sparse
    /// blocks dispatch by output size: column-forward off the block's
    /// CSC view when `n_loc·k` outgrows the last-level cache, the CSR
    /// transposed pass (bit-identical) otherwise.
    pub fn mm_at_w_packed_into(
        &self,
        p: &PackedPanels,
        w: &Mat,
        out: &mut Mat,
        scratch: &mut Vec<f64>,
    ) {
        match self {
            LocalMat::Dense(a) if p.is_empty() => matmul_ta_into(a, w, out),
            LocalMat::Dense(_) => matmul_packed_scratch_into(p, w, out, scratch),
            LocalMat::Sparse(a) => spmm_at_dense_auto_into(a.csr(), a.csc(), w, out),
        }
    }

    /// Flop count of one `MM` call on this block with rank `k`
    /// (`2·nnz·k`, which for dense equals `2·(m/pr)·(n/pc)·k`).
    pub fn mm_flops(&self, k: usize) -> f64 {
        2.0 * self.nnz() as f64 * k as f64
    }

    /// Resident heap bytes of this block (values plus, for sparse
    /// blocks, both index structures) — the input-side currency of the
    /// serving layer's shared-dataset accounting.
    pub fn resident_bytes(&self) -> usize {
        match self {
            LocalMat::Dense(a) => 8 * a.len(),
            LocalMat::Sparse(a) => a.resident_bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;
    use nmf_sparse::gen::banded;

    #[test]
    fn dense_and_sparse_kernels_agree() {
        let s = banded(12, 2);
        let dense = Input::Dense(s.to_dense()).block(0, 0, 12, 12);
        let sparse = LocalMat::Sparse(SpBlock::from_csr(s));
        let (ht, w) = (Mat::uniform(12, 4, 1), Mat::uniform(12, 4, 2));
        let mm = |a: &LocalMat, pa: &PackedPanels, pat: &PackedPanels| {
            let (mut aht, mut atw) = (Mat::zeros(12, 4), Mat::zeros(12, 4));
            let mut scratch = Vec::new();
            a.mm_a_ht_packed_into(pa, &ht, &mut aht, &mut scratch);
            a.mm_at_w_packed_into(pat, &w, &mut atw, &mut scratch);
            (aht, atw)
        };
        let none = PackedPanels::default();
        let (sp_aht, sp_atw) = mm(&sparse, &none, &none);
        let (mut pa, mut pat) = (PackedPanels::default(), PackedPanels::default());
        dense.pack_a_into(&mut pa);
        dense.pack_at_into(&mut pat);
        assert!(!pa.is_empty() && !pat.is_empty());
        // Session-packed panels, then an empty pack (the fallback branch).
        for (pa, pat) in [(&pa, &pat), (&none, &none)] {
            let (aht, atw) = mm(&dense, pa, pat);
            assert!(aht.max_abs_diff(&sp_aht) < 1e-12);
            assert!(atw.max_abs_diff(&sp_atw) < 1e-12);
        }
        assert_eq!(dense.fro_norm_sq(), sparse.fro_norm_sq());
    }

    #[test]
    fn blocks_agree_between_representations() {
        let s = banded(10, 3);
        let dense = Input::Dense(s.to_dense());
        let sparse = Input::Sparse(s);
        let bd = dense.block(2, 1, 5, 6);
        let bs = sparse.block(2, 1, 5, 6);
        match (bd, bs) {
            (LocalMat::Dense(d), LocalMat::Sparse(sp)) => {
                assert!(d.max_abs_diff(&sp.csr().to_dense()) < 1e-15);
            }
            _ => panic!("unexpected block variants"),
        }
    }

    #[test]
    fn mm_flops_counts() {
        let s = banded(10, 1);
        let nnz = s.nnz();
        let lm = LocalMat::Sparse(SpBlock::from_csr(s));
        assert_eq!(lm.mm_flops(5), (2 * nnz * 5) as f64);
        let ld = LocalMat::Dense(Mat::zeros(4, 6));
        assert_eq!(ld.mm_flops(2), (2 * 24 * 2) as f64);
    }
}
