//! Dense linear-algebra substrate for the HPC-NMF reproduction.
//!
//! The paper relies on vendor BLAS/LAPACK for its local computations
//! (GEMM, Gram matrices, and the small symmetric positive-definite solves
//! inside the NLS subproblems). This crate provides those routines in pure
//! Rust so the reproduction has no external native dependencies:
//!
//! * [`Mat`] — an owned, row-major, `f64` dense matrix with block extraction
//!   and in-place arithmetic;
//! * [`gemm`] — packed GotoBLAS-style matrix-multiply kernels in all
//!   transpose combinations used by the algorithms (`A·B`, `Aᵀ·B`,
//!   `A·Bᵀ`), with optional rayon parallelism for standalone
//!   (non-rank-parallel) use;
//! * [`simd`] — the runtime-dispatched `MR×NR` register microkernels
//!   (AVX2+FMA 6×8 with a portable scalar 4×8 fallback, chosen once per
//!   process; `NMF_FORCE_SCALAR=1` pins the fallback);
//! * [`pack`] — operand packing into microkernel-ready panels, including
//!   [`PackedPanels`] for left operands packed once and reused across a
//!   whole ANLS session;
//! * [`mod@gram`] — symmetric rank-k products `XᵀX` and `XXᵀ` exploiting
//!   symmetry;
//! * [`chol`] — Cholesky factorization and batched multi-right-hand-side
//!   solves for the `k×k` normal-equation systems;
//! * [`rng`] — deterministic fills (uniform, Gaussian via Box–Muller) so
//!   every experiment is reproducible from a seed.
//!
//! All kernels are written for the regime the paper targets: `k ≤ ~100`
//! while `m, n` are large, so matrices are tall-and-skinny or tiny-square.
//! See `docs/kernels.md` for the kernel-layer design (dispatch, packing
//! formats, and the once-per-session A-panel cache).

pub mod chol;
pub mod gemm;
pub mod gram;
pub mod mat;
pub mod ops;
pub mod pack;
pub mod rng;
pub mod simd;

pub use chol::{
    cholesky, cholesky_into, cholesky_solve, cholesky_solve_in_place, solve_spd, CholError,
};
pub use gemm::{
    matmul, matmul_into, matmul_packed_into, matmul_packed_scratch_into, matmul_par,
    matmul_par_into, matmul_ta, matmul_ta_into, matmul_tb, matmul_tb_into,
};
pub use gram::{gram, gram_into, outer_gram, outer_gram_into};
pub use mat::Mat;
pub use pack::PackedPanels;
