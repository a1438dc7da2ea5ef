//! The step-wise ANLS engine: one iteration loop behind all three algorithms.
//!
//! The paper's central observation is that Sequential (Algorithm 1),
//! Naive-Parallel (Algorithm 2), and HPC-NMF (Algorithm 3) perform *the
//! same alternating-NLS computation* and differ only in how the Gram
//! matrices, assembled factor blocks, and normal-equation right-hand
//! sides move between processors. [`AnlsEngine`] encodes that directly:
//! the loop body — Gram → ridge → NLS solve, twice, then the
//! Gram-identity objective — exists exactly once ([`AnlsEngine::step`]),
//! and the three algorithms are three implementations of [`CommScheme`]:
//!
//! | Scheme | Paper | Communication |
//! |---|---|---|
//! | [`LocalScheme`] | Algorithm 1 | none |
//! | [`Replicated1D`] | Algorithm 2 | all-gather whole factors, redundant Grams |
//! | [`Grid2D`] | Algorithm 3 | Gram all-reduce + grid-dimension all-gather + reduce-scatter |
//!
//! Because the arithmetic is shared, the engine keeps two properties
//! across all three schemes: **bit-identical
//! iterate trajectories** across schemes and processor counts (the same
//! kernels run in the same order on the same operands), and the
//! **zero-allocation steady state** (every per-iteration matrix lives in
//! the [`IterWorkspace`], the collectives are the `_into` variants, and
//! the NLS solvers reuse their own scratch).
//!
//! ## Step-wise execution
//!
//! The engine is a resumable iterator: [`step`](AnlsEngine::step)
//! executes exactly one outer iteration and returns its [`IterRecord`];
//! [`factors`](AnlsEngine::factors) exposes the current iterates
//! mid-run (for checkpointing, streaming consumers, or serving partially
//! converged factors); a fresh engine started from exported factors
//! continues the *bit-identical* trajectory (see
//! `tests/checkpoint_resume.rs`). [`run`](AnlsEngine::run) drives
//! `step` under the configured [`ConvergencePolicy`] and
//! [`run_observed`](AnlsEngine::run_observed) additionally invokes a
//! per-iteration observer — the hook for progress reporting, live
//! objective dashboards, or external early-stop controllers.
//!
//! ## Distributed stopping discipline
//!
//! Every stopping decision must be *collective*: if one rank leaves the
//! loop while another enters a collective, the job deadlocks. The engine
//! guarantees agreement by deciding only on collectively-known values:
//! the objective is all-reduced (every rank sees the same float), and
//! the wall-clock budget of [`ConvergencePolicy::WindowedBudget`] is
//! folded into the objective all-reduce as a flag summed across ranks,
//! so one slow rank stops everyone.

use crate::config::{apply_ridge, ConvergencePolicy, IterRecord, NmfConfig, StopReason, TaskTimes};
use crate::dist::{Dist1D, Part};
use crate::grid::Grid;
use crate::input::LocalMat;
use crate::workspace::{IterWorkspace, SessionPack};
use nmf_matrix::gram::gram_into;
use nmf_matrix::Mat;
use nmf_nls::NlsSolver;
use nmf_vmpi::{Comm, CommStats, PendingOp};
use std::cell::RefCell;
use std::time::{Duration, Instant};

/// The data-matrix kernels an ANLS iteration needs. The data matrix
/// enters the algorithm only through these two products (plus its norm),
/// exactly as in the paper ("the data matrix itself is never
/// communicated"); implementations exist for a single block
/// [`LocalMat`] (the whole matrix under [`LocalScheme`], one `Aᵢⱼ`
/// under [`Grid2D`]) and the doubly-stored [`SplitBlocks`] of the naive
/// algorithm.
pub trait AnlsData {
    /// Packs this rank's dense data into microkernel-ready panels
    /// ([`SessionPack`]) — called once at engine construction, so every
    /// iteration's `MM` products skip left-operand packing entirely.
    /// Sparse implementations clear the pack. Must also pre-size the
    /// pack's tile scratch for `·×k` right operands so steady-state
    /// iterations (including the first) allocate nothing.
    fn pack_session(&self, pack: &mut SessionPack, k: usize);
    /// Local `A·Hᵀ` with `Hᵀ` supplied row-major (`·×k`), into `out`,
    /// reading the session-packed panels when present.
    fn mm_a_ht_into(&self, pack: &mut SessionPack, ht: &Mat, out: &mut Mat);
    /// Local `Aᵀ·W`, into `out` (stored transposed, `·×k`), reading the
    /// session-packed transpose panels when present.
    fn mm_at_w_into(&self, pack: &mut SessionPack, w: &Mat, out: &mut Mat);
    /// This rank's contribution to `‖A‖²_F`, each entry counted exactly
    /// once across all ranks.
    fn norm_sq_contrib(&self) -> f64;
}

impl AnlsData for &LocalMat {
    fn pack_session(&self, pack: &mut SessionPack, k: usize) {
        self.pack_a_into(&mut pack.a);
        self.pack_at_into(&mut pack.at);
        pack.reserve_scratch(k);
    }

    fn mm_a_ht_into(&self, pack: &mut SessionPack, ht: &Mat, out: &mut Mat) {
        LocalMat::mm_a_ht_packed_into(self, &pack.a, ht, out, &mut pack.bpack);
    }

    fn mm_at_w_into(&self, pack: &mut SessionPack, w: &Mat, out: &mut Mat) {
        LocalMat::mm_at_w_packed_into(self, &pack.at, w, out, &mut pack.bpack);
    }

    fn norm_sq_contrib(&self) -> f64 {
        self.fro_norm_sq()
    }
}

/// Algorithm 2's doubled storage: the row block `Aᵢ` feeds `A·Hᵀ`, the
/// column block `Aʲ` feeds `Aᵀ·W`. The norm contribution comes from the
/// column blocks alone so each entry is counted once.
pub struct SplitBlocks<'a> {
    pub row_block: &'a LocalMat,
    pub col_block: &'a LocalMat,
}

impl AnlsData for SplitBlocks<'_> {
    fn pack_session(&self, pack: &mut SessionPack, k: usize) {
        self.row_block.pack_a_into(&mut pack.a);
        self.col_block.pack_at_into(&mut pack.at);
        pack.reserve_scratch(k);
    }

    fn mm_a_ht_into(&self, pack: &mut SessionPack, ht: &Mat, out: &mut Mat) {
        self.row_block
            .mm_a_ht_packed_into(&pack.a, ht, out, &mut pack.bpack);
    }

    fn mm_at_w_into(&self, pack: &mut SessionPack, w: &Mat, out: &mut Mat) {
        self.col_block
            .mm_at_w_packed_into(&pack.at, w, out, &mut pack.bpack);
    }

    fn norm_sq_contrib(&self) -> f64 {
        self.col_block.fro_norm_sq()
    }
}

/// Which buffer holds the factor block a matrix-multiply should read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FactorSource {
    /// The engine's own local factor slice (nothing was gathered).
    Local,
    /// The workspace gather buffer (`ht_gather` / `w_gather`).
    Gathered,
}

/// Which buffer holds the normal-equation right-hand side after the
/// post-MM reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RhsSource {
    /// The MM output itself (`mm_w` / `mm_h`); no reduction happened.
    Mm,
    /// The reduce-scatter output (`aht` / `wta`).
    Scattered,
}

/// A communication layout for the ANLS iteration: everything that
/// distinguishes Algorithms 1–3 from each other. [`AnlsEngine::step`]
/// invokes the hooks in a fixed order — post H gather, post `HHᵀ`
/// reduction, wait H gather, (engine MM), post W scatter, wait `HHᵀ`,
/// wait W scatter, (engine solve), then the W-side mirror, then the
/// objective reduction — and each implementation performs its
/// collectives inside the matching hooks so the on-wire schedule is
/// exactly the paper's algorithm.
///
/// A scheme that overlaps puts a collective in flight at its `post_*`
/// hook and completes it at the matching `wait_*`, running the next
/// local product in between; a scheme that does not simply does all of
/// its work at the `post_*` hook. The defaults are for "nothing to
/// communicate": a no-op post or wait, [`FactorSource::Local`] and
/// [`RhsSource::Mm`].
///
/// Compute performed inside a hook (the Gram products) is timed into the
/// caller's [`TaskTimes`]; communication is accounted separately by the
/// virtual MPI and surfaced through [`CommScheme::comm_stats`].
pub trait CommScheme {
    /// Sizes (or re-sizes) the workspace buffers this scheme touches; a
    /// no-op when already sized.
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize);

    /// One-time preparation before the first iteration (e.g. HPC-NMF
    /// primes the local `H` Gram that iteration 1's all-reduce consumes).
    fn prime(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        let _ = (ws, ht_local);
    }

    /// Sums a scalar across ranks (the `‖A‖²` setup reduction).
    fn reduce_scalar(&self, x: f64) -> f64;

    /// Sums the objective terms (and, when present, the wall-clock
    /// budget flag) across ranks, in place.
    fn reduce_objective_terms(&self, terms: &mut [f64]);

    /// Snapshot of this rank's cumulative communication counters.
    fn comm_stats(&self) -> CommStats;

    /// Starts assembling the `Hᵀ` block the local `A·Hᵀ` needs (into
    /// `ws.ht_gather`).
    fn post_gather_h(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        let _ = (ws, ht_local);
    }

    /// Completes the H-assembly gather and says where to read the block.
    fn wait_gather_h(&self, ws: &mut IterWorkspace) -> FactorSource {
        let _ = ws;
        FactorSource::Local
    }

    /// Starts the `HHᵀ` reduction; once waited, the *global* Gram is in
    /// `ws.gram_solve`, un-ridged.
    fn post_reduce_gram_h(&self, ws: &mut IterWorkspace, ht_local: &Mat, tt: &mut TaskTimes);

    /// Completes the `HHᵀ` reduction into `ws.gram_solve`.
    fn wait_reduce_gram_h(&self, ws: &mut IterWorkspace) {
        let _ = ws;
    }

    /// Starts reducing `ws.mm_w` to this rank's right-hand side for the
    /// `W` solve.
    fn post_reduce_scatter_w(&self, ws: &mut IterWorkspace) {
        let _ = ws;
    }

    /// Completes the W-side reduction and says where the right-hand
    /// side landed.
    fn wait_reduce_scatter_w(&self, ws: &mut IterWorkspace) -> RhsSource {
        let _ = ws;
        RhsSource::Mm
    }

    /// Starts assembling the `W` block the local `Aᵀ·W` needs (into
    /// `ws.w_gather`).
    fn post_gather_w(&self, ws: &mut IterWorkspace, w_local: &Mat) {
        let _ = (ws, w_local);
    }

    /// Completes the W-assembly gather and says where to read the block.
    fn wait_gather_w(&self, ws: &mut IterWorkspace) -> FactorSource {
        let _ = ws;
        FactorSource::Local
    }

    /// Starts the `WᵀW` reduction; once waited, the *global* Gram is in
    /// `ws.gram_w`, un-ridged (it is also read by the objective).
    fn post_reduce_gram_w(&self, ws: &mut IterWorkspace, w_local: &Mat, tt: &mut TaskTimes);

    /// Completes the `WᵀW` reduction into `ws.gram_w`.
    fn wait_reduce_gram_w(&self, ws: &mut IterWorkspace) {
        let _ = ws;
    }

    /// Starts reducing `ws.mm_h` to this rank's right-hand side for the
    /// `H` solve.
    fn post_reduce_scatter_h(&self, ws: &mut IterWorkspace) {
        let _ = ws;
    }

    /// Completes the H-side reduction and says where the right-hand
    /// side landed.
    fn wait_reduce_scatter_h(&self, ws: &mut IterWorkspace) -> RhsSource {
        let _ = ws;
        RhsSource::Mm
    }

    /// Whether the engine may post the *next* iteration's H-side
    /// collectives (`post_gather_h` / `post_reduce_gram_h`) before this
    /// iteration's objective reduction, letting them ride its wake
    /// chain. Only meaningful for schemes that put those collectives in
    /// flight — a scheme that does its work at the post site must not
    /// move it across the iteration boundary — so this defaults to
    /// `false`.
    fn prefetch_across_iterations(&self) -> bool {
        false
    }
}

/// Algorithm 1: single process, no communication. Every hook is the
/// identity or a plain local Gram.
#[derive(Clone, Copy, Debug)]
pub struct LocalScheme {
    m: usize,
    n: usize,
}

impl LocalScheme {
    /// Scheme for an `m×n` input on one process.
    pub fn new(m: usize, n: usize) -> Self {
        LocalScheme { m, n }
    }
}

impl CommScheme for LocalScheme {
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize) {
        ws.size_for_seq(self.m, self.n, k);
    }

    fn reduce_scalar(&self, x: f64) -> f64 {
        x
    }

    fn reduce_objective_terms(&self, _terms: &mut [f64]) {}

    fn comm_stats(&self) -> CommStats {
        CommStats::new()
    }

    fn post_reduce_gram_h(&self, ws: &mut IterWorkspace, ht_local: &Mat, tt: &mut TaskTimes) {
        // HHᵀ goes straight into the solve buffer; nothing reads the
        // un-ridged Gram later.
        let t0 = Instant::now();
        gram_into(ht_local, &mut ws.gram_solve);
        tt.gram += t0.elapsed();
    }

    fn post_reduce_gram_w(&self, ws: &mut IterWorkspace, w_local: &Mat, tt: &mut TaskTimes) {
        let t0 = Instant::now();
        gram_into(w_local, &mut ws.gram_w);
        tt.gram += t0.elapsed();
    }
}

/// Algorithm 2 (Naive-Parallel): 1D distributions of both factors, an
/// all-gather of the *entire* other factor before each solve, and a
/// redundant Gram on every rank — the `O((m+n)k)`-word baseline the
/// paper improves on.
pub struct Replicated1D<'c> {
    comm: &'c Comm,
    /// Global factor-row distributions (`W` rows / `H` columns).
    dist_m: Dist1D,
    dist_n: Dist1D,
    /// All-gather counts (words) for the two factors.
    w_counts: Vec<usize>,
    h_counts: Vec<usize>,
    k: usize,
}

impl<'c> Replicated1D<'c> {
    /// Scheme for one rank of Algorithm 2 on an `m×n` input at rank `k`.
    pub fn new(comm: &'c Comm, dims: (usize, usize), k: usize) -> Self {
        let (m, n) = dims;
        let p = comm.size();
        let dist_m = Dist1D::new(m, p);
        let dist_n = Dist1D::new(n, p);
        let w_counts = dist_m.lens_scaled(k);
        let h_counts = dist_n.lens_scaled(k);
        Replicated1D {
            comm,
            dist_m,
            dist_n,
            w_counts,
            h_counts,
            k,
        }
    }

    /// This rank's slice of the global `W` rows.
    pub fn w_part(&self) -> Part {
        self.dist_m.part(self.comm.rank())
    }

    /// This rank's slice of the global `H` columns.
    pub fn ht_part(&self) -> Part {
        self.dist_n.part(self.comm.rank())
    }
}

impl CommScheme for Replicated1D<'_> {
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize) {
        debug_assert_eq!(k, self.k);
        ws.size_for_naive(
            self.dist_m.total(),
            self.dist_n.total(),
            self.w_part().len,
            self.ht_part().len,
            k,
        );
    }

    fn reduce_scalar(&self, x: f64) -> f64 {
        self.comm.all_reduce_scalar(x)
    }

    fn reduce_objective_terms(&self, terms: &mut [f64]) {
        self.comm.all_reduce_into(terms);
    }

    fn comm_stats(&self) -> CommStats {
        self.comm.stats()
    }

    // The right-hand sides need no reduction (Aᵢ is a full row block, so
    // AᵢHᵀ already is this rank's right-hand side), so the scatter hooks
    // keep their defaults.

    fn post_gather_h(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        // Line 3: collect the whole of H on each processor; the gather
        // feeds both the redundant Gram and the MM.
        self.comm.all_gatherv_into(
            ht_local.as_slice(),
            &self.h_counts,
            ws.ht_gather.as_mut_slice(),
        );
    }

    fn post_reduce_gram_h(&self, ws: &mut IterWorkspace, _ht_local: &Mat, tt: &mut TaskTimes) {
        // Every rank computes HHᵀ itself, straight into the solve buffer.
        let t0 = Instant::now();
        gram_into(&ws.ht_gather, &mut ws.gram_solve);
        tt.gram += t0.elapsed();
    }

    fn wait_gather_h(&self, _ws: &mut IterWorkspace) -> FactorSource {
        FactorSource::Gathered
    }

    fn post_gather_w(&self, ws: &mut IterWorkspace, w_local: &Mat) {
        // Line 5: collect the whole of W.
        self.comm.all_gatherv_into(
            w_local.as_slice(),
            &self.w_counts,
            ws.w_gather.as_mut_slice(),
        );
    }

    fn post_reduce_gram_w(&self, ws: &mut IterWorkspace, _w_local: &Mat, tt: &mut TaskTimes) {
        // The redundant Gram of the gathered W.
        let t0 = Instant::now();
        gram_into(&ws.w_gather, &mut ws.gram_w);
        tt.gram += t0.elapsed();
    }

    fn wait_gather_w(&self, _ws: &mut IterWorkspace) -> FactorSource {
        FactorSource::Gathered
    }
}

/// Algorithm 3 (HPC-NMF): the data matrix lives once as `pr × pc`
/// blocks; per factor and per iteration the scheme performs exactly one
/// `k×k` Gram all-reduce, one all-gather along the grid dimension that
/// shares the factor block, and one reduce-scatter back to the 1D factor
/// distribution — the communication-optimal schedule of the paper's
/// Table 2. A `pr×1` grid degenerates to the 1D variant prescribed for
/// tall-and-skinny inputs.
pub struct Grid2D<'c> {
    world: &'c Comm,
    /// Spans this grid row (`pc` ranks, ordered by column index).
    row_comm: Comm,
    /// Spans this grid column (`pr` ranks, ordered by row index).
    col_comm: Comm,
    /// This rank's `Aᵢⱼ` block extent.
    rows: Part,
    cols: Part,
    /// This rank's 1D factor slices *within* its block.
    w_sub: Part,
    ht_sub: Part,
    /// Reduce-scatter / all-gather counts along the grid row / column.
    w_counts: Vec<usize>,
    h_counts: Vec<usize>,
    k: usize,
    /// Whether to run the split-phase (post/wait) schedule. When false,
    /// each `post_*` hook runs the blocking form of its collective and
    /// the `wait_*` hooks find nothing in flight — same words, same tags,
    /// no overlap.
    overlap: bool,
    /// The collectives currently in flight. Interior mutability because
    /// the `CommScheme` hooks take `&self`; at most one op per slot is
    /// pending at any point of the fixed step schedule.
    pending: RefCell<PendingGrid>,
}

/// In-flight split-phase collectives of one [`Grid2D`] step. Slot names
/// follow the hook that posts into them; `wait_*` drains the slot (which
/// is empty when overlap is disabled).
#[derive(Default)]
struct PendingGrid {
    gram_h: Option<PendingOp>,
    gather_h: Option<PendingOp>,
    rs_w: Option<PendingOp>,
    gram_w: Option<PendingOp>,
    gather_w: Option<PendingOp>,
    rs_h: Option<PendingOp>,
}

/// Selects one slot of [`PendingGrid`].
type Slot = fn(&mut PendingGrid) -> &mut Option<PendingOp>;

impl<'c> Grid2D<'c> {
    /// Scheme for one rank of Algorithm 3 on a `grid.pr × grid.pc`
    /// processor grid over an `m×n` input at rank `k`.
    ///
    /// Collective over `comm` (it splits the grid row and column
    /// sub-communicators), so every rank must construct its scheme.
    pub fn new(comm: &'c Comm, grid: Grid, dims: (usize, usize), k: usize) -> Self {
        let (m, n) = dims;
        assert_eq!(
            comm.size(),
            grid.size(),
            "communicator size must match grid"
        );
        let (gi, gj) = grid.coords(comm.rank());

        let row_comm = comm.split(gi, gj);
        let col_comm = comm.split(grid.pr + gj, gi);
        debug_assert_eq!(row_comm.size(), grid.pc);
        debug_assert_eq!(col_comm.size(), grid.pr);

        // Distributions: A's rows over grid rows, A's columns over grid
        // columns; within a block, W's rows over the grid row's members
        // and H's columns over the grid column's members.
        let dist_m = Dist1D::new(m, grid.pr);
        let dist_n = Dist1D::new(n, grid.pc);
        let rows = dist_m.part(gi);
        let cols = dist_n.part(gj);
        let sub_rows = Dist1D::new(rows.len, grid.pc);
        let sub_cols = Dist1D::new(cols.len, grid.pr);

        Grid2D {
            world: comm,
            row_comm,
            col_comm,
            rows,
            cols,
            w_sub: sub_rows.part(gj),
            ht_sub: sub_cols.part(gi),
            w_counts: sub_rows.lens_scaled(k),
            h_counts: sub_cols.lens_scaled(k),
            k,
            overlap: true,
            pending: RefCell::new(PendingGrid::default()),
        }
    }

    /// Enables or disables the split-phase overlapped schedule
    /// (default: enabled). Must agree across ranks — the schedule is
    /// part of the collective call sequence.
    #[must_use]
    pub fn with_overlap(mut self, overlap: bool) -> Self {
        self.overlap = overlap;
        self
    }

    /// Whether this scheme runs the overlapped schedule.
    pub fn overlap(&self) -> bool {
        self.overlap
    }

    /// Completes the op posted into `slot`, if any, into `out`,
    /// opportunistically advancing the in-flight op in the `sibling` slot
    /// whenever this wait would park. When ranks are oversubscribed onto
    /// few cores this batches all arrived rounds of both collectives into
    /// one thread activation instead of waking once per round of one op.
    fn wait_slot(&self, slot: Slot, out: &mut [f64], sibling: Option<Slot>) {
        let taken = slot(&mut self.pending.borrow_mut()).take();
        let Some(op) = taken else {
            return;
        };
        op.wait_with(out, || {
            if let Some(sibling) = sibling {
                if let Some(other) = sibling(&mut self.pending.borrow_mut()).as_mut() {
                    other.try_progress();
                }
            }
        });
    }
}

impl CommScheme for Grid2D<'_> {
    fn size_workspace(&self, ws: &mut IterWorkspace, k: usize) {
        debug_assert_eq!(k, self.k);
        ws.size_for_hpc(
            self.rows.len,
            self.cols.len,
            self.w_sub.len,
            self.ht_sub.len,
            k,
        );
    }

    fn prime(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        // Line 3 for the first iteration: Uᵢⱼ = (Hⱼ)ᵢ(Hⱼ)ᵢᵀ. Later
        // iterations reuse the Gram computed for the objective.
        gram_into(ht_local, &mut ws.gram_local);
    }

    fn reduce_scalar(&self, x: f64) -> f64 {
        self.world.all_reduce_scalar(x)
    }

    fn reduce_objective_terms(&self, terms: &mut [f64]) {
        if self.overlap {
            // Same machine, words, and tags as the blocking all-reduce,
            // but driven through a posted op so every park of this
            // latency-bound reduction also advances the prefetched
            // next-iteration collectives (see the engine's
            // cross-iteration prefetch).
            let op = self.world.post_all_reduce(terms);
            op.wait_with(terms, || {
                let mut p = self.pending.borrow_mut();
                if let Some(other) = p.gather_h.as_mut() {
                    other.try_progress();
                }
                if let Some(other) = p.gram_h.as_mut() {
                    other.try_progress();
                }
            });
        } else {
            self.world.all_reduce_into(terms);
        }
    }

    fn comm_stats(&self) -> CommStats {
        self.world.stats()
    }

    fn prefetch_across_iterations(&self) -> bool {
        self.overlap
    }

    // --- The Algorithm 3 schedule ---
    //
    // With overlap on, each collective is posted as soon as its operand
    // exists and waited only when its result is consumed, letting the
    // local MM products run inside the communication windows. With
    // overlap off, each post hook runs the blocking form instead. Either
    // way the per-communicator collective order is the same (world:
    // Gram-H, Gram-W, objective; column: gather-H, scatter-H; row:
    // scatter-W, gather-W), so tags, words, and messages on the wire are
    // exactly the same.

    fn post_gather_h(&self, ws: &mut IterWorkspace, ht_local: &Mat) {
        // Line 5: assemble Hⱼ (as Hⱼᵀ, n/pc × k) via all-gather across
        // the processor column.
        let (send, counts) = (ht_local.as_slice(), &self.h_counts);
        if self.overlap {
            self.pending.borrow_mut().gather_h = Some(self.col_comm.post_all_gatherv(send, counts));
        } else {
            self.col_comm
                .all_gatherv_into(send, counts, ws.ht_gather.as_mut_slice());
        }
    }

    fn wait_gather_h(&self, ws: &mut IterWorkspace) -> FactorSource {
        self.wait_slot(
            |p| &mut p.gather_h,
            ws.ht_gather.as_mut_slice(),
            Some(|p| &mut p.gram_h),
        );
        FactorSource::Gathered
    }

    fn post_reduce_gram_h(&self, ws: &mut IterWorkspace, _ht_local: &Mat, _tt: &mut TaskTimes) {
        // Line 4: HHᵀ = Σᵢⱼ Uᵢⱼ, all-reduce across all ranks into the
        // solve buffer. The local Gram was computed by `prime` (first
        // iteration) or by the previous objective evaluation.
        if self.overlap {
            self.pending.borrow_mut().gram_h =
                Some(self.world.post_all_reduce(ws.gram_local.as_slice()));
        } else {
            ws.gram_solve.copy_from(&ws.gram_local);
            self.world.all_reduce_into(ws.gram_solve.as_mut_slice());
        }
    }

    fn wait_reduce_gram_h(&self, ws: &mut IterWorkspace) {
        self.wait_slot(
            |p| &mut p.gram_h,
            ws.gram_solve.as_mut_slice(),
            Some(|p| &mut p.rs_w),
        );
    }

    fn post_reduce_scatter_w(&self, ws: &mut IterWorkspace) {
        // Line 7: (AHᵀ)ᵢ via reduce-scatter across the processor row;
        // this rank keeps ((AHᵀ)ᵢ)ⱼ (m/p × k).
        let (data, counts) = (ws.mm_w.as_slice(), &self.w_counts);
        if self.overlap {
            self.pending.borrow_mut().rs_w = Some(self.row_comm.post_reduce_scatter(data, counts));
        } else {
            self.row_comm
                .reduce_scatter_into(data, counts, ws.aht.as_mut_slice());
        }
    }

    fn wait_reduce_scatter_w(&self, ws: &mut IterWorkspace) -> RhsSource {
        self.wait_slot(|p| &mut p.rs_w, ws.aht.as_mut_slice(), None);
        RhsSource::Scattered
    }

    fn post_gather_w(&self, ws: &mut IterWorkspace, w_local: &Mat) {
        // Line 11: assemble Wᵢ (m/pr × k) via all-gather across the
        // processor row.
        let (send, counts) = (w_local.as_slice(), &self.w_counts);
        if self.overlap {
            self.pending.borrow_mut().gather_w = Some(self.row_comm.post_all_gatherv(send, counts));
        } else {
            self.row_comm
                .all_gatherv_into(send, counts, ws.w_gather.as_mut_slice());
        }
    }

    fn wait_gather_w(&self, ws: &mut IterWorkspace) -> FactorSource {
        self.wait_slot(
            |p| &mut p.gather_w,
            ws.w_gather.as_mut_slice(),
            Some(|p| &mut p.gram_w),
        );
        FactorSource::Gathered
    }

    fn post_reduce_gram_w(&self, ws: &mut IterWorkspace, w_local: &Mat, tt: &mut TaskTimes) {
        // Line 9: Xᵢⱼ = (Wᵢ)ⱼᵀ(Wᵢ)ⱼ; line 10: WᵀW all-reduce.
        let t0 = Instant::now();
        gram_into(w_local, &mut ws.gram_local);
        tt.gram += t0.elapsed();
        if self.overlap {
            self.pending.borrow_mut().gram_w =
                Some(self.world.post_all_reduce(ws.gram_local.as_slice()));
        } else {
            ws.gram_w.copy_from(&ws.gram_local);
            self.world.all_reduce_into(ws.gram_w.as_mut_slice());
        }
    }

    fn wait_reduce_gram_w(&self, ws: &mut IterWorkspace) {
        self.wait_slot(
            |p| &mut p.gram_w,
            ws.gram_w.as_mut_slice(),
            Some(|p| &mut p.rs_h),
        );
    }

    fn post_reduce_scatter_h(&self, ws: &mut IterWorkspace) {
        // Line 13: (WᵀA)ⱼ via reduce-scatter across the processor
        // column; this rank keeps ((WᵀA)ⱼ)ᵢ (n/p × k, transposed).
        let (data, counts) = (ws.mm_h.as_slice(), &self.h_counts);
        if self.overlap {
            self.pending.borrow_mut().rs_h = Some(self.col_comm.post_reduce_scatter(data, counts));
        } else {
            self.col_comm
                .reduce_scatter_into(data, counts, ws.wta.as_mut_slice());
        }
    }

    fn wait_reduce_scatter_h(&self, ws: &mut IterWorkspace) -> RhsSource {
        self.wait_slot(|p| &mut p.rs_h, ws.wta.as_mut_slice(), None);
        RhsSource::Scattered
    }
}

impl Drop for Grid2D<'_> {
    fn drop(&mut self) {
        // A prefetched collective can still be in flight when an engine
        // is dropped mid-run. Peers' rounds depend on this rank's sends,
        // so each op is driven to completion and its result discarded —
        // leaking it would deadlock the universe silently.
        if std::thread::panicking() {
            // Peers may be gone; PendingOp's own Drop copes with this.
            return;
        }
        let mut p = self.pending.borrow_mut();
        for op in [
            p.gram_h.take(),
            p.gather_h.take(),
            p.rs_w.take(),
            p.gram_w.take(),
            p.gather_w.take(),
            p.rs_h.take(),
        ]
        .into_iter()
        .flatten()
        {
            op.discard();
        }
    }
}

/// Exportable convergence bookkeeping, for resuming a run in a fresh
/// engine without perturbing the stopping decisions (the factor
/// *trajectory* never depends on this state — only on the factors
/// themselves — so resume is bit-deterministic even without it).
#[derive(Clone, Debug, PartialEq)]
pub struct ConvergenceState {
    /// Objective after the most recent iteration (`+∞` before the first).
    pub prev_objective: f64,
    /// First iteration's objective (`f₀`, the normalizer of relative
    /// improvements), if any iteration ran.
    pub first_objective: Option<f64>,
    /// Iterations executed so far (counted against `max_iters`).
    pub iterations_done: usize,
    /// Every objective so far, oldest first — what
    /// [`ConvergencePolicy::WindowedBudget`]'s look-back window reads,
    /// so a resumed run sees across the checkpoint boundary.
    pub objective_history: Vec<f64>,
    /// Wall-clock time consumed so far, accumulated across resumes
    /// (counted against the policy's budget).
    pub elapsed: Duration,
}

/// The step-wise ANLS iteration core shared by all three algorithms.
///
/// Owns the factor iterates, the [`IterWorkspace`], the NLS solver and
/// its scratch, and the convergence bookkeeping; is generic over the
/// communication layout ([`CommScheme`]) and the data kernels
/// ([`AnlsData`]). See the [module docs](crate::engine) for the design
/// and the step-wise API.
pub struct AnlsEngine<S: CommScheme, D: AnlsData> {
    scheme: S,
    data: D,
    config: NmfConfig,
    policy: ConvergencePolicy,
    solver: Box<dyn NlsSolver + Send>,
    ws: IterWorkspace,
    /// This rank's slice of `W` (all of `W` under [`LocalScheme`]).
    w_local: Mat,
    /// This rank's slice of `H`, stored transposed.
    ht_local: Mat,
    norm_a_sq: f64,
    iters: Vec<IterRecord>,
    /// Every objective this run has produced, including (after a
    /// [`restore_convergence_state`](Self::restore_convergence_state))
    /// those of the run being resumed — the windowed policy's look-back.
    obj_history: Vec<f64>,
    prev_obj: f64,
    first_obj: Option<f64>,
    iterations_done: usize,
    comm_base: CommStats,
    started: Instant,
    /// Wall-clock consumed before this engine started (from a restored
    /// checkpoint); added to `started.elapsed()` for budget decisions.
    prior_elapsed: Duration,
    stop: Option<StopReason>,
    /// Whether the previous `step` already posted this iteration's
    /// H-side collectives (the cross-iteration prefetch — see `step`).
    prefetched: bool,
}

impl<S: CommScheme, D: AnlsData> AnlsEngine<S, D> {
    /// Builds an engine from initial factors: `w0` is this rank's `W`
    /// slice, `ht0` its (transposed) `H` slice. Collective over the
    /// scheme's communicator (it all-reduces `‖A‖²`).
    pub fn new(scheme: S, data: D, config: &NmfConfig, w0: Mat, ht0: Mat) -> Self {
        Self::with_workspace(scheme, data, config, w0, ht0, IterWorkspace::default())
    }

    /// [`AnlsEngine::new`] with a caller-provided workspace (resized to
    /// fit if its shapes differ) — the warm-restart path that skips even
    /// the setup allocations. Reclaim it afterwards with
    /// [`EngineDyn::take_workspace`].
    pub fn with_workspace(
        scheme: S,
        data: D,
        config: &NmfConfig,
        w0: Mat,
        ht0: Mat,
        mut ws: IterWorkspace,
    ) -> Self {
        scheme.size_workspace(&mut ws, config.k);
        // Once-per-session operand packing: dense data is laid into
        // microkernel panels here, and every iteration's MM below reads
        // only packed storage (the ANLS win — A never changes).
        data.pack_session(&mut ws.pack, config.k);
        let solver = config.solver.build();
        let norm_a_sq = scheme.reduce_scalar(data.norm_sq_contrib());
        scheme.prime(&mut ws, &ht0);
        let comm_base = scheme.comm_stats();
        AnlsEngine {
            policy: config.policy(),
            scheme,
            data,
            config: *config,
            solver,
            ws,
            w_local: w0,
            ht_local: ht0,
            norm_a_sq,
            iters: Vec::with_capacity(config.max_iters),
            obj_history: Vec::with_capacity(config.max_iters),
            prev_obj: f64::INFINITY,
            first_obj: None,
            iterations_done: 0,
            comm_base,
            started: Instant::now(),
            prior_elapsed: Duration::ZERO,
            stop: None,
            prefetched: false,
        }
    }

    /// Executes exactly one ANLS outer iteration — the single copy of
    /// the loop body all three algorithms share — and returns its
    /// record. Collective: every rank of the scheme's communicator must
    /// call `step` the same number of times.
    ///
    /// `step` ignores `max_iters` and any previously reached stop
    /// condition; that is [`run`](Self::run)'s job. Stepping past a stop
    /// condition is legitimate (e.g. a serving loop that refines factors
    /// whenever it has spare capacity).
    pub fn step(&mut self) -> &IterRecord {
        let mut tt = TaskTimes::default();
        let ws = &mut self.ws;

        /* ---- Compute W given H ----
         * Split-phase schedule: the H gather and the HHᵀ reduction go in
         * flight first, then the local A·Hᵀ product runs while the Gram
         * all-reduce is still on the wire; the W reduce-scatter is posted
         * the moment its operand exists. Schemes that do not overlap do
         * all their work at the post hooks: the classic ordered schedule. */
        if self.prefetched {
            // The previous step already put this iteration's H gather
            // and Gram reduction on the wire (see the prefetch below).
            self.prefetched = false;
        } else {
            self.scheme.post_gather_h(ws, &self.ht_local);
            self.scheme.post_reduce_gram_h(ws, &self.ht_local, &mut tt);
        }
        let h_src = self.scheme.wait_gather_h(ws);
        let t0 = Instant::now();
        {
            let hmat = match h_src {
                FactorSource::Local => &self.ht_local,
                FactorSource::Gathered => &ws.ht_gather,
            };
            self.data.mm_a_ht_into(&mut ws.pack, hmat, &mut ws.mm_w);
        }
        tt.mm += t0.elapsed();
        self.scheme.post_reduce_scatter_w(ws);
        self.scheme.wait_reduce_gram_h(ws);
        let w_rhs = self.scheme.wait_reduce_scatter_w(ws);
        let t0 = Instant::now();
        apply_ridge(&mut ws.gram_solve, self.config.l2_w);
        {
            let rhs = match w_rhs {
                RhsSource::Mm => &ws.mm_w,
                RhsSource::Scattered => &ws.aht,
            };
            self.solver.update(&ws.gram_solve, rhs, &mut self.w_local);
        }
        tt.nls += t0.elapsed();

        /* ---- Compute H given W ---- (mirror of the W side) */
        self.scheme.post_gather_w(ws, &self.w_local);
        self.scheme.post_reduce_gram_w(ws, &self.w_local, &mut tt);
        let w_src = self.scheme.wait_gather_w(ws);
        let t0 = Instant::now();
        {
            let wmat = match w_src {
                FactorSource::Local => &self.w_local,
                FactorSource::Gathered => &ws.w_gather,
            };
            self.data.mm_at_w_into(&mut ws.pack, wmat, &mut ws.mm_h);
        }
        tt.mm += t0.elapsed();
        self.scheme.post_reduce_scatter_h(ws);
        self.scheme.wait_reduce_gram_w(ws);
        let h_rhs = self.scheme.wait_reduce_scatter_h(ws);
        let t0 = Instant::now();
        ws.gram_solve.copy_from(&ws.gram_w);
        apply_ridge(&mut ws.gram_solve, self.config.l2_h);
        {
            let rhs = match h_rhs {
                RhsSource::Mm => &ws.mm_h,
                RhsSource::Scattered => &ws.wta,
            };
            self.solver.update(&ws.gram_solve, rhs, &mut self.ht_local);
        }
        tt.nls += t0.elapsed();

        /* ---- Objective via the Gram identity ----
         * ‖A−WH‖² = ‖A‖² − 2·⟨WᵀA, H⟩ + ⟨WᵀW, HHᵀ⟩, with both inner
         * products decomposing over the distribution of H. Under Grid2D
         * the local H Gram doubles as next iteration's Uᵢⱼ, so Gram is
         * still computed once per factor per iteration. */
        let t0 = Instant::now();
        gram_into(&self.ht_local, &mut ws.gram_local);
        tt.gram += t0.elapsed();
        let rhs_h = match h_rhs {
            RhsSource::Mm => &ws.mm_h,
            RhsSource::Scattered => &ws.wta,
        };
        let mut terms = [
            rhs_h.fro_dot(&self.ht_local),
            ws.gram_w.fro_dot(&ws.gram_local),
            0.0,
        ];
        // The wall-clock budget flag rides the objective all-reduce (sum
        // across ranks: any rank over budget stops everyone). Only
        // appended when the policy has a budget, so budget-free runs keep
        // the exact 2-word reduction the communication tests pin down.
        let nterms = if self.policy.has_budget() {
            let elapsed = self.prior_elapsed + self.started.elapsed();
            terms[2] = f64::from(self.policy.budget_exceeded(elapsed));
            3
        } else {
            2
        };
        /* ---- Cross-iteration prefetch ----
         * Under a fixed-iteration policy the next step is certain to
         * run, so its H gather and HHᵀ reduction (whose operands —
         * `ht_local` and the objective's `gram_local` — are final) go on
         * the wire now and ride the objective reduction's wake chain:
         * every rank the all-reduce wakes also drains the prefetched
         * rounds, instead of starting them cold next step. Gated to
         * schemes that put these collectives in flight
         * (`prefetch_across_iterations`), because the others execute
         * their work at the post site, and to iterations that are certain
         * to happen so the total op count — which the exact
         * communication-cost accounting pins — is unchanged. */
        if self.scheme.prefetch_across_iterations()
            && self.policy == ConvergencePolicy::MaxIters
            && self.iterations_done + 1 < self.config.max_iters
        {
            self.scheme.post_gather_h(ws, &self.ht_local);
            self.scheme.post_reduce_gram_h(ws, &self.ht_local, &mut tt);
            self.prefetched = true;
        }
        self.scheme.reduce_objective_terms(&mut terms[..nterms]);
        let objective = self.norm_a_sq - 2.0 * terms[0] + terms[1];

        let now = self.scheme.comm_stats();
        self.iters.push(IterRecord {
            objective,
            compute: tt,
            comm: now.delta_since(&self.comm_base),
        });
        self.comm_base = now;
        self.iterations_done += 1;
        self.obj_history.push(objective);

        let f0 = *self
            .first_obj
            .get_or_insert(objective.max(f64::MIN_POSITIVE));
        self.stop = self.policy.decide(
            self.prev_obj,
            objective,
            f0,
            &self.obj_history,
            nterms == 3 && terms[2] > 0.0,
        );
        self.prev_obj = objective;
        self.iters.last().expect("step just pushed a record")
    }

    /// Drives [`step`](Self::step) until the convergence policy stops or
    /// `max_iters` iterations have run, and reports why it stopped.
    pub fn run(&mut self) -> StopReason {
        self.run_observed(|_, _| {})
    }

    /// [`run`](Self::run), invoking `observer` with `(iteration_index,
    /// record)` after every iteration — the hook for progress bars,
    /// live dashboards, or checkpoint triggers.
    pub fn run_observed(&mut self, mut observer: impl FnMut(usize, &IterRecord)) -> StopReason {
        while self.iterations_done < self.config.max_iters {
            self.step();
            observer(
                self.iterations_done - 1,
                self.iters.last().expect("step pushed a record"),
            );
            if let Some(reason) = self.stop {
                return reason;
            }
        }
        self.stop = Some(StopReason::MaxIters);
        StopReason::MaxIters
    }

    /// The current iterates: this rank's `W` slice and (transposed) `H`
    /// slice. Valid mid-run — this is the checkpoint/streaming export.
    pub fn factors(&self) -> (&Mat, &Mat) {
        (&self.w_local, &self.ht_local)
    }

    /// Per-iteration records so far.
    pub fn records(&self) -> &[IterRecord] {
        &self.iters
    }

    /// Iterations executed so far.
    pub fn iterations(&self) -> usize {
        self.iterations_done
    }

    /// Objective after the latest iteration (`‖A‖²` before the first —
    /// the objective of the all-zero factorization).
    pub fn objective(&self) -> f64 {
        self.iters.last().map_or(self.norm_a_sq, |r| r.objective)
    }

    /// Why the engine last decided to stop, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// Exports the convergence bookkeeping for a later
    /// [`restore_convergence_state`](Self::restore_convergence_state) in
    /// a resumed engine.
    pub fn convergence_state(&self) -> ConvergenceState {
        ConvergenceState {
            prev_objective: self.prev_obj,
            first_objective: self.first_obj,
            iterations_done: self.iterations_done,
            objective_history: self.obj_history.clone(),
            elapsed: self.prior_elapsed + self.started.elapsed(),
        }
    }

    /// Replaces the convergence policy for subsequent iterations.
    ///
    /// Collective discipline: every rank of a distributed run must set
    /// the same policy at the same iteration boundary (a policy with a
    /// wall-clock budget adds a word to the objective all-reduce, so a
    /// divergent change desynchronizes the collective schedule).
    pub fn set_policy(&mut self, policy: ConvergencePolicy) {
        self.policy = policy;
    }

    /// Snapshot of this rank's cumulative communication counters (all
    /// collectives since the communicator was created, including setup).
    pub fn comm_stats(&self) -> CommStats {
        self.scheme.comm_stats()
    }

    /// Restores exported convergence bookkeeping so a resumed run makes
    /// the same stopping decisions as an uninterrupted one — including
    /// the windowed policy's look-back across the checkpoint boundary
    /// and the wall-clock budget already consumed.
    pub fn restore_convergence_state(&mut self, state: ConvergenceState) {
        self.prev_obj = state.prev_objective;
        self.first_obj = state.first_objective;
        self.iterations_done = state.iterations_done;
        self.obj_history = state.objective_history;
        self.prior_elapsed = state.elapsed;
        self.started = Instant::now();
    }
}

/// The object-safe face of [`AnlsEngine`]: everything the session layer
/// needs from an engine, with the `CommScheme`/`AnlsData` generics
/// erased behind a `Box<dyn EngineDyn>`.
///
/// The generic engine is the right tool *inside* one rank's stack frame,
/// where the scheme can borrow the communicator and the data blocks. A
/// long-lived handle cannot name those lifetimes — so each session
/// worker builds its concrete `AnlsEngine<S, D>` in its own frame and
/// serves it through this trait, and the controller never learns which
/// of the three schemes is running. Every method forwards to the
/// inherent `AnlsEngine` method of the same name ([`step_dyn`] clones
/// the record instead of borrowing it, the one signature change object
/// safety forces).
///
/// [`step_dyn`]: EngineDyn::step_dyn
pub trait EngineDyn {
    /// One ANLS outer iteration; returns an owned copy of its record.
    fn step_dyn(&mut self) -> IterRecord;
    /// The current iterates: this rank's `W` slice and transposed `H`
    /// slice.
    fn factors(&self) -> (&Mat, &Mat);
    /// Per-iteration records so far.
    fn records(&self) -> &[IterRecord];
    /// Iterations executed so far (including restored ones).
    fn iterations(&self) -> usize;
    /// Objective after the latest iteration (`‖A‖²` before the first).
    fn objective(&self) -> f64;
    /// Why the engine last decided to stop, if it has.
    fn stop_reason(&self) -> Option<StopReason>;
    /// Exports the convergence bookkeeping (for checkpointing).
    fn convergence_state(&self) -> ConvergenceState;
    /// Restores exported convergence bookkeeping (after a resume).
    fn restore_convergence_state(&mut self, state: ConvergenceState);
    /// Replaces the convergence policy for subsequent iterations.
    fn set_policy(&mut self, policy: ConvergencePolicy);
    /// Cumulative communication counters of this rank.
    fn comm_stats(&self) -> CommStats;
    /// Steals the workspace for reuse in a successor engine (e.g. a
    /// rank-sweep refit); the engine must not be stepped afterwards.
    fn take_workspace(&mut self) -> IterWorkspace;
}

impl<S: CommScheme, D: AnlsData> EngineDyn for AnlsEngine<S, D> {
    fn step_dyn(&mut self) -> IterRecord {
        AnlsEngine::step(self).clone()
    }

    fn factors(&self) -> (&Mat, &Mat) {
        AnlsEngine::factors(self)
    }

    fn records(&self) -> &[IterRecord] {
        AnlsEngine::records(self)
    }

    fn iterations(&self) -> usize {
        AnlsEngine::iterations(self)
    }

    fn objective(&self) -> f64 {
        AnlsEngine::objective(self)
    }

    fn stop_reason(&self) -> Option<StopReason> {
        AnlsEngine::stop_reason(self)
    }

    fn convergence_state(&self) -> ConvergenceState {
        AnlsEngine::convergence_state(self)
    }

    fn restore_convergence_state(&mut self, state: ConvergenceState) {
        AnlsEngine::restore_convergence_state(self, state);
    }

    fn set_policy(&mut self, policy: ConvergencePolicy) {
        AnlsEngine::set_policy(self, policy);
    }

    fn comm_stats(&self) -> CommStats {
        AnlsEngine::comm_stats(self)
    }

    fn take_workspace(&mut self) -> IterWorkspace {
        std::mem::take(&mut self.ws)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;

    #[test]
    fn engine_dyn_erases_the_scheme() {
        let input = LocalMat::Dense(Mat::uniform(18, 12, 3));
        let config = NmfConfig::new(2).with_max_iters(3).with_seed(8);
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut boxed: Box<dyn EngineDyn + '_> = Box::new(AnlsEngine::new(
            LocalScheme::new(18, 12),
            &input,
            &config,
            w0,
            ht0,
        ));
        let rec = boxed.step_dyn();
        assert!(rec.objective.is_finite());
        assert_eq!(boxed.iterations(), 1);
        assert_eq!(boxed.records().len(), 1);
        let (w, ht) = boxed.factors();
        assert_eq!(w.shape(), (18, 2));
        assert_eq!(ht.shape(), (12, 2));
        let st = boxed.convergence_state();
        assert_eq!(st.iterations_done, 1);
    }

    #[test]
    fn local_scheme_runs_and_reports() {
        let input = LocalMat::Dense(Mat::uniform(20, 14, 5));
        let config = NmfConfig::new(3).with_max_iters(4).with_seed(2);
        let w0 = crate::config::init_w(20, 3, config.seed);
        let ht0 = crate::config::init_ht(14, 3, config.seed);
        let mut e = AnlsEngine::new(LocalScheme::new(20, 14), &input, &config, w0, ht0);
        assert_eq!(e.iterations(), 0);
        let first = e.step().objective;
        assert_eq!(e.iterations(), 1);
        assert!(first.is_finite());
        let reason = e.run();
        assert_eq!(reason, StopReason::MaxIters);
        assert_eq!(e.iterations(), 4);
        let (w, ht) = e.factors();
        assert!(w.all_nonnegative() && ht.all_nonnegative());
    }

    #[test]
    fn observer_sees_every_iteration() {
        let input = LocalMat::Dense(Mat::uniform(16, 12, 9));
        let config = NmfConfig::new(2).with_max_iters(5).with_seed(3);
        let w0 = crate::config::init_w(16, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(LocalScheme::new(16, 12), &input, &config, w0, ht0);
        let mut seen = Vec::new();
        e.run_observed(|it, rec| seen.push((it, rec.objective)));
        assert_eq!(seen.len(), 5);
        assert_eq!(seen.first().map(|s| s.0), Some(0));
        assert_eq!(seen.last().map(|s| s.0), Some(4));
        for w in seen.windows(2) {
            assert!(w[1].1 <= w[0].1 * (1.0 + 1e-9) + 1e-9, "objective rose");
        }
    }

    #[test]
    fn budget_zero_stops_after_one_iteration() {
        let input = LocalMat::Dense(Mat::uniform(18, 12, 4));
        let config = NmfConfig::new(2).with_max_iters(50).with_convergence(
            ConvergencePolicy::WindowedBudget {
                window: 5,
                tol: 0.0,
                budget: Some(std::time::Duration::ZERO),
            },
        );
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(LocalScheme::new(18, 12), &input, &config, w0, ht0);
        let reason = e.run();
        assert_eq!(reason, StopReason::BudgetExhausted);
        assert_eq!(
            e.iterations(),
            1,
            "zero budget still completes the iteration in flight"
        );
    }

    #[test]
    fn infinite_window_tolerance_stops_at_window_plus_one() {
        let input = LocalMat::Dense(Mat::uniform(18, 12, 4));
        let config = NmfConfig::new(2).with_max_iters(50).with_convergence(
            ConvergencePolicy::WindowedBudget {
                window: 3,
                tol: f64::INFINITY,
                budget: None,
            },
        );
        let w0 = crate::config::init_w(18, 2, config.seed);
        let ht0 = crate::config::init_ht(12, 2, config.seed);
        let mut e = AnlsEngine::new(LocalScheme::new(18, 12), &input, &config, w0, ht0);
        let reason = e.run();
        assert_eq!(reason, StopReason::Converged);
        assert_eq!(
            e.iterations(),
            4,
            "windowed check needs window+1 objectives"
        );
    }

    #[test]
    fn convergence_state_round_trips() {
        let input = LocalMat::Dense(Mat::uniform(16, 10, 6));
        let config = NmfConfig::new(2).with_max_iters(6).with_seed(4);
        let w0 = crate::config::init_w(16, 2, config.seed);
        let ht0 = crate::config::init_ht(10, 2, config.seed);
        let mut e = AnlsEngine::new(LocalScheme::new(16, 10), &input, &config, w0, ht0);
        e.step();
        e.step();
        let st = e.convergence_state();
        assert_eq!(st.iterations_done, 2);
        assert_eq!(st.objective_history.len(), 2);
        assert!(st.first_objective.is_some());
        let (w, ht) = e.factors();
        let (w, ht) = (w.clone(), ht.clone());
        let mut resumed = AnlsEngine::new(LocalScheme::new(16, 10), &input, &config, w, ht);
        resumed.restore_convergence_state(st.clone());
        let round_trip = resumed.convergence_state();
        assert_eq!(round_trip.prev_objective, st.prev_objective);
        assert_eq!(round_trip.first_objective, st.first_objective);
        assert_eq!(round_trip.iterations_done, st.iterations_done);
        assert_eq!(round_trip.objective_history, st.objective_history);
        // The budget clock keeps accumulating from the restored value.
        assert!(round_trip.elapsed >= st.elapsed);
        let reason = resumed.run();
        assert_eq!(reason, StopReason::MaxIters);
        let done = resumed.convergence_state();
        assert_eq!(done.iterations_done, 6);
        assert_eq!(done.objective_history.len(), 6, "history spans the resume");
    }
}
