//! The session API: the primary public surface of the crate.
//!
//! [`Nmf::on`] opens a fallible builder over an input matrix;
//! [`NmfBuilder::build`] validates the whole request up front (rank
//! bounds, grid divisibility, solver limits, policy sanity, warm-start
//! shapes) and returns a [`Model`] — a long-lived, `Send` handle on a
//! factorization in flight:
//!
//! ```
//! use hpc_nmf::prelude::*;
//! use nmf_matrix::rng::Fill;
//! use nmf_matrix::Mat;
//!
//! let a = Input::Dense(Mat::uniform(30, 20, 7));
//! let mut model = Nmf::on(&a)
//!     .rank(4)
//!     .ranks(4)
//!     .algo(Algo::Hpc2D)
//!     .solver(SolverKind::Bpp)
//!     .max_iters(8)
//!     .build()
//!     .expect("valid request");
//! model.step();                       // one collective ANLS iteration
//! let (w, h) = model.factors();       // live mid-run factors
//! assert_eq!((w.shape(), h.shape()), ((30, 4), (4, 20)));
//! let reason = model.run();           // drive to the stopping condition
//! assert_eq!(reason, StopReason::MaxIters);
//! ```
//!
//! ## How the generics disappear
//!
//! The iteration core is `AnlsEngine<S: CommScheme, D: AnlsData>`, whose
//! scheme borrows a rank-local communicator and whose data borrows
//! rank-local matrix blocks — lifetimes a long-lived handle cannot name.
//! The session inverts the ownership: [`Model`] owns a virtual-MPI
//! universe ([`nmf_vmpi::universe::seats`]) and one OS thread per rank;
//! each worker thread owns its communicator and its data block(s),
//! builds the concrete engine *in its own stack frame*, and serves it
//! through the object-safe [`EngineDyn`] — so the controller speaks one
//! protocol regardless of which of the three communication schemes is
//! running. Iterations remain collective: every command is broadcast to
//! all ranks and their replies are aggregated exactly as the batch
//! harness aggregated per-rank results.
//!
//! ## Pause, persist, resume
//!
//! A model can be checkpointed at any iteration boundary with
//! [`Model::save`] and reconstructed — in a new process, against a
//! freshly loaded input — with [`Model::load`]; the resumed trajectory
//! is bit-identical to the uninterrupted one (`tests/checkpoint_resume.rs`
//! drives this through disk for all three schemes). [`Model::refit`]
//! restarts the same universe on a new configuration (e.g. the next `k`
//! of a rank sweep) without respawning threads or re-sharding the data.

use crate::checkpoint::{
    read_checkpoint, write_checkpoint, write_checkpoint_rotated, Checkpoint, CheckpointMeta,
};
use crate::config::{
    init_ht, init_w, ConvergencePolicy, IterRecord, NmfConfig, NmfOutput, StopReason, TaskTimes,
};
use crate::dist::{Dist1D, Part};
use crate::engine::{
    AnlsEngine, ConvergenceState, EngineDyn, Grid2D, LocalScheme, Replicated1D, SplitBlocks,
};
use crate::error::{grid_fits, NmfError};
use crate::grid::Grid;
use crate::harness::Algo;
use crate::input::Input;
use crate::regrid::RegridTarget;
use crate::shared::{extract_rank_data, RankData, ShardKey, SharedInput};
use crate::workspace::IterWorkspace;
use nmf_matrix::Mat;
use nmf_nls::SolverKind;
use nmf_vmpi::universe::{seats, Seat};
use nmf_vmpi::{Comm, CommStats};
use std::path::Path;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Where a build gets its data: a borrowed whole matrix (blocks are
/// extracted fresh) or a [`SharedInput`] (blocks come from its sharding
/// cache).
#[derive(Clone, Copy)]
enum InputSource<'a> {
    Whole(&'a Input),
    Shared(&'a SharedInput),
}

impl InputSource<'_> {
    fn shape(&self) -> (usize, usize) {
        match self {
            InputSource::Whole(input) => input.shape(),
            InputSource::Shared(shared) => shared.shape(),
        }
    }

    fn fro_norm_sq(&self) -> f64 {
        match self {
            InputSource::Whole(input) => input.fro_norm_sq(),
            InputSource::Shared(shared) => shared.fro_norm_sq(),
        }
    }

    /// The per-rank blocks for `key`: freshly extracted for a whole
    /// matrix, served from (and populated into) the sharding cache for
    /// a shared input.
    fn rank_data(&self, key: ShardKey) -> Arc<Vec<RankData>> {
        match self {
            InputSource::Whole(input) => {
                let (m, n) = input.shape();
                Arc::new(extract_rank_data(
                    &|r0, c0, nr, nc| input.block(r0, c0, nr, nc),
                    key,
                    m,
                    n,
                ))
            }
            InputSource::Shared(shared) => shared.rank_data(key),
        }
    }
}

/// Entry point of the session API. See the [module docs](self).
pub struct Nmf;

impl Nmf {
    /// Starts building a factorization of `input`. The builder borrows
    /// the input only until [`build`](NmfBuilder::build); the resulting
    /// [`Model`] owns copies of the per-rank blocks and is `'static`.
    pub fn on(input: &Input) -> NmfBuilder<'_> {
        Nmf::from_source(InputSource::Whole(input))
    }

    /// Starts building a factorization over a [`SharedInput`], reusing
    /// its cached per-rank blocks (and populating the cache on first
    /// use). Successive builds with the same algorithm shape — a rank
    /// sweep, serving tenants over one dataset — share the resident
    /// blocks instead of re-extracting them.
    pub fn on_shared(input: &SharedInput) -> NmfBuilder<'_> {
        Nmf::from_source(InputSource::Shared(input))
    }

    fn from_source(input: InputSource<'_>) -> NmfBuilder<'_> {
        NmfBuilder {
            input,
            config: NmfConfig::new(1),
            k_set: false,
            algo: Algo::Sequential,
            ranks: 1,
            grid_override: None,
            warm: None,
            resume: None,
        }
    }

    /// Starts resuming an already-read [`Checkpoint`] — on its recorded
    /// grid by default (a pure, bit-identical resume), or *elastically*
    /// on a different algorithm/grid/rank-count via the builder's
    /// [`algo`](ResumeBuilder::algo) / [`grid`](ResumeBuilder::grid) /
    /// [`ranks`](ResumeBuilder::ranks) overrides (see [`crate::regrid`]).
    /// An input must be attached with [`on`](ResumeBuilder::on) or
    /// [`on_shared`](ResumeBuilder::on_shared) before
    /// [`build`](ResumeBuilder::build).
    pub fn resume_from(ck: Checkpoint) -> ResumeBuilder<'static> {
        ResumeBuilder {
            ck,
            input: None,
            target: RegridTarget::new(),
            max_iters: None,
        }
    }
}

/// Resumes a checkpoint, optionally on a different grid, scheme, or
/// rank count. Produced by [`Nmf::resume_from`]; the one-shot wrappers
/// are [`Model::load_regrid`] and [`Model::load_regrid_shared`].
///
/// The checkpoint's `k`, solver, seed, and regularization are the
/// trajectory being continued and cannot be overridden (use
/// [`Model::refit`] to start a new trajectory); `max_iters` *can* be
/// raised, since extending a resumed run past its original budget is
/// the point of resuming.
pub struct ResumeBuilder<'a> {
    ck: Checkpoint,
    input: Option<InputSource<'a>>,
    target: RegridTarget,
    max_iters: Option<usize>,
}

impl<'a> ResumeBuilder<'a> {
    /// Attaches the data matrix the checkpoint was taken from (shape is
    /// verified at build; content is the caller's contract — the
    /// checkpoint stores factors, not data).
    pub fn on<'b>(self, input: &'b Input) -> ResumeBuilder<'b> {
        ResumeBuilder {
            ck: self.ck,
            input: Some(InputSource::Whole(input)),
            target: self.target,
            max_iters: self.max_iters,
        }
    }

    /// Attaches a [`SharedInput`]: the resumed model draws its blocks
    /// from the shared sharding cache — the regrid re-sharder path, and
    /// how an mmap-backed input resumes without loading the matrix.
    pub fn on_shared<'b>(self, input: &'b SharedInput) -> ResumeBuilder<'b> {
        ResumeBuilder {
            ck: self.ck,
            input: Some(InputSource::Shared(input)),
            target: self.target,
            max_iters: self.max_iters,
        }
    }

    /// Overrides the algorithm / communication scheme.
    pub fn algo(mut self, algo: Algo) -> Self {
        self.target = self.target.algo(algo);
        self
    }

    /// Overrides the rank count (the grid is re-derived to fit).
    pub fn ranks(mut self, p: usize) -> Self {
        self.target = self.target.ranks(p);
        self
    }

    /// Overrides the processor grid explicitly.
    pub fn grid(mut self, grid: Grid) -> Self {
        self.target = self.target.grid(grid);
        self
    }

    /// Replaces the whole override set at once (the [`RegridTarget`]
    /// form used by `Model::load_regrid` and the serving layer).
    pub fn target(mut self, target: RegridTarget) -> Self {
        self.target = target;
        self
    }

    /// Raises (or lowers) the total-iteration cap for the resumed run.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.max_iters = Some(iters);
        self
    }

    /// Resolves the target against the checkpoint, globalized factors
    /// become the warm start, and the session builder re-shards them
    /// (and the input) along the target layout. Validation is the full
    /// [`NmfBuilder::build`] pass, so an unfittable target grid fails
    /// with the usual actionable [`NmfError`].
    pub fn build(self) -> Result<Model, NmfError> {
        let input = self.input.ok_or(NmfError::MissingInput)?;
        let (m, n) = input.shape();
        self.ck.meta.check_compatible(m, n)?;
        let (algo, ranks, grid_override) = self.target.resolve(&self.ck.meta);
        let mut config = self.ck.meta.config;
        if let Some(iters) = self.max_iters {
            config.max_iters = iters;
        }
        let mut b = Nmf::from_source(input)
            .config(config)
            .algo(algo)
            .ranks(ranks)
            .warm_start(self.ck.w, self.ck.ht)
            .resume_state(self.ck.state);
        if let Some(g) = grid_override {
            b = b.grid_override(g);
        }
        b.build()
    }
}

/// A fallible builder for a [`Model`]. Every setter is infallible;
/// [`build`](NmfBuilder::build) performs all validation at once and
/// reports the first violated constraint as an [`NmfError`] with an
/// actionable message.
pub struct NmfBuilder<'a> {
    input: InputSource<'a>,
    config: NmfConfig,
    k_set: bool,
    algo: Algo,
    ranks: usize,
    /// Exact grid to use for the HPC algorithms (set by checkpoint
    /// resume so the restarted run replays the recorded grid even if
    /// [`Grid::optimal`]'s tie-breaking ever changes).
    grid_override: Option<Grid>,
    warm: Option<(Mat, Mat)>,
    resume: Option<ConvergenceState>,
}

impl<'a> NmfBuilder<'a> {
    /// Sets the factorization rank `k`. Required (directly or via
    /// [`config`](Self::config)).
    pub fn rank(mut self, k: usize) -> Self {
        self.config.k = k;
        self.k_set = true;
        self
    }

    /// Sets the number of virtual MPI ranks (default 1).
    pub fn ranks(mut self, p: usize) -> Self {
        self.ranks = p;
        self
    }

    /// Sets the algorithm / communication scheme (default
    /// [`Algo::Sequential`]).
    pub fn algo(mut self, algo: Algo) -> Self {
        self.algo = algo;
        self
    }

    /// Sets the local NLS solver (default BPP).
    pub fn solver(mut self, solver: SolverKind) -> Self {
        self.config.solver = solver;
        self
    }

    /// Sets the outer-iteration cap (default 20).
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.config.max_iters = iters;
        self
    }

    /// Sets the relative-improvement early-stop tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.config.tol = Some(tol);
        self
    }

    /// Sets an explicit convergence policy (overrides [`tol`](Self::tol)).
    pub fn convergence(mut self, policy: ConvergencePolicy) -> Self {
        self.config.convergence = Some(policy);
        self
    }

    /// Sets the factor-initialization seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets Frobenius regularization on both factors (validated at
    /// build time, unlike [`NmfConfig::with_l2`] which asserts).
    pub fn l2(mut self, l2_w: f64, l2_h: f64) -> Self {
        self.config.l2_w = l2_w;
        self.config.l2_h = l2_h;
        self
    }

    /// Replaces the entire configuration (the bridge from the classic
    /// [`NmfConfig`] API; implies [`rank`](Self::rank)).
    pub fn config(mut self, config: NmfConfig) -> Self {
        self.config = config;
        self.k_set = true;
        self
    }

    /// Starts from explicit factors instead of the seeded random
    /// initialization: `w0` is `m×k`, `ht0` is `n×k` (`H` transposed).
    pub fn warm_start(mut self, w0: Mat, ht0: Mat) -> Self {
        self.warm = Some((w0, ht0));
        self
    }

    pub(crate) fn resume_state(mut self, state: ConvergenceState) -> Self {
        self.resume = Some(state);
        self
    }

    pub(crate) fn grid_override(mut self, grid: Grid) -> Self {
        self.grid_override = Some(grid);
        self
    }

    /// Validates the whole request and spawns the model's universe.
    pub fn build(self) -> Result<Model, NmfError> {
        let (m, n) = self.input.shape();
        if !self.k_set {
            return Err(NmfError::MissingRank);
        }
        let grid = validate_run(
            m,
            n,
            self.algo,
            self.grid_override,
            self.ranks,
            &self.config,
        )?;
        let k = self.config.k;

        let (w0, ht0) = match self.warm {
            Some((w0, ht0)) => {
                for (which, mat, expected) in [("W", &w0, (m, k)), ("H^T", &ht0, (n, k))] {
                    if mat.shape() != expected {
                        return Err(NmfError::WarmStartShape {
                            which,
                            expected,
                            got: mat.shape(),
                        });
                    }
                    if !mat.all_nonnegative() || !mat.all_finite() {
                        return Err(NmfError::WarmStartInvalid { which });
                    }
                }
                (w0, ht0)
            }
            None => (
                init_w(m, k, self.config.seed),
                init_ht(n, k, self.config.seed),
            ),
        };

        Ok(Model::spawn(
            self.input,
            self.config,
            self.algo,
            grid,
            self.ranks,
            w0,
            ht0,
            self.resume,
        ))
    }
}

/// Validates a run request (shared by [`NmfBuilder::build`] and
/// [`Model::refit`]) and returns the processor grid it will use.
fn validate_run(
    m: usize,
    n: usize,
    algo: Algo,
    grid_override: Option<Grid>,
    ranks: usize,
    config: &NmfConfig,
) -> Result<Grid, NmfError> {
    if m == 0 || n == 0 {
        return Err(NmfError::EmptyInput { m, n });
    }
    let k = config.k;
    if k == 0 || k > m.min(n) {
        return Err(NmfError::RankOutOfRange { k, m, n });
    }
    // BPP tracks passive sets in fixed-width bitmasks (see
    // `nmf_nls::bpp`); beyond its limit the solver would assert at the
    // first iteration, deep inside the harness.
    const BPP_K_LIMIT: usize = 128;
    if config.solver == SolverKind::Bpp && k > BPP_K_LIMIT {
        return Err(NmfError::SolverRankLimit {
            solver: config.solver,
            k,
            limit: BPP_K_LIMIT,
        });
    }
    if ranks == 0 {
        return Err(NmfError::NoRanks);
    }
    if let Some(t) = config.tol {
        if !t.is_finite() || t < 0.0 {
            return Err(NmfError::InvalidTolerance { tol: t });
        }
    }
    match config.convergence {
        Some(ConvergencePolicy::RelTol { tol }) if !tol.is_finite() || tol < 0.0 => {
            return Err(NmfError::InvalidTolerance { tol });
        }
        Some(ConvergencePolicy::WindowedBudget { window, tol, .. }) => {
            if window == 0 {
                return Err(NmfError::InvalidWindow);
            }
            if tol.is_nan() || tol < 0.0 {
                return Err(NmfError::InvalidTolerance { tol });
            }
        }
        _ => {}
    }
    if !(config.l2_w.is_finite() && config.l2_h.is_finite())
        || config.l2_w < 0.0
        || config.l2_h < 0.0
    {
        return Err(NmfError::InvalidRegularization {
            l2_w: config.l2_w,
            l2_h: config.l2_h,
        });
    }

    match algo {
        Algo::Sequential => {
            if ranks != 1 {
                return Err(NmfError::SequentialRanks { ranks });
            }
            Ok(Grid::new(1, 1))
        }
        Algo::Naive => {
            if ranks > m.min(n) {
                return Err(NmfError::TooManyRanks {
                    algo: "Naive-Parallel",
                    ranks,
                    m,
                    n,
                });
            }
            Ok(Grid::one_dimensional(ranks))
        }
        Algo::Hpc1D | Algo::Hpc2D | Algo::HpcGrid(_) => {
            let grid = match grid_override {
                Some(g) => g,
                None => match algo {
                    Algo::HpcGrid(g) => g,
                    _ => algo.grid(m, n, ranks),
                },
            };
            if grid.size() != ranks {
                return Err(NmfError::GridMismatch { grid, ranks });
            }
            if !grid_fits(grid, m, n) {
                return Err(NmfError::GridTooLarge { grid, m, n });
            }
            Ok(grid)
        }
    }
}

/// Where one rank's factor slices live in the global matrices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct RankLayout {
    /// Global `W`-row slice.
    pub(crate) w: Part,
    /// Global `H`-column slice (rows of `Hᵀ`).
    pub(crate) ht: Part,
}

/// The factor slicing a `(algo, grid, ranks)` triple induces on the
/// global `W` (`m×k`) and `Hᵀ` (`n×k`) matrices, one entry per rank.
///
/// The single source of truth shared by session spawn (scattering warm
/// starts), snapshot reassembly, the versioned checkpoint factor
/// section, and the regrid globalizer — all four must agree on these
/// offsets for resume to be bit-identical.
pub(crate) fn factor_layouts(
    algo: Algo,
    grid: Grid,
    ranks: usize,
    m: usize,
    n: usize,
) -> Vec<RankLayout> {
    match algo {
        Algo::Sequential => vec![RankLayout {
            w: Part { offset: 0, len: m },
            ht: Part { offset: 0, len: n },
        }],
        Algo::Naive => {
            let dist_m = Dist1D::new(m, ranks);
            let dist_n = Dist1D::new(n, ranks);
            (0..ranks)
                .map(|r| RankLayout {
                    w: dist_m.part(r),
                    ht: dist_n.part(r),
                })
                .collect()
        }
        Algo::Hpc1D | Algo::Hpc2D | Algo::HpcGrid(_) => (0..ranks)
            .map(|r| {
                let lay = hpc_rank_layout(grid, m, n, r);
                RankLayout {
                    w: lay.w,
                    ht: lay.ht,
                }
            })
            .collect(),
    }
}

/// Which scheme a worker should build (the data blocks already encode
/// the distribution).
#[derive(Clone, Copy, Debug)]
enum Spec {
    Seq,
    Naive,
    Hpc(Grid),
}

impl Spec {
    /// The sharding this scheme needs for `ranks` ranks (the
    /// [`SharedInput`] cache key).
    fn shard_key(&self, ranks: usize) -> ShardKey {
        match self {
            Spec::Seq => ShardKey::Seq,
            Spec::Naive => ShardKey::Naive { p: ranks },
            Spec::Hpc(g) => ShardKey::Grid { pr: g.pr, pc: g.pc },
        }
    }
}

/// Controller → worker commands. Every command is answered by exactly
/// one [`Reply`]; `Shutdown` ends the worker.
enum Cmd {
    Step,
    Snapshot,
    /// Communication counters only — no factor clones, for callers that
    /// just want instrumentation.
    Stats,
    SetPolicy(ConvergencePolicy),
    Reinit(Box<ReinitMsg>),
    Shutdown,
}

/// Payload of [`Cmd::Reinit`] (boxed to keep the command enum small).
struct ReinitMsg {
    config: NmfConfig,
    w0: Mat,
    ht0: Mat,
    state: Option<ConvergenceState>,
}

/// Worker → controller replies.
enum Reply {
    Step {
        rec: IterRecord,
        stop: Option<StopReason>,
    },
    Snapshot {
        w: Mat,
        ht: Mat,
        state: ConvergenceState,
        stats: CommStats,
    },
    Stats(CommStats),
    Ack,
}

/// Builds the concrete engine for one rank, erasing the scheme/data
/// generics. Collective when the scheme is (communicator splits, the
/// `‖A‖²` all-reduce), so every rank must call it in the same sequence.
#[allow(clippy::too_many_arguments)]
fn build_engine<'a>(
    comm: &'a Comm,
    spec: Spec,
    dims: (usize, usize),
    data: &'a RankData,
    config: &NmfConfig,
    w0: Mat,
    ht0: Mat,
    ws: IterWorkspace,
) -> Box<dyn EngineDyn + 'a> {
    match (spec, data) {
        (Spec::Seq, RankData::Single(a)) => Box::new(AnlsEngine::with_workspace(
            LocalScheme::new(dims.0, dims.1),
            a.as_ref(),
            config,
            w0,
            ht0,
            ws,
        )),
        (Spec::Naive, RankData::Split { row, col }) => Box::new(AnlsEngine::with_workspace(
            Replicated1D::new(comm, dims, config.k),
            SplitBlocks {
                row_block: row.as_ref(),
                col_block: col.as_ref(),
            },
            config,
            w0,
            ht0,
            ws,
        )),
        (Spec::Hpc(grid), RankData::Single(a)) => Box::new(AnlsEngine::with_workspace(
            Grid2D::new(comm, grid, dims, config.k).with_overlap(config.overlap),
            a.as_ref(),
            config,
            w0,
            ht0,
            ws,
        )),
        _ => unreachable!("scheme spec does not match the data distribution"),
    }
}

/// One rank's service loop: owns the communicator and data blocks for
/// the lifetime of the session, rebuilding the engine only on `Reinit`.
#[allow(clippy::too_many_arguments)]
fn worker(
    seat: Seat,
    spec: Spec,
    dims: (usize, usize),
    data: RankData,
    config: NmfConfig,
    w0: Mat,
    ht0: Mat,
    resume: Option<ConvergenceState>,
    rx: mpsc::Receiver<Cmd>,
    tx: mpsc::Sender<Reply>,
) {
    let comm = seat.into_comm();
    let mut engine = build_engine(
        &comm,
        spec,
        dims,
        &data,
        &config,
        w0,
        ht0,
        IterWorkspace::default(),
    );
    if let Some(st) = resume {
        engine.restore_convergence_state(st);
    }
    while let Ok(cmd) = rx.recv() {
        let reply = match cmd {
            Cmd::Step => {
                let rec = engine.step_dyn();
                Reply::Step {
                    rec,
                    stop: engine.stop_reason(),
                }
            }
            Cmd::Snapshot => {
                let (w, ht) = engine.factors();
                Reply::Snapshot {
                    w: w.clone(),
                    ht: ht.clone(),
                    state: engine.convergence_state(),
                    stats: engine.comm_stats(),
                }
            }
            Cmd::Stats => Reply::Stats(engine.comm_stats()),
            Cmd::SetPolicy(p) => {
                engine.set_policy(p);
                Reply::Ack
            }
            Cmd::Reinit(msg) => {
                let ReinitMsg {
                    config,
                    w0,
                    ht0,
                    state,
                } = *msg;
                let ws = engine.take_workspace();
                engine = build_engine(&comm, spec, dims, &data, &config, w0, ht0, ws);
                if let Some(st) = state {
                    engine.restore_convergence_state(st);
                }
                Reply::Ack
            }
            Cmd::Shutdown => return,
        };
        if tx.send(reply).is_err() {
            return; // controller dropped; unwind quietly
        }
    }
}

struct WorkerHandle {
    cmd: mpsc::Sender<Cmd>,
    reply: mpsc::Receiver<Reply>,
}

/// What a bounded [`Model::step_up_to`] slice accomplished.
#[derive(Clone, Copy, Debug)]
pub struct StepProgress {
    /// Iterations actually executed in this slice (`< n` iff the model
    /// finished mid-slice or had already finished).
    pub steps_run: usize,
    /// Total iterations of the model after the slice.
    pub iterations: usize,
    /// Objective after the slice.
    pub objective: f64,
    /// The stop condition, if the run is over.
    pub stop: Option<StopReason>,
}

/// A live factorization session: the object-safe, `Send` handle the
/// builder produces. See the [module docs](self) for the design.
///
/// All methods that advance or inspect the distributed state are
/// collective under the hood but look like ordinary method calls; the
/// handle may be moved freely across threads (each worker's
/// communicator stays pinned to its own rank thread).
pub struct Model {
    m: usize,
    n: usize,
    norm_a_sq: f64,
    config: NmfConfig,
    algo: Algo,
    grid: Grid,
    ranks: usize,
    layout: Vec<RankLayout>,
    workers: Vec<WorkerHandle>,
    handles: Vec<JoinHandle<()>>,
    /// Aggregated per-iteration records (critical-path compute, merged
    /// comm) for the iterations run by *this* handle.
    records: Vec<IterRecord>,
    /// Iterations executed before this handle existed (checkpoint
    /// resume).
    base_iterations: usize,
    /// Objective to report before the first post-resume iteration.
    initial_objective: f64,
    stop: Option<StopReason>,
}

impl Model {
    #[allow(clippy::too_many_arguments)]
    fn spawn(
        input: InputSource<'_>,
        config: NmfConfig,
        algo: Algo,
        grid: Grid,
        ranks: usize,
        w0: Mat,
        ht0: Mat,
        resume: Option<ConvergenceState>,
    ) -> Model {
        let (m, n) = input.shape();
        let norm_a_sq = input.fro_norm_sq();
        let spec = match algo {
            Algo::Sequential => Spec::Seq,
            Algo::Naive => Spec::Naive,
            _ => Spec::Hpc(grid),
        };
        let layout = factor_layouts(algo, grid, ranks, m, n);

        let base_iterations = resume.as_ref().map_or(0, |s| s.iterations_done);
        let initial_objective = resume
            .as_ref()
            .map(|s| s.prev_objective)
            .filter(|o| o.is_finite())
            .unwrap_or(norm_a_sq);

        // One sharding for the whole universe: a shared input serves
        // (or fills) its cache, a whole input extracts fresh. Either
        // way each worker receives cheap `Arc` clones of its blocks.
        let rank_data = input.rank_data(spec.shard_key(ranks));
        debug_assert_eq!(rank_data.len(), ranks);

        let mut workers = Vec::with_capacity(ranks);
        let mut handles = Vec::with_capacity(ranks);
        for (r, seat) in seats(ranks).into_iter().enumerate() {
            let data = rank_data[r].clone();
            let lay = layout[r];
            let w0_local = w0.rows_block(lay.w.offset, lay.w.len);
            let ht0_local = ht0.rows_block(lay.ht.offset, lay.ht.len);
            let (cmd_tx, cmd_rx) = mpsc::channel();
            let (reply_tx, reply_rx) = mpsc::channel();
            let st = resume.clone();
            let handle = std::thread::Builder::new()
                .name(format!("nmf-session-rank-{r}"))
                .spawn(move || {
                    worker(
                        seat,
                        spec,
                        (m, n),
                        data,
                        config,
                        w0_local,
                        ht0_local,
                        st,
                        cmd_rx,
                        reply_tx,
                    )
                })
                .expect("failed to spawn session rank thread");
            workers.push(WorkerHandle {
                cmd: cmd_tx,
                reply: reply_rx,
            });
            handles.push(handle);
        }

        Model {
            m,
            n,
            norm_a_sq,
            config,
            algo,
            grid,
            ranks,
            layout,
            workers,
            handles,
            records: Vec::new(),
            base_iterations,
            initial_objective,
            stop: None,
        }
    }

    fn send(&self, r: usize, cmd: Cmd) {
        self.workers[r]
            .cmd
            .send(cmd)
            .unwrap_or_else(|_| panic!("session worker {r} exited unexpectedly"));
    }

    fn recv(&self, r: usize) -> Reply {
        self.workers[r]
            .reply
            .recv()
            .unwrap_or_else(|_| panic!("session worker {r} died (a rank thread panicked)"))
    }

    fn expect_acks(&self) {
        for r in 0..self.workers.len() {
            match self.recv(r) {
                Reply::Ack => {}
                _ => panic!("protocol mismatch from session worker {r}"),
            }
        }
    }

    /// Executes exactly one collective ANLS outer iteration and returns
    /// its aggregated record (critical-path compute times across ranks,
    /// merged communication counters).
    ///
    /// Like [`AnlsEngine::step`], this ignores `max_iters` and any
    /// previously reached stop condition — stepping past a stop is
    /// legitimate for serving loops with spare capacity.
    pub fn step(&mut self) -> &IterRecord {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Step);
        }
        let mut agg: Option<IterRecord> = None;
        let mut stop = None;
        for r in 0..self.workers.len() {
            let Reply::Step { rec, stop: s } = self.recv(r) else {
                panic!("protocol mismatch from session worker {r}");
            };
            match &mut agg {
                None => {
                    agg = Some(rec);
                    stop = s;
                }
                Some(a) => {
                    debug_assert!(
                        (a.objective - rec.objective).abs() <= 1e-9 * a.objective.abs().max(1.0),
                        "objective must agree across ranks"
                    );
                    debug_assert_eq!(stop, s, "stop decision must agree across ranks");
                    a.compute = a.compute.max(&rec.compute);
                    a.comm.max_merge(&rec.comm);
                }
            }
        }
        self.records.push(agg.expect("at least one rank"));
        self.stop = stop;
        self.records.last().expect("just pushed")
    }

    /// Runs **at most** `n` collective iterations, stopping early at the
    /// convergence policy or the `max_iters` cap, and reports how far it
    /// got. Unlike [`run`](Self::run) this never drives to completion:
    /// it is the scheduling primitive for serving loops that interleave
    /// many models on one machine — grant a model a bounded slice of
    /// engine time, observe its progress, move to the next model.
    ///
    /// Reaching the `max_iters` cap here records
    /// [`StopReason::MaxIters`], exactly as [`run`](Self::run) would, so
    /// [`is_finished`](Self::is_finished) flips without the caller ever
    /// blocking for the rest of the run.
    pub fn step_up_to(&mut self, n: usize) -> StepProgress {
        let mut steps_run = 0;
        while steps_run < n && !self.is_finished() {
            self.step();
            steps_run += 1;
        }
        if self.stop.is_none() && self.iterations() >= self.config.max_iters {
            self.stop = Some(StopReason::MaxIters);
        }
        StepProgress {
            steps_run,
            iterations: self.iterations(),
            objective: self.objective(),
            stop: self.stop,
        }
    }

    /// Whether this model has nothing left to do: a stop condition fired
    /// or the iteration cap is spent. Purely local bookkeeping — no
    /// worker round-trip — so schedulers can poll it per quantum.
    pub fn is_finished(&self) -> bool {
        self.stop.is_some() || self.iterations() >= self.config.max_iters
    }

    /// Iterations left under the `max_iters` cap (0 when
    /// [`is_finished`](Self::is_finished); stop conditions can end the
    /// run earlier).
    pub fn remaining_iters(&self) -> usize {
        if self.stop.is_some() {
            return 0;
        }
        self.config.max_iters.saturating_sub(self.iterations())
    }

    /// Bytes of factor state this session keeps resident: one assembled
    /// copy of `W` (`m×k`) and `Hᵀ` (`n×k`) distributed across its rank
    /// threads. The admission-control currency of the serving layer
    /// (input blocks and iteration workspaces are excluded — they scale
    /// the same way and the quota is a budget, not an audit).
    pub fn factor_bytes(&self) -> usize {
        8 * (self.m + self.n) * self.config.k
    }

    /// Drives [`step`](Self::step) until the configured convergence
    /// policy stops or `max_iters` total iterations (including any from
    /// before a resume) have run.
    pub fn run(&mut self) -> StopReason {
        self.run_observed(|_, _| {})
    }

    /// [`run`](Self::run) with a different convergence policy from this
    /// point on (broadcast to every rank before the first step, so the
    /// collective schedule stays agreed).
    pub fn run_with(&mut self, policy: ConvergencePolicy) -> StopReason {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::SetPolicy(policy));
        }
        self.expect_acks();
        self.run()
    }

    /// [`run`](Self::run), invoking `observer` with `(iteration_index,
    /// record)` after every iteration — the hook for progress reporting
    /// or periodic checkpoint triggers.
    pub fn run_observed(&mut self, mut observer: impl FnMut(usize, &IterRecord)) -> StopReason {
        while self.iterations() < self.config.max_iters {
            self.step();
            let idx = self.iterations() - 1;
            observer(idx, self.records.last().expect("step pushed a record"));
            if let Some(reason) = self.stop {
                return reason;
            }
        }
        self.stop = Some(StopReason::MaxIters);
        StopReason::MaxIters
    }

    /// The assembled global factors as of the latest iteration:
    /// `(W, H)` with `W` `m×k` and `H` `k×n`. Valid mid-run — this is
    /// the serving/export path.
    pub fn factors(&self) -> (Mat, Mat) {
        let (w, ht, _, _) = self.snapshot();
        (w, ht.transpose())
    }

    /// Aggregated per-iteration records for the iterations this handle
    /// has run (a resumed model's records start at the checkpoint).
    pub fn records(&self) -> &[IterRecord] {
        &self.records
    }

    /// Total iterations executed, including those before a resume.
    pub fn iterations(&self) -> usize {
        self.base_iterations + self.records.len()
    }

    /// Objective after the latest iteration (`‖A‖²`, the objective of
    /// the all-zero factorization, before the first).
    pub fn objective(&self) -> f64 {
        self.records
            .last()
            .map_or(self.initial_objective, |r| r.objective)
    }

    /// Relative error `‖A − WH‖_F / ‖A‖_F` as of the latest iteration.
    pub fn rel_error(&self) -> f64 {
        self.objective().max(0.0).sqrt() / self.norm_a_sq.sqrt().max(f64::MIN_POSITIVE)
    }

    /// Why the model last decided to stop, if it has.
    pub fn stop_reason(&self) -> Option<StopReason> {
        self.stop
    }

    /// The run configuration.
    pub fn config(&self) -> &NmfConfig {
        &self.config
    }

    /// The algorithm this session runs.
    pub fn algo(&self) -> Algo {
        self.algo
    }

    /// The processor grid in use.
    pub fn grid(&self) -> Grid {
        self.grid
    }

    /// The number of virtual ranks (and worker threads) this model owns.
    pub fn ranks(&self) -> usize {
        self.ranks
    }

    /// The input shape `(m, n)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Raises or lowers the total-iteration cap consulted by
    /// [`run`](Self::run) — e.g. to extend a resumed run past its
    /// original budget.
    pub fn set_max_iters(&mut self, max_iters: usize) {
        self.config.max_iters = max_iters;
    }

    /// Writes a durable checkpoint of the current state to `path`
    /// (atomically; see [`crate::checkpoint`] for the format). The
    /// session stays live — call it between [`step`](Self::step)s from
    /// a driving loop to checkpoint every N iterations (the pattern
    /// `nmf_cli --checkpoint-every` uses; the `run_observed` observer
    /// cannot call it, as the observer borrows the model).
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), NmfError> {
        let (w, ht, state, _) = self.snapshot();
        let ck = Checkpoint {
            meta: self.meta(),
            state,
            w,
            ht,
        };
        write_checkpoint(path.as_ref(), &ck)
    }

    /// [`save`](Self::save) with a bounded history: before the new
    /// checkpoint lands at `path`, prior generations shift down the
    /// chain `path → path.1 → … → path.keep` (see
    /// [`write_checkpoint_rotated`]). `keep == 0` behaves like `save`.
    pub fn save_rotated(&self, path: impl AsRef<Path>, keep: usize) -> Result<(), NmfError> {
        let (w, ht, state, _) = self.snapshot();
        let ck = Checkpoint {
            meta: self.meta(),
            state,
            w,
            ht,
        };
        write_checkpoint_rotated(path.as_ref(), &ck, keep)
    }

    /// Reconstructs a model from a checkpoint written by
    /// [`save`](Self::save), continuing the **bit-identical** trajectory
    /// of the interrupted run. `input` must be the same data matrix the
    /// checkpoint was taken from (its shape is verified; its content is
    /// the caller's contract — the checkpoint stores factors, not data).
    pub fn load(path: impl AsRef<Path>, input: &Input) -> Result<Model, NmfError> {
        Self::load_from(path, InputSource::Whole(input))
    }

    /// [`load`](Self::load) against a [`SharedInput`]: the resumed
    /// model draws its blocks from the shared sharding cache (an
    /// mmap-backed input resumes without ever loading the whole
    /// matrix).
    pub fn load_shared(path: impl AsRef<Path>, input: &SharedInput) -> Result<Model, NmfError> {
        Self::load_from(path, InputSource::Shared(input))
    }

    /// [`load`](Self::load) onto a **different** grid, scheme, or rank
    /// count: the checkpoint's globalized factors seed a fresh session
    /// on whatever `target` asks for (an empty target is a pure resume).
    /// See [`crate::regrid`] for the elasticity rules.
    pub fn load_regrid(
        path: impl AsRef<Path>,
        input: &Input,
        target: RegridTarget,
    ) -> Result<Model, NmfError> {
        let ck = read_checkpoint(path.as_ref())?;
        Nmf::resume_from(ck).on(input).target(target).build()
    }

    /// [`load_regrid`](Self::load_regrid) against a [`SharedInput`]:
    /// the target layout's blocks come from (and populate) the shared
    /// sharding cache.
    pub fn load_regrid_shared(
        path: impl AsRef<Path>,
        input: &SharedInput,
        target: RegridTarget,
    ) -> Result<Model, NmfError> {
        let ck = read_checkpoint(path.as_ref())?;
        Nmf::resume_from(ck).on_shared(input).target(target).build()
    }

    fn load_from(path: impl AsRef<Path>, input: InputSource<'_>) -> Result<Model, NmfError> {
        let ck = read_checkpoint(path.as_ref())?;
        ResumeBuilder {
            ck,
            input: Some(input),
            target: RegridTarget::new(),
            max_iters: None,
        }
        .build()
    }

    /// The checkpoint metadata this model would write.
    pub fn meta(&self) -> CheckpointMeta {
        CheckpointMeta {
            m: self.m,
            n: self.n,
            ranks: self.ranks,
            algo: self.algo,
            grid: self.grid,
            config: self.config,
        }
    }

    /// Restarts this session on a new configuration — same data, same
    /// universe, same sharding; fresh seeded factors. The rank-sweep
    /// primitive: stepping `k` through several values reuses the spawned
    /// threads, the distributed input blocks, and each rank's iteration
    /// workspace instead of rebuilding the world per candidate rank.
    pub fn refit(&mut self, config: NmfConfig) -> Result<(), NmfError> {
        validate_run(
            self.m,
            self.n,
            self.algo,
            Some(self.grid),
            self.ranks,
            &config,
        )?;
        let w0 = init_w(self.m, config.k, config.seed);
        let ht0 = init_ht(self.n, config.k, config.seed);
        for (r, lay) in self.layout.iter().enumerate() {
            self.send(
                r,
                Cmd::Reinit(Box::new(ReinitMsg {
                    config,
                    w0: w0.rows_block(lay.w.offset, lay.w.len),
                    ht0: ht0.rows_block(lay.ht.offset, lay.ht.len),
                    state: None,
                })),
            );
        }
        self.expect_acks();
        self.config = config;
        self.records.clear();
        self.base_iterations = 0;
        self.initial_objective = self.norm_a_sq;
        self.stop = None;
        Ok(())
    }

    /// Finishes the session and assembles the classic [`NmfOutput`]
    /// (what [`crate::harness::factorize`] returns).
    pub fn into_output(mut self) -> NmfOutput {
        let (w, ht, _, stats) = self.snapshot();
        let objective = self.objective();
        let iters = std::mem::take(&mut self.records);
        NmfOutput {
            w,
            h: ht.transpose(),
            objective,
            rel_error: objective.max(0.0).sqrt() / self.norm_a_sq.sqrt().max(f64::MIN_POSITIVE),
            iterations: iters.len(),
            stop: self.stop.unwrap_or(StopReason::MaxIters),
            iters,
            // The sequential scheme has no communicator, so it reports
            // no per-rank stats.
            rank_comm: if matches!(self.algo, Algo::Sequential) {
                Vec::new()
            } else {
                stats
            },
        }
    }

    /// Per-rank cumulative communication counters (empty for
    /// [`Algo::Sequential`], which has no communicator). Cheap: unlike
    /// [`factors`](Self::factors), this gathers only the counters, not
    /// the factor blocks.
    pub fn rank_comm(&self) -> Vec<CommStats> {
        if matches!(self.algo, Algo::Sequential) {
            return Vec::new();
        }
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Stats);
        }
        (0..self.workers.len())
            .map(|r| match self.recv(r) {
                Reply::Stats(st) => st,
                _ => panic!("protocol mismatch from session worker {r}"),
            })
            .collect()
    }

    /// Sum of all ranks' communication counters (the session analogue
    /// of [`crate::harness::total_comm`]).
    pub fn total_comm(&self) -> CommStats {
        let mut total = CommStats::new();
        for s in self.rank_comm() {
            total.merge(&s);
        }
        total
    }

    /// Sum of the per-iteration compute breakdowns of
    /// [`records`](Self::records) (the session analogue of
    /// [`NmfOutput::compute_total`]).
    pub fn compute_total(&self) -> TaskTimes {
        let mut t = TaskTimes::default();
        for r in &self.records {
            t.merge(&r.compute);
        }
        t
    }

    /// Collects every rank's factors, convergence state, and comm
    /// counters; assembles the global factor matrices.
    fn snapshot(&self) -> (Mat, Mat, ConvergenceState, Vec<CommStats>) {
        for r in 0..self.workers.len() {
            self.send(r, Cmd::Snapshot);
        }
        let k = self.config.k;
        let mut w_full = Mat::zeros(self.m, k);
        let mut ht_full = Mat::zeros(self.n, k);
        let mut state0: Option<ConvergenceState> = None;
        let mut max_elapsed = Duration::ZERO;
        let mut stats = Vec::with_capacity(self.workers.len());
        for r in 0..self.workers.len() {
            let Reply::Snapshot {
                w,
                ht,
                state,
                stats: st,
            } = self.recv(r)
            else {
                panic!("protocol mismatch from session worker {r}");
            };
            w_full.set_block(self.layout[r].w.offset, 0, &w);
            ht_full.set_block(self.layout[r].ht.offset, 0, &ht);
            // The numeric state is identical on every rank (it derives
            // from all-reduced objectives); the wall clock is not — take
            // the slowest rank's, the conservative budget accounting.
            max_elapsed = max_elapsed.max(state.elapsed);
            if state0.is_none() {
                state0 = Some(state);
            }
            stats.push(st);
        }
        let mut state = state0.expect("at least one rank");
        state.elapsed = max_elapsed;
        (w_full, ht_full, state, stats)
    }
}

impl std::fmt::Debug for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Model")
            .field("shape", &(self.m, self.n))
            .field("k", &self.config.k)
            .field("algo", &self.algo)
            .field("grid", &self.grid)
            .field("ranks", &self.ranks)
            .field("iterations", &self.iterations())
            .field("stop", &self.stop)
            .finish_non_exhaustive()
    }
}

impl Drop for Model {
    fn drop(&mut self) {
        for w in &self.workers {
            let _ = w.cmd.send(Cmd::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// One HPC rank's pieces in global coordinates: its `Aᵢⱼ` block extent
/// and its 1D factor slices. The single source of truth for the offset
/// arithmetic shared by block extraction (at spawn) and factor
/// reassembly (at snapshot).
pub(crate) struct HpcRankLayout {
    pub rows: Part,
    pub cols: Part,
    pub w: Part,
    pub ht: Part,
}

pub(crate) fn hpc_rank_layout(grid: Grid, m: usize, n: usize, rank: usize) -> HpcRankLayout {
    let dist_m = Dist1D::new(m, grid.pr);
    let dist_n = Dist1D::new(n, grid.pc);
    let (i, j) = grid.coords(rank);
    let rows = dist_m.part(i);
    let cols = dist_n.part(j);
    let wpart = Dist1D::new(rows.len, grid.pc).part(j);
    let hpart = Dist1D::new(cols.len, grid.pr).part(i);
    HpcRankLayout {
        rows,
        cols,
        w: Part {
            offset: rows.offset + wpart.offset,
            len: wpart.len,
        },
        ht: Part {
            offset: cols.offset + hpart.offset,
            len: hpart.len,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nmf_matrix::rng::Fill;

    fn _model_is_send(m: Model) -> impl Send {
        m
    }

    #[test]
    fn builder_defaults_to_sequential_single_rank() {
        let a = Input::Dense(Mat::uniform(20, 14, 5));
        let mut model = Nmf::on(&a).rank(3).max_iters(3).build().expect("valid");
        assert_eq!(model.ranks(), 1);
        assert_eq!(model.algo(), Algo::Sequential);
        let reason = model.run();
        assert_eq!(reason, StopReason::MaxIters);
        assert_eq!(model.iterations(), 3);
        let (w, h) = model.factors();
        assert_eq!(w.shape(), (20, 3));
        assert_eq!(h.shape(), (3, 14));
        assert!(w.all_nonnegative() && h.all_nonnegative());
    }

    #[test]
    fn model_is_a_live_handle_mid_run() {
        let a = Input::Dense(Mat::uniform(24, 18, 9));
        let mut model = Nmf::on(&a)
            .rank(4)
            .ranks(4)
            .algo(Algo::Hpc2D)
            .max_iters(6)
            .build()
            .expect("valid");
        let first = model.step().objective;
        let mid = model.factors();
        assert_eq!(mid.0.shape(), (24, 4));
        let second = model.step().objective;
        assert!(second <= first * (1.0 + 1e-9) + 1e-9);
        assert_eq!(model.iterations(), 2);
        assert_eq!(model.records().len(), 2);
    }

    #[test]
    fn refit_restarts_on_the_same_universe() {
        let a = Input::Dense(Mat::uniform(30, 22, 3));
        let mut model = Nmf::on(&a)
            .rank(3)
            .ranks(4)
            .algo(Algo::Hpc2D)
            .max_iters(4)
            .build()
            .expect("valid");
        model.run();
        let obj_k3 = model.objective();
        model
            .refit(NmfConfig::new(5).with_max_iters(4))
            .expect("refit");
        assert_eq!(model.iterations(), 0);
        model.run();
        assert_eq!(model.iterations(), 4);
        // A fresh model with the same config must agree bit-for-bit —
        // the reused workspace carries no information between fits.
        let mut fresh = Nmf::on(&a)
            .config(NmfConfig::new(5).with_max_iters(4))
            .ranks(4)
            .algo(Algo::Hpc2D)
            .build()
            .expect("valid");
        fresh.run();
        assert_eq!(model.factors().0, fresh.factors().0);
        assert_eq!(model.factors().1, fresh.factors().1);
        assert!(model.objective().is_finite() && obj_k3.is_finite());
    }

    #[test]
    fn run_with_overrides_the_policy() {
        let a = Input::Dense(Mat::uniform(26, 20, 13));
        let mut model = Nmf::on(&a)
            .rank(3)
            .ranks(2)
            .algo(Algo::Naive)
            .max_iters(100)
            .build()
            .expect("valid");
        let reason = model.run_with(ConvergencePolicy::RelTol { tol: 1e-6 });
        assert!(
            matches!(
                reason,
                StopReason::Converged | StopReason::ObjectiveIncreased
            ),
            "policy override should stop early, got {reason:?}"
        );
        assert!(model.iterations() < 100);
    }
}
