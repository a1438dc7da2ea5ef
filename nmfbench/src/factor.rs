//! Timed factorization episodes on the session API: build a model on a
//! cold shared input, step it a fixed number of times, check the result.

use crate::report::Report;
use crate::trace::Tracer;
use crate::workloads::Profile;
use hpc_nmf::{Grid, IterRecord, Model, Nmf, NmfError, SharedInput};
use nmf_matrix::Mat;
use std::path::Path;
use std::time::Instant;

/// What one episode sampled.
#[derive(Debug, Default)]
pub struct Episode {
    /// `Nmf::on_shared(..).build()` on a cold shared input, seconds.
    pub setup_s: f64,
    /// Sum of the episode's `Model::step` wall times, seconds.
    pub solve_s: f64,
    /// One `Model::step`, milliseconds.
    pub iter_ms: Vec<f64>,
    /// One `Model::step` plus the `Model::factors` fetch of its result.
    pub job_ms: Vec<f64>,
    /// One `Model::rank_comm` status round trip to every rank thread.
    pub verb_us: Vec<f64>,
    /// Share of the host's CPU time stolen by other virtual machines
    /// while the episode ran.
    pub steal: f64,
}

/// Everything the episodes of one run sampled.
#[derive(Debug, Default)]
pub struct SolveSamples {
    pub episodes: Vec<Episode>,
    /// Relative error after the first episode.
    pub rel_error: Option<f64>,
    /// Aggregated engine records of every step, with the step's wall
    /// time in milliseconds.
    pub records: Vec<(IterRecord, f64)>,
    /// Words and messages per iteration, summed over ranks.
    pub comm_per_iter: Option<(f64, f64)>,
}

impl SolveSamples {
    /// The episodes that ran under the least steal: those at or below
    /// the `QUIET_SHARE` quantile of the episodes' steal shares (all of
    /// them when, as for episodes shorter than a clock tick, no steal
    /// registers).
    pub fn quiet(&self) -> Vec<&Episode> {
        let steal: Vec<f64> = self.episodes.iter().map(|e| e.steal).collect();
        let cut = crate::stats::quantile(&steal, crate::host::QUIET_SHARE);
        self.episodes.iter().filter(|e| e.steal <= cut).collect()
    }
}

/// Status round trips after each step: enough that the traced run's
/// p99 has well over ten samples beyond it.
const VERBS_PER_STEP: usize = 10;

pub fn build(profile: &Profile, shared: &SharedInput) -> Result<Model, NmfError> {
    Nmf::on_shared(shared)
        .rank(profile.k)
        .ranks(profile.ranks)
        .algo(profile.algo)
        .solver(profile.solver)
        .max_iters(profile.steps)
        .seed(profile.seed)
        .build()
}

/// Runs one episode and returns its model (kept alive by the caller for
/// the checkpoint check). `fetch` adds the per-step status round trips
/// and factor fetch that the verb and job metrics sample.
pub fn episode(
    profile: &Profile,
    run: u64,
    fetch: bool,
    tracer: &mut Tracer,
    report: &mut Report,
    out: &mut SolveSamples,
) -> Option<(Model, SharedInput)> {
    let root = tracer.begin("episode", None, run);
    let shared = SharedInput::new(profile.input.clone());
    let span = tracer.begin("hpc_nmf.build", root, run);
    let t = Instant::now();
    let built = build(profile, &shared);
    let setup = t.elapsed().as_secs_f64();
    tracer.end(span);
    let mut model = match built {
        Ok(m) => m,
        Err(e) => {
            report.fail(format!("{}: build failed: {e}", profile.label));
            tracer.end(root);
            return None;
        }
    };
    report.ok();
    let ticks = crate::host::cpu_ticks();
    let mut ep = Episode {
        setup_s: setup,
        ..Episode::default()
    };
    let comm0 = model.total_comm();

    let mut last: Option<(Mat, Mat)> = None;
    for _ in 0..profile.steps {
        let span = tracer.begin("hpc_nmf.step", root, run);
        let t = Instant::now();
        model.step();
        let step_s = t.elapsed().as_secs_f64();
        tracer.end(span);
        let rec = model
            .records()
            .last()
            .expect("a step pushes a record")
            .clone();
        out.records.push((rec, step_s * 1e3));
        ep.solve_s += step_s;
        ep.iter_ms.push(step_s * 1e3);
        report.ok();
        if fetch {
            // A user watching a live model: status round trips while
            // the rank threads are still awake from the step, then the
            // fetch of the factors the step produced.
            for _ in 0..VERBS_PER_STEP {
                let span = tracer.begin("hpc_nmf.rank_comm", root, run);
                let v = Instant::now();
                std::hint::black_box(model.rank_comm());
                ep.verb_us.push(v.elapsed().as_secs_f64() * 1e6);
                tracer.end(span);
            }
            let span = tracer.begin("hpc_nmf.factors", root, run);
            let f = Instant::now();
            last = Some(model.factors());
            ep.job_ms.push((step_s + f.elapsed().as_secs_f64()) * 1e3);
            tracer.end(span);
            report.ok_n(1 + VERBS_PER_STEP as u64);
        }
    }
    ep.steal = crate::host::steal_since(ticks);
    out.episodes.push(ep);

    let comm = model.total_comm();
    let steps = profile.steps as f64;
    let words = (comm.total_words() - comm0.total_words()) as f64 / steps;
    let messages = (comm.total_messages() - comm0.total_messages()) as f64 / steps;
    let (m, n) = profile.input.shape();
    let grid = model.grid();
    let (aw, am) = analytic_comm_per_iter(m, n, profile.k, grid, model.ranks());
    report.check(words == aw as f64 && messages == am as f64, || {
        format!(
            "{}: {words} words / {messages} messages per iteration, analytic count is \
             {aw} / {am} on grid {}x{}",
            profile.label, grid.pr, grid.pc
        )
    });
    out.comm_per_iter = Some((words, messages));

    let history: Vec<f64> = model.records().iter().map(|r| r.objective).collect();
    let rising = history.windows(2).position(|w| w[1] > w[0] * (1.0 + 1e-12));
    report.check(rising.is_none(), || {
        format!(
            "{}: objective rose at iteration {}",
            profile.label,
            rising.unwrap_or(0) + 1
        )
    });

    let (w, h) = last.unwrap_or_else(|| model.factors());
    report.check(factors_valid(&w, &h), || {
        format!("{}: factors are not finite and nonnegative", profile.label)
    });

    let rel = model.rel_error();
    match out.rel_error {
        None => out.rel_error = Some(rel),
        Some(first) => report.check(first.to_bits() == rel.to_bits(), || {
            format!(
                "{}: rel_error {rel:?} differs from the first episode's {first:?} at the same seed",
                profile.label
            )
        }),
    }
    tracer.end(root);
    Some((model, shared))
}

pub fn factors_valid(w: &Mat, h: &Mat) -> bool {
    w.all_finite() && h.all_finite() && w.all_nonnegative() && h.all_nonnegative()
}

pub fn bit_identical(a: &Mat, b: &Mat) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Words and messages one iteration sends, summed over ranks, for the
/// collectives of Algorithm 3 on `grid` (power-of-two groups):
///
/// * all-gather of `H` over each grid column and of `W` over each grid
///   row: `(q−1)·T` words, `q·log₂q` messages for a group of `q` ranks
///   gathering `T` words (Bruck);
/// * reduce-scatter of `AHᵀ` over rows and `AᵀW` over columns: the same
///   counts (recursive halving);
/// * all-reduce of the two `k×k` Grams and the two-word objective:
///   `2(p−1)·n` words, `2p·log₂p` messages (Rabenseifner).
///
/// A sequential run (one rank) sends nothing.
pub fn analytic_comm_per_iter(m: usize, n: usize, k: usize, grid: Grid, p: usize) -> (u64, u64) {
    if p == 1 {
        return (0, 0);
    }
    let lg = |q: usize| q.trailing_zeros() as usize;
    assert!(
        grid.pr.is_power_of_two() && grid.pc.is_power_of_two(),
        "the analytic count covers power-of-two grids"
    );
    let (pr, pc) = (grid.pr, grid.pc);
    let gather_words = (pr - 1) * n * k + (pc - 1) * m * k;
    let gather_msgs = pc * pr * lg(pr) + pr * pc * lg(pc);
    let reduce_words = 2 * (p - 1) * (2 * k * k + 2);
    let reduce_msgs = 3 * 2 * p * lg(p);
    (
        (2 * gather_words + reduce_words) as u64,
        (2 * gather_msgs + reduce_msgs) as u64,
    )
}

/// Save → load → one more step on both must give bit-identical factors.
/// Returns `(save_ms, load_ms, bytes)`.
pub fn checkpoint_roundtrip(
    model: &mut Model,
    shared: &SharedInput,
    dir: &Path,
    label: &str,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<(f64, f64, f64)> {
    let path = dir.join(format!("{label}.ckpt"));
    let span = tracer.begin("hpc_nmf.save", None, 0);
    let t = Instant::now();
    let saved = model.save(&path);
    let save_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    if let Err(e) = saved {
        report.fail(format!("{label}: checkpoint save failed: {e}"));
        return None;
    }
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    let span = tracer.begin("hpc_nmf.load", None, 0);
    let t = Instant::now();
    let loaded = Model::load_shared(&path, shared);
    let load_ms = t.elapsed().as_secs_f64() * 1e3;
    tracer.end(span);
    std::fs::remove_file(&path).ok();
    let mut loaded = match loaded {
        Ok(m) => m,
        Err(e) => {
            report.fail(format!("{label}: checkpoint load failed: {e}"));
            return None;
        }
    };
    model.step();
    loaded.step();
    let (w0, h0) = model.factors();
    let (w1, h1) = loaded.factors();
    report.check(bit_identical(&w0, &w1) && bit_identical(&h0, &h1), || {
        format!("{label}: save -> load -> step is not bit-identical to continuing")
    });
    Some((save_ms, load_ms, bytes))
}
