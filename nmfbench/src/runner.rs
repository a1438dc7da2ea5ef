//! One run of one workload: the untraced run prints the end-to-end
//! metrics, the traced run the per-layer ones.

use crate::factor::{self, Episode, SolveSamples};
use crate::host::{self, json_str, HostFacts};
use crate::layers;
use crate::report::{Report, Tier};
use crate::serve::{self, LoadPlan, ServeSamples};
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::workloads::{self, Profile, Workload};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// One episode (or a handful of jobs) instead of `seconds` of them.
    pub short: bool,
}

/// Where a run keeps its scratch files (sockets, checkpoints) and its
/// trace: a directory in the working tree, never outside it.
pub const OUT_DIR: &str = ".nmfbench";

pub struct Outcome {
    pub report: Report,
    pub host: HostFacts,
    pub trace_file: Option<PathBuf>,
}

pub fn run(args: &RunArgs) -> Outcome {
    let scratch = Path::new(OUT_DIR).join(format!("run-{}", std::process::id()));
    let mut report = Report::default();
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        report.fail(format!("cannot create {}: {e}", scratch.display()));
    }
    let mut tracer = Tracer::new(args.trace);
    let host = HostFacts::probe(args.workload.ranks());
    match args.workload {
        Workload::ServeMix => serve_mix(args, &scratch, &mut tracer, &mut report),
        w => factorization(w, args, &scratch, &mut tracer, &mut report),
    }
    std::fs::remove_dir_all(&scratch).ok();

    let tier = if args.trace {
        Tier::Layer
    } else {
        Tier::EndToEnd
    };
    if args.trace {
        report.set("trace.spans", tracer.spans().len() as f64);
        report.set(
            "failed_frac",
            report.failed() as f64 / report.attempted.max(1) as f64,
        );
    } else {
        match host::peak_rss_mb() {
            Some(mb) => report.set("peak_rss_mb", mb),
            None => report.fail("peak RSS unavailable".into()),
        }
        check_reference(args, &mut report);
    }
    report.validate(tier);

    let trace_file = if args.trace {
        let path = Path::new(OUT_DIR).join(format!(
            "trace-{}-seed{}.json",
            args.workload.name(),
            args.seed
        ));
        let meta = format!(
            "{{\"workload\": {}, \"seed\": {}, \"host\": {}}}",
            json_str(args.workload.name()),
            args.seed,
            host.to_json()
        );
        match std::fs::write(&path, tracer.to_chrome_json(&meta)) {
            Ok(()) => Some(path),
            Err(e) => {
                report.fail(format!("cannot write {}: {e}", path.display()));
                None
            }
        }
    } else {
        None
    };
    Outcome {
        report,
        host,
        trace_file,
    }
}

/// `rel_error` must match the value recorded for this seed, when one
/// was recorded (it repeats exactly at a seed; the tolerance lets the
/// last bits move under a reordered reduction).
fn check_reference(args: &RunArgs, report: &mut Report) {
    let Some(&measured) = report.values.get("rel_error") else {
        return;
    };
    if let Some(expected) = crate::reference::rel_error(args.workload.name(), args.seed) {
        report.check((measured - expected).abs() <= 1e-9 * expected, || {
            format!("rel_error {measured:?} does not match the recorded {expected:?}")
        });
    }
}

fn set_digest(profiles: &[Profile], report: &mut Report) {
    let digest = workloads::profiles_digest(profiles);
    report.info.insert("input_digest", format!("{digest:016x}"));
}

/// All values `f` gives over `episodes`.
fn flat(episodes: &[&Episode], f: impl Fn(&Episode) -> &[f64]) -> Vec<f64> {
    episodes.iter().flat_map(|e| f(e).iter().copied()).collect()
}

/// `solve_s` and `iter_p50_ms`, from the quiet episodes; the steal
/// shares go to the detail line.
fn set_compute_metrics(s: &SolveSamples, report: &mut Report) {
    let quiet = s.quiet();
    let solve: Vec<f64> = quiet.iter().map(|e| e.solve_s).collect();
    let iter = flat(&quiet, |e| &e.iter_ms);
    report.set_sampled("solve_s", median(&solve), solve.len());
    report.set_sampled("iter_p50_ms", median(&iter), iter.len());
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let all: Vec<f64> = s.episodes.iter().map(|e| e.steal).collect();
    let kept: Vec<f64> = quiet.iter().map(|e| e.steal).collect();
    report
        .info
        .insert("steal_frac", format!("{:.4}", mean(&all)));
    report
        .info
        .insert("steal_frac_timed", format!("{:.4}", mean(&kept)));
}

/// The tails of the end-to-end timings, pooled over a traced run's
/// untraced samples.
fn set_tails(iter_ms: &[f64], job_ms: &[f64], verb_us: &[f64], report: &mut Report) {
    report.set_sampled("iter_p90_ms", quantile(iter_ms, 0.9), iter_ms.len());
    report.set_sampled("job_p95_ms", quantile(job_ms, 0.95), job_ms.len());
    report.set_sampled("verb_p99_us", quantile(verb_us, 0.99), verb_us.len());
}

/// Episodes until `budget` is spent (one in short mode); traced runs
/// alternate untraced and traced episodes so both see the same drift.
fn episodes(
    profile: &Profile,
    fetch: bool,
    budget: Duration,
    short: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) -> (
    SolveSamples,
    SolveSamples,
    Option<(hpc_nmf::Model, hpc_nmf::SharedInput)>,
) {
    let start = Instant::now();
    let mut plain = SolveSamples::default();
    let mut traced = SolveSamples::default();
    let mut last = None;
    let mut off = tracer.with_enabled(false);
    let mut run = 0u64;
    loop {
        let into_traced = tracer.enabled() && run % 2 == 1;
        let (t, out) = if into_traced {
            (&mut *tracer, &mut traced)
        } else {
            (&mut off, &mut plain)
        };
        // The previous episode's model and input go first, so episodes
        // never overlap in memory.
        drop(last.take());
        let kept = factor::episode(profile, run, fetch, t, report, out);
        if kept.is_none() {
            break;
        }
        last = kept;
        run += 1;
        let enough = if short {
            run >= if tracer.enabled() { 2 } else { 1 }
        } else {
            start.elapsed() >= budget && (!tracer.enabled() || run >= 2)
        };
        if enough {
            break;
        }
    }
    if let (Some(a), Some(b)) = (plain.rel_error, traced.rel_error) {
        report.check(a.to_bits() == b.to_bits(), || {
            format!("{}: traced and untraced episodes disagree", profile.label)
        });
    }
    (plain, traced, last)
}

fn overhead(plain: &SolveSamples, traced: &SolveSamples) -> f64 {
    let solve =
        |s: &SolveSamples| median(&s.episodes.iter().map(|e| e.solve_s).collect::<Vec<_>>());
    solve(traced) / solve(plain) - 1.0
}

fn factorization(
    w: Workload,
    args: &RunArgs,
    scratch: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let profile = w.profile(args.seed).expect("a factorization workload");
    set_digest(std::slice::from_ref(&profile), report);
    let budget = Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let (s, _, last) = episodes(&profile, true, budget, args.short, tracer, report);
        set_compute_metrics(&s, report);
        let quiet = s.quiet();
        let setup: Vec<f64> = quiet.iter().map(|e| e.setup_s).collect();
        report.set_sampled("setup_s", median(&setup), setup.len());
        if let Some(rel) = s.rel_error {
            report.set("rel_error", rel);
        }
        let job = flat(&quiet, |e| &e.job_ms);
        let verb = flat(&quiet, |e| &e.verb_us);
        report.set_sampled("job_p50_ms", median(&job), job.len());
        report.set_sampled("verb_p50_us", median(&verb), verb.len());
        if let Some((mut model, shared)) = last {
            factor::checkpoint_roundtrip(
                &mut model,
                &shared,
                scratch,
                &profile.label,
                tracer,
                report,
            );
        }
        return;
    }

    let (plain, traced, last) = episodes(&profile, true, budget / 2, args.short, tracer, report);
    report.set("trace.overhead_frac", overhead(&plain, &traced));
    let episodes: Vec<&Episode> = plain.episodes.iter().collect();
    set_tails(
        &flat(&episodes, |e| &e.iter_ms),
        &flat(&episodes, |e| &e.job_ms),
        &flat(&episodes, |e| &e.verb_us),
        report,
    );
    let Some((mut model, shared)) = last else {
        return;
    };
    let (w_f, h_f) = model.factors();
    let mut all = plain;
    all.records.extend(traced.records);
    let layer_budget = if args.short {
        Duration::from_millis(200)
    } else {
        budget / 4
    };
    layers::measure(
        &profile,
        &w_f,
        &h_f,
        model.grid(),
        model.ranks(),
        &all,
        layer_budget,
        tracer,
        report,
    );
    set_checkpoint(&mut model, &shared, scratch, &profile.label, tracer, report);
    drop(model);
    layers::measure_build(&profile, tracer, report);

    // The serve layer at this workload's job shape: a few short jobs of
    // the same factorization, submitted by two tenants.
    let mut job = profile.clone();
    job.steps = 16;
    let reference = reference_factors(&job, report);
    let plan = LoadPlan {
        pool: vec![(job.clone(), job.job_source(), reference)],
        rate: 4.0,
        window: Duration::from_millis(500),
        tenants: 2,
        checkpoint_every: 2,
        seed: args.seed,
        dir: scratch.to_path_buf(),
        setup_probes: 1,
    };
    let s = serve::run_load(&plan, tracer, report);
    set_serve_layer(&s, report);
    report
        .info
        .insert("checkpoints_missed", s.checkpoints_missed.to_string());
}

fn set_checkpoint(
    model: &mut hpc_nmf::Model,
    shared: &hpc_nmf::SharedInput,
    scratch: &Path,
    label: &str,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    if let Some((save, load, bytes)) =
        factor::checkpoint_roundtrip(model, shared, scratch, label, tracer, report)
    {
        report.set("core.checkpoint.save_ms", save);
        report.set("core.checkpoint.load_ms", load);
        report.set("core.checkpoint.bytes", bytes);
    }
}

/// The factors an in-process model of `profile` reaches after
/// `profile.steps` steps.
fn reference_factors(profile: &Profile, report: &mut Report) -> (nmf_matrix::Mat, nmf_matrix::Mat) {
    let shared = hpc_nmf::SharedInput::new(profile.input.clone());
    match factor::build(profile, &shared) {
        Ok(mut model) => {
            report.ok();
            for _ in 0..profile.steps {
                model.step();
            }
            model.factors()
        }
        Err(e) => {
            report.fail(format!("{}: reference build failed: {e}", profile.label));
            (nmf_matrix::Mat::zeros(0, 0), nmf_matrix::Mat::zeros(0, 0))
        }
    }
}

fn set_serve_layer(s: &ServeSamples, report: &mut Report) {
    report.set_sampled("serve.submit_us", median(&s.submit_us), s.submit_us.len());
    report.set_sampled("serve.status_us", median(&s.status_us), s.status_us.len());
    report.set_sampled(
        "serve.factors_ms",
        median(&s.factors_ms),
        s.factors_ms.len(),
    );
    report.set_sampled(
        "serve.checkpoint_ms",
        median(&s.checkpoint_ms),
        s.checkpoint_ms.len(),
    );
    report.set_sampled("serve.resume_ms", median(&s.resume_ms), s.resume_ms.len());
    report.set_sampled(
        "serve.queue_wait_ms",
        median(&s.queue_wait_ms),
        s.queue_wait_ms.len(),
    );
    report.set("serve.fairness_spread", s.fairness_spread);
    report.set("serve.rejected", s.rejected as f64);
    report.set_sampled(
        "loadgen.late_p99_ms",
        quantile(&s.late_ms, 0.99),
        s.late_ms.len(),
    );
}

/// `serve-mix` job arrivals per second; the shares of the run spent on
/// arrivals and, after the load, on timed in-process runs of the job
/// specs.
const SERVE_RATE: f64 = 12.0;
const SERVE_REFERENCE_SHARE: f64 = 0.1;
const SERVE_WINDOW: f64 = 0.85;

/// One pass over the pool: every job spec factorized in process. The
/// first pass records each spec's `rel_error` (and, with `refs`, its
/// factors); later passes must repeat it bit for bit.
fn pool_pass(
    pool: &[Profile],
    pass: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    out: &mut SolveSamples,
    spec_errors: &mut Vec<f64>,
    mut refs: Option<&mut Vec<(nmf_matrix::Mat, nmf_matrix::Mat)>>,
) -> Option<(hpc_nmf::Model, hpc_nmf::SharedInput, usize)> {
    let mut kept = None;
    for (i, p) in pool.iter().enumerate() {
        drop(kept.take());
        let run = pass * pool.len() as u64 + i as u64;
        if let Some((model, shared)) = factor::episode(p, run, false, tracer, report, out) {
            if let Some(refs) = refs.as_deref_mut() {
                refs.push(model.factors());
            }
            kept = Some((model, shared, i));
        }
        if let Some(rel) = out.rel_error.take() {
            match spec_errors.get(i) {
                Some(first) => report.check(rel.to_bits() == f64::to_bits(*first), || {
                    format!("{}: rel_error differs between passes", p.label)
                }),
                None => spec_errors.push(rel),
            }
        }
    }
    kept
}

fn serve_mix(args: &RunArgs, scratch: &Path, tracer: &mut Tracer, report: &mut Report) {
    let pool = workloads::serve_pool(args.seed);
    set_digest(&pool, report);
    // A first in-process pass over the pool gives the reference factors
    // fetched jobs must match bit for bit.
    let mut refs = Vec::new();
    let mut spec_errors = Vec::new();
    let mut off = tracer.with_enabled(false);
    pool_pass(
        &pool,
        0,
        &mut off,
        report,
        &mut SolveSamples::default(),
        &mut spec_errors,
        Some(&mut refs),
    );
    if refs.len() != pool.len() {
        return;
    }
    let plan = |window: f64, probes: usize| LoadPlan {
        pool: pool
            .iter()
            .zip(&refs)
            .map(|(p, r)| (p.clone(), p.job_source(), r.clone()))
            .collect(),
        rate: SERVE_RATE,
        window: Duration::from_secs_f64(window),
        tenants: 4,
        checkpoint_every: 4,
        seed: args.seed,
        dir: scratch.to_path_buf(),
        setup_probes: probes,
    };
    let window = if args.short {
        0.25
    } else {
        SERVE_WINDOW * args.seconds
    };
    let s = serve::run_load(
        &plan(window, if args.trace { 1 } else { 24 }),
        tracer,
        report,
    );
    report
        .info
        .insert("checkpoints_missed", s.checkpoints_missed.to_string());

    // Timed passes after the load, in a warm process, give the
    // job-compute samples (solve, iter); traced runs alternate untraced
    // and traced passes.
    let mut plain = SolveSamples::default();
    let mut traced = SolveSamples::default();
    let mut kept = None;
    let start = Instant::now();
    let budget = Duration::from_secs_f64(SERVE_REFERENCE_SHARE * args.seconds);
    let min_passes = if args.trace { 2 } else { 1 };
    let mut pass = 1u64;
    loop {
        drop(kept.take());
        kept = if args.trace && pass.is_multiple_of(2) {
            pool_pass(
                &pool,
                pass,
                tracer,
                report,
                &mut traced,
                &mut spec_errors,
                None,
            )
        } else {
            pool_pass(
                &pool,
                pass,
                &mut off,
                report,
                &mut plain,
                &mut spec_errors,
                None,
            )
        };
        if pass >= min_passes && (args.short || start.elapsed() >= budget) {
            break;
        }
        pass += 1;
    }

    if !args.trace {
        report.info.insert("jobs", s.jobs.to_string());
        report.set_sampled("setup_s", median(&s.setup_s), s.setup_s.len());
        set_compute_metrics(&plain, report);
        report.set_sampled("rel_error", median(&spec_errors), spec_errors.len());
        report.set_sampled("job_p50_ms", median(&s.job_ms), s.job_ms.len());
        report.set_sampled("verb_p50_us", median(&s.verb_us), s.verb_us.len());
        if let Some((mut model, shared, i)) = kept {
            factor::checkpoint_roundtrip(
                &mut model,
                &shared,
                scratch,
                &pool[i].label,
                tracer,
                report,
            );
        }
        return;
    }

    report.set("trace.overhead_frac", overhead(&plain, &traced));
    set_serve_layer(&s, report);
    let episodes: Vec<&Episode> = plain.episodes.iter().collect();
    set_tails(
        &flat(&episodes, |e| &e.iter_ms),
        &s.job_ms,
        &s.verb_us,
        report,
    );
    let Some((mut model, shared, i)) = kept else {
        return;
    };
    set_checkpoint(&mut model, &shared, scratch, &pool[i].label, tracer, report);
    drop(model);
    // The jobs are sequential and never communicate, so the engine and
    // collective layers are measured on the same job run on two ranks,
    // as the factorization workloads run theirs.
    let mut two = pool[i].clone();
    two.ranks = 2;
    two.algo = hpc_nmf::Algo::Hpc2D;
    let mut samples = SolveSamples::default();
    let mut model = None;
    for run in 0..2 {
        drop(model.take());
        model = factor::episode(&two, run, false, tracer, report, &mut samples);
    }
    let Some((model, _)) = model else {
        return;
    };
    let (w_f, h_f) = model.factors();
    let layer_budget = if args.short {
        Duration::from_millis(200)
    } else {
        Duration::from_secs_f64(args.seconds / 4.0)
    };
    layers::measure(
        &two,
        &w_f,
        &h_f,
        model.grid(),
        model.ranks(),
        &samples,
        layer_budget,
        tracer,
        report,
    );
    drop(model);
    layers::measure_build(&pool[i], tracer, report);
}
