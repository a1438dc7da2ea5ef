//! The metric registry and the result line.
//!
//! Every metric the benchmark prints is declared once in [`METRICS`]
//! with its unit; `BENCHMARK.json` at the repository root is rendered
//! from this table (a test keeps the two identical).

use crate::host::{json_str, HostFacts};
use std::collections::BTreeMap;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tier {
    /// Printed by untraced runs; what a user of the system sees.
    EndToEnd,
    /// Printed by the traced run; one layer's share.
    Layer,
}

/// How a value comes about, printed beside it so that computed counts
/// are never read as measurements.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Source {
    /// Timed or sampled in this run.
    Measured,
    /// Counted exactly by the program (repeats exactly at a seed).
    Counted,
    /// Derived from array sizes or the α-β-γ cost model, not measured.
    Computed,
}

impl Source {
    fn as_str(self) -> &'static str {
        match self {
            Source::Measured => "measured",
            Source::Counted => "counted",
            Source::Computed => "computed",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub tier: Tier,
    pub source: Source,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change counts as a
    /// regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        tier: Tier::EndToEnd,
        source: Source::Measured,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, source: Source) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        tier: Tier::Layer,
        source,
        bound: 0.0,
    }
}

use Source::{Computed, Counted, Measured};

/// Every metric, end-to-end first. All end-to-end metrics are "lower is
/// better"; the README defines each one per workload.
pub const METRICS: &[MetricSpec] = &[
    e2e("setup_s", "s", 0.25),
    e2e("solve_s", "s", 0.25),
    e2e("iter_p50_ms", "ms", 0.25),
    e2e("rel_error", "ratio", 0.1),
    e2e("peak_rss_mb", "MB", 0.15),
    e2e("job_p50_ms", "ms", 0.25),
    e2e("verb_p50_us", "us", 0.25),
    // Tails of the end-to-end timings. Host steal moved them by 30-200%
    // between consecutive runs, beyond any bound a regression gate can
    // hold, so the traced run reports them without a bound.
    layer("iter_p90_ms", "ms", Measured),
    layer("job_p95_ms", "ms", Measured),
    layer("verb_p99_us", "us", Measured),
    // nmf_matrix
    layer("matrix.gemm.ms", "ms", Measured),
    layer("matrix.gemm.gflops", "GFLOP/s", Measured),
    layer("matrix.gemm.flops", "flop", Computed),
    layer("matrix.gemm.bytes", "B", Computed),
    layer("matrix.gemm.flops_per_byte", "flop/B", Computed),
    layer("matrix.peak_gflops", "GFLOP/s", Measured),
    layer("matrix.gram.ms", "ms", Measured),
    // nmf_sparse
    layer("sparse.spmm_t.ms", "ms", Measured),
    layer("sparse.spmm_at.ms", "ms", Measured),
    layer("sparse.spmm.nnz", "count", Counted),
    layer("sparse.spmm.bytes", "B", Computed),
    layer("sparse.spmm.flops_per_byte", "flop/B", Computed),
    layer("sparse.csc_routed", "count", Counted),
    // nmf_nls
    layer("nls.bpp.ms", "ms", Measured),
    layer("nls.bpp.us_per_row", "us", Measured),
    layer("nls.hals.ms", "ms", Measured),
    layer("nls.support_masks_per_row", "ratio", Counted),
    // nmf_vmpi
    layer("vmpi.all_gather.ms", "ms", Measured),
    layer("vmpi.reduce_scatter.ms", "ms", Measured),
    layer("vmpi.all_reduce.ms", "ms", Measured),
    layer("vmpi.all_gather.posted_ms", "ms", Measured),
    layer("vmpi.reduce_scatter.posted_ms", "ms", Measured),
    layer("vmpi.all_reduce.posted_ms", "ms", Measured),
    layer("vmpi.words_per_iter", "count", Counted),
    layer("vmpi.messages_per_iter", "count", Counted),
    layer("vmpi.model_words_per_iter", "count", Computed),
    // hpc_nmf engine, session, shared input, checkpoints
    layer("core.engine.mm_ms", "ms", Measured),
    layer("core.engine.nls_ms", "ms", Measured),
    layer("core.engine.gram_ms", "ms", Measured),
    layer("core.engine.all_gather_ms", "ms", Measured),
    layer("core.engine.reduce_scatter_ms", "ms", Measured),
    layer("core.engine.all_reduce_ms", "ms", Measured),
    layer("core.engine.overlap_ms", "ms", Measured),
    layer("core.engine.model_ms", "ms", Computed),
    layer("core.session.unattributed_frac", "ratio", Measured),
    layer("core.shared.extract_ms", "ms", Measured),
    layer("core.session.build_ms", "ms", Measured),
    layer("core.checkpoint.save_ms", "ms", Measured),
    layer("core.checkpoint.load_ms", "ms", Measured),
    layer("core.checkpoint.bytes", "B", Counted),
    // nmf_serve
    layer("serve.submit_us", "us", Measured),
    layer("serve.status_us", "us", Measured),
    layer("serve.factors_ms", "ms", Measured),
    layer("serve.checkpoint_ms", "ms", Measured),
    layer("serve.resume_ms", "ms", Measured),
    layer("serve.queue_wait_ms", "ms", Measured),
    layer("serve.fairness_spread", "ratio", Counted),
    layer("serve.rejected", "count", Counted),
    // the benchmark itself
    layer("loadgen.late_p99_ms", "ms", Measured),
    layer("trace.overhead_frac", "ratio", Measured),
    layer("trace.spans", "count", Counted),
    layer("failed_frac", "ratio", Counted),
];

pub fn spec(name: &str) -> Option<&'static MetricSpec> {
    METRICS.iter().find(|m| m.name == name)
}

/// The workloads `BENCHMARK.json` gates, with the reason each exists.
/// `serve-mix` runs (`--workload serve-mix`, and in `--workload all`)
/// but is not gated: its in-process job steps last 0.35 ms, less than
/// the thread wake-ups around them, and their timings jumped between
/// 0.34 and 0.59 ms from one run of the same code to the next.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "dense-bpp",
        "DSYN 1728x1152 dense, k=32, BPP, 2 ranks: the BPP solver does most of the work and \
         the sparse kernels none",
    ),
    (
        "sparse-spmm",
        "SSYN 8640x5760, ~1.0M nnz, k=16, HALS, 2 ranks: per-nonzero SpMM dominates and BPP \
         is bypassed",
    ),
    (
        "webgraph-comm",
        "Webbase 50k x 50k power-law, ~137k nnz, k=16, HALS, 2 ranks: factor-sized \
         collectives, Gram and per-row NLS dominate",
    ),
];

/// One run's outcome: metric values, sample counts and the correctness
/// tally.
#[derive(Debug, Default)]
pub struct Report {
    pub values: BTreeMap<&'static str, f64>,
    pub samples: BTreeMap<&'static str, usize>,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub info: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(spec(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Sets a metric and records how many samples it summarises.
    pub fn set_sampled(&mut self, name: &'static str, value: f64, samples: usize) {
        self.set(name, value);
        self.samples.insert(name, samples);
    }

    /// Counts one attempted operation that succeeded.
    pub fn ok(&mut self) {
        self.attempted += 1;
    }

    /// Counts `n` attempted operations that succeeded.
    pub fn ok_n(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one attempted operation (or check) and, when `passed` is
    /// false, one failure described by `what`.
    pub fn check(&mut self, passed: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !passed {
            self.failures.push(what());
        }
    }

    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failures.push(what);
    }

    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    pub fn absorb_tally(&mut self, other: Report) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures);
    }

    /// Checks that the run produced exactly the metrics of `tier`, each
    /// finite; a missing or non-finite metric is a failure.
    pub fn validate(&mut self, tier: Tier) {
        for m in METRICS.iter().filter(|m| m.tier == tier) {
            match self.values.get(m.name) {
                Some(v) if v.is_finite() => {}
                Some(v) => self.failures.push(format!("metric {} is {v}", m.name)),
                None => self
                    .failures
                    .push(format!("metric {} was not produced", m.name)),
            }
        }
        self.values
            .retain(|k, _| spec(k).is_some_and(|m| m.tier == tier));
    }

    /// The detail line printed before the result: host facts, sample
    /// counts, value sources, extra information and failures.
    pub fn detail_json(&self, workload: &str, seed: u64, trace: bool, host: &HostFacts) -> String {
        let samples: Vec<String> = self
            .samples
            .iter()
            .map(|(k, v)| format!("{}: {v}", json_str(k)))
            .collect();
        let sources: Vec<String> = self
            .values
            .keys()
            .filter_map(|k| spec(k))
            .map(|m| format!("{}: {}", json_str(m.name), json_str(m.source.as_str())))
            .collect();
        let info: Vec<String> = self
            .info
            .iter()
            .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
            .collect();
        let failures: Vec<String> = self.failures.iter().map(|f| json_str(f)).collect();
        format!(
            "{{\"workload\": {}, \"seed\": {seed}, \"trace\": {trace}, \"host\": {}, \
             \"info\": {{{}}}, \"samples\": {{{}}}, \"sources\": {{{}}}, \"failures\": [{}]}}",
            json_str(workload),
            host.to_json(),
            info.join(", "),
            samples.join(", "),
            sources.join(", "),
            failures.join(", ")
        )
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, each metric with its value and unit.
    pub fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .map(|(name, v)| {
                let unit = spec(name).map_or("", |m| m.unit);
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json_str(name),
                    json_num(*v),
                    json_str(unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed(),
            metrics.join(", ")
        )
    }
}

/// A finite number with all its digits (Rust's shortest round-trip
/// form); non-finite values, already reported as failures, print as
/// `null`.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

/// `BENCHMARK.json`, rendered from [`METRICS`] and [`WORKLOADS`].
pub fn benchmark_json(run_seconds: u32) -> String {
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": {}, \"why\": {}}}",
                json_str(n),
                json_str(why)
            )
        })
        .collect();
    let e2e: Vec<String> = METRICS
        .iter()
        .filter(|m| m.tier == Tier::EndToEnd)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": \"lower\", \"bound\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                m.bound
            )
        })
        .collect();
    let layers: Vec<String> = METRICS
        .iter()
        .filter(|m| m.tier == Tier::Layer)
        .map(|m| {
            format!(
                "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}",
                json_str(m.name),
                json_str(m.unit),
                json_str(layer_better(m.name))
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--quiet\", \"--manifest-path\", \
         \"nmfbench/Cargo.toml\", \"--\"],\n  \"paths\": [\"nmfbench\"],\n  \"run_seconds\": \
         {run_seconds},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \
         \"per_layer\": [\n{}\n  ]\n}}\n",
        workloads.join(",\n"),
        e2e.join(",\n"),
        layers.join(",\n")
    )
}

/// Direction of improvement for a layer metric: rates, and counts that
/// are targets rather than costs, are "higher".
fn layer_better(name: &str) -> &'static str {
    match name {
        "matrix.gemm.gflops"
        | "matrix.peak_gflops"
        | "matrix.gemm.flops_per_byte"
        | "sparse.spmm.flops_per_byte"
        | "core.engine.overlap_ms" => "higher",
        _ => "lower",
    }
}
