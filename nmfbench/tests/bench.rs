//! The benchmark's own tests: determinism of its inputs, the metric
//! registry, `BENCHMARK.json`, and a short run of every workload.

use nmfbench::report::{benchmark_json, Tier, METRICS, WORKLOADS};
use nmfbench::runner::{run, RunArgs};
use nmfbench::workloads::{workload_digest, Workload};

/// Seconds one measured run lasts, as `BENCHMARK.json` states it.
const RUN_SECONDS: u32 = 20;

#[test]
fn one_seed_always_gives_the_same_inputs() {
    for w in Workload::ALL {
        assert_eq!(workload_digest(w, 7), workload_digest(w, 7), "{}", w.name());
        assert_ne!(workload_digest(w, 7), workload_digest(w, 8), "{}", w.name());
    }
}

#[test]
fn metric_names_are_well_formed_and_carry_units() {
    let mut seen = std::collections::HashSet::new();
    for m in METRICS {
        assert!(
            !m.name.is_empty()
                && m.name.len() <= 64
                && m.name.chars().next().unwrap().is_ascii_alphanumeric()
                && m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "bad metric name {:?}",
            m.name
        );
        assert!(
            !m.unit.is_empty()
                && m.unit.len() <= 16
                && m.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "metric {} has bad unit {:?}",
            m.name,
            m.unit
        );
        assert!(seen.insert(m.name), "metric {} declared twice", m.name);
        if m.tier == Tier::EndToEnd {
            assert!(
                m.bound > 0.0 && m.bound <= 0.25,
                "{} bound {}",
                m.name,
                m.bound
            );
        }
    }
    assert!(METRICS.iter().any(|m| m.name == "setup_s" && m.unit == "s"));
    for (name, why) in WORKLOADS {
        assert!(Workload::parse(name).is_some(), "{name} is not a workload");
        assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
    }
}

#[test]
fn benchmark_json_matches_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let expected = benchmark_json(RUN_SECONDS);
    let actual = std::fs::read_to_string(path).unwrap_or_default();
    assert!(
        actual == expected,
        "BENCHMARK.json is out of date; it should read:\n{expected}"
    );
}

/// The short mode: every workload once, untraced and traced, with every
/// correctness check and every metric of its tier.
#[test]
fn short_mode_runs_every_workload() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let outcome = run(&RunArgs {
                workload,
                seed: 3,
                seconds: 1.0,
                trace,
                short: true,
            });
            let r = &outcome.report;
            assert!(
                r.correct(),
                "{} (trace {trace}) failed: {:?}",
                workload.name(),
                r.failures
            );
            let tier = if trace { Tier::Layer } else { Tier::EndToEnd };
            let expected = METRICS.iter().filter(|m| m.tier == tier).count();
            assert_eq!(r.values.len(), expected, "{}", workload.name());
            assert_eq!(trace, outcome.trace_file.is_some());
        }
    }
}
