//! Command line of the repository benchmark.
//!
//! ```sh
//! cargo run --release --manifest-path nmfbench/Cargo.toml -- \
//!     --workload dense-bpp --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path nmfbench/Cargo.toml -- --workload all --short
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it
//! carries the host facts, sample counts and value sources. The exit
//! code is nonzero when any correctness check fails.

use nmfbench::report::Report;
use nmfbench::runner::{run, RunArgs};
use nmfbench::workloads::Workload;
use std::process::ExitCode;

const USAGE: &str = "usage: nmfbench --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--short]";

struct Cli {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: f64,
    trace: Vec<bool>,
    short: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workloads = None;
    let mut seed = 1;
    let mut seconds = 20.0;
    let mut trace = None;
    let mut short = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workloads = Some(if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![Workload::parse(v).ok_or_else(|| {
                        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                        format!("unknown workload {v}; one of {} or all", names.join(", "))
                    })?]
                });
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err("--seconds must be in (0, 120]".into());
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--short" => short = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workloads = workloads.ok_or("--workload is required")?;
    // A single workload runs in the mode asked for; `all` runs each
    // workload untraced and then traced unless a mode is named.
    let trace = match trace {
        Some(t) => vec![t],
        None if workloads.len() > 1 => vec![false, true],
        None => vec![false],
    };
    Ok(Cli {
        workloads,
        seed,
        seconds,
        trace,
        short,
    })
}

extern "C" {
    /// glibc's allocator tuning call.
    fn mallopt(param: i32, value: i32) -> i32;
}

/// `M_ARENA_MAX` in glibc's `malloc.h`.
const M_ARENA_MAX: i32 = -8;

fn main() -> ExitCode {
    // One malloc arena, as the repository's out-of-core CI job sets with
    // `MALLOC_ARENA_MAX=1`: with per-thread arenas the peak resident set
    // depends on thread timing, and `peak_rss_mb` would not repeat.
    // SAFETY: `mallopt` only adjusts allocator parameters; it is called
    // before any thread exists, as glibc requires for `M_ARENA_MAX`.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let single = cli.workloads.len() * cli.trace.len() == 1;
    let mut total = Report::default();
    for &workload in &cli.workloads {
        for &trace in &cli.trace {
            let outcome = run(&RunArgs {
                workload,
                seed: cli.seed,
                seconds: cli.seconds,
                trace,
                short: cli.short,
            });
            let r = outcome.report;
            if let Some(path) = &outcome.trace_file {
                eprintln!("trace written to {}", path.display());
            }
            for f in &r.failures {
                eprintln!("FAILED [{}]: {f}", workload.name());
            }
            println!(
                "{}",
                r.detail_json(workload.name(), cli.seed, trace, &outcome.host)
            );
            if single {
                println!("{}", r.result_json());
                return exit_code(&r);
            }
            // Several runs: print each result, then the overall tally
            // (its metrics are in the lines above).
            println!("{}", r.result_json());
            total.absorb_tally(r);
        }
    }
    println!("{}", total.result_json());
    exit_code(&total)
}

fn exit_code(r: &Report) -> ExitCode {
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
