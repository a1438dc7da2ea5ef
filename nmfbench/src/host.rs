//! Host facts recorded with every result. Results whose host facts
//! differ must not be compared.

use std::path::Path;

#[derive(Clone, Debug)]
pub struct HostFacts {
    pub nproc: usize,
    pub cpu_model: String,
    pub simd: &'static str,
    pub llc_bytes: Option<usize>,
    /// Rank threads the workload runs per available core.
    pub ranks_per_core: f64,
    pub git_commit: String,
}

impl HostFacts {
    pub fn probe(ranks: usize) -> HostFacts {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        HostFacts {
            nproc,
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".into()),
            simd: nmf_matrix::simd::active_name(),
            llc_bytes: llc_bytes(),
            ranks_per_core: ranks as f64 / nproc as f64,
            git_commit: git_commit(Path::new(".")).unwrap_or_else(|| "unknown".into()),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"cpu_model\": {}, \"simd\": {}, \"llc_bytes\": {}, \
             \"ranks_per_core\": {:?}, \"git_commit\": {}}}",
            self.nproc,
            json_str(&self.cpu_model),
            json_str(self.simd),
            self.llc_bytes
                .map_or_else(|| "null".to_string(), |b| b.to_string()),
            self.ranks_per_core,
            json_str(&self.git_commit),
        )
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|s| s.trim().to_string())
}

/// The largest cache level sysfs reports for cpu0 — the same probe the
/// sparse layer uses to route `AᵀW` between its CSR and CSC kernels.
fn llc_bytes() -> Option<usize> {
    ["index3", "index2"].iter().find_map(|index| {
        let path = format!("/sys/devices/system/cpu/cpu0/cache/{index}/size");
        let text = std::fs::read_to_string(path).ok()?;
        let text = text.trim();
        let (digits, mult) = match text.as_bytes().last() {
            Some(b'K') => (&text[..text.len() - 1], 1usize << 10),
            Some(b'M') => (&text[..text.len() - 1], 1 << 20),
            _ => (text, 1),
        };
        digits.parse::<usize>().ok().map(|v| v * mult)
    })
}

/// The checked-out commit, read from `.git` without running git (a
/// plain source tree has no `.git` and reports `None`).
fn git_commit(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = text
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Quantile of the episodes' steal shares at or below which an episode
/// is timed. Steal — CPU time the hypervisor gives to other virtual
/// machines — moved whole runs by 20–50% on the two-vCPU reference
/// host; timing the quieter half keeps the benchmark about the program
/// rather than its neighbours.
pub const QUIET_SHARE: f64 = 0.5;

/// `(stolen, total)` CPU clock ticks since boot, from `/proc/stat`.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let text = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = text
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Share of CPU time stolen since `start` (0 when `/proc/stat` is
/// unreadable or no tick has passed).
pub fn steal_since(start: Option<(u64, u64)>) -> f64 {
    match (start, cpu_ticks()) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
        _ => 0.0,
    }
}
