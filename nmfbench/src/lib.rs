//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics and how to run it.

pub mod factor;
pub mod host;
pub mod layers;
pub mod reference;
pub mod report;
pub mod runner;
pub mod serve;
pub mod stats;
pub mod trace;
pub mod workloads;
