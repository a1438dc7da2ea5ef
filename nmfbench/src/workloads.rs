//! Workload definitions: which inputs each workload generates from its
//! seed, and the factorization it asks for.

use crate::stats::{Fnv, SplitMix};
use hpc_nmf::{Algo, Input};
use nmf_data::DatasetKind;
use nmf_nls::SolverKind;
use nmf_serve::{JobSource, JobSpec};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    DenseBpp,
    SparseSpmm,
    WebgraphComm,
    ServeMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DenseBpp,
        Workload::SparseSpmm,
        Workload::WebgraphComm,
        Workload::ServeMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DenseBpp => "dense-bpp",
            Workload::SparseSpmm => "sparse-spmm",
            Workload::WebgraphComm => "webgraph-comm",
            Workload::ServeMix => "serve-mix",
        }
    }

    /// Rank threads per model.
    pub fn ranks(self) -> usize {
        match self {
            Workload::ServeMix => 1,
            _ => 2,
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The factorization a user runs in this workload (`None` for
    /// `serve-mix`, whose jobs come from [`serve_pool`]).
    pub fn profile(self, seed: u64) -> Option<Profile> {
        let (kind, scale, k, solver) = match self {
            Workload::DenseBpp => (DatasetKind::Dsyn, 100, 32, SolverKind::Bpp),
            Workload::SparseSpmm => (DatasetKind::Ssyn, 20, 16, SolverKind::Hals),
            Workload::WebgraphComm => (DatasetKind::Webbase, 20, 16, SolverKind::Hals),
            Workload::ServeMix => return None,
        };
        Some(Profile {
            label: self.name().to_string(),
            input: kind.build(scale, seed).input,
            dataset: Some((kind, scale)),
            k,
            solver,
            algo: Algo::Hpc2D,
            ranks: self.ranks(),
            steps: FACTOR_STEPS,
            data_seed: seed,
            seed,
        })
    }
}

/// `Model::step` calls per timed episode of a factorization workload.
pub const FACTOR_STEPS: usize = 30;

/// One factorization request: the input and everything the session
/// builder is told.
#[derive(Clone, Debug)]
pub struct Profile {
    pub label: String,
    pub input: Input,
    /// The generated dataset this input is, if any (the serve probe
    /// names it as a `JobSource::Dataset`).
    pub dataset: Option<(DatasetKind, usize)>,
    pub k: usize,
    pub solver: SolverKind,
    pub algo: Algo,
    pub ranks: usize,
    pub steps: usize,
    /// Seed the input was generated from.
    pub data_seed: u64,
    /// Seed of the initial factors.
    pub seed: u64,
}

impl Profile {
    /// The same request as a serve job.
    pub fn job_spec(&self, source: JobSource) -> JobSpec {
        JobSpec {
            source,
            k: self.k,
            ranks: self.ranks,
            algo: self.algo,
            solver: self.solver,
            max_iters: self.steps,
            seed: self.seed,
            tol: None,
        }
    }

    /// The profile's input as a serve job source.
    pub fn job_source(&self) -> JobSource {
        match self.dataset {
            Some((kind, scale)) => JobSource::Dataset {
                kind: kind.name().to_ascii_lowercase(),
                scale,
                seed: self.data_seed,
            },
            None => match &self.input {
                Input::Dense(a) => JobSource::Dense {
                    m: a.nrows(),
                    n: a.ncols(),
                    data: a.as_slice().to_vec(),
                },
                Input::Sparse(_) => unreachable!("sparse serve jobs name a dataset"),
            },
        }
    }
}

/// `serve-mix` job parameters. Each job is a small sequential BPP
/// factorization; most name the one shared dataset, the rest carry an
/// inline dense matrix.
pub const SERVE_DATASET_SCALE: usize = 400;
pub const SERVE_INLINE_DIMS: (usize, usize) = (240, 180);
pub const SERVE_ITERS: usize = 30;
pub const SERVE_POOL: usize = 24;
/// Pool entries `0..SERVE_DATASET_SPECS` use the shared dataset.
pub const SERVE_DATASET_SPECS: usize = 18;

/// The distinct job specs `serve-mix` draws from, derived from `seed`.
pub fn serve_pool(seed: u64) -> Vec<Profile> {
    let mut rng = SplitMix::new(seed ^ 0x5E7E);
    let dataset = DatasetKind::Dsyn.build(SERVE_DATASET_SCALE, seed).input;
    (0..SERVE_POOL)
        .map(|i| {
            let k = [6, 8, 10][i % 3];
            let init_seed = rng.next_u64() % 1_000_000;
            if i < SERVE_DATASET_SPECS {
                Profile {
                    label: format!("serve-dataset-{i}"),
                    input: dataset.clone(),
                    dataset: Some((DatasetKind::Dsyn, SERVE_DATASET_SCALE)),
                    k,
                    solver: SolverKind::Bpp,
                    algo: Algo::Sequential,
                    ranks: Workload::ServeMix.ranks(),
                    steps: SERVE_ITERS,
                    data_seed: seed,
                    seed: init_seed,
                }
            } else {
                let (m, n) = SERVE_INLINE_DIMS;
                let data = (0..m * n).map(|_| rng.next_f64()).collect();
                Profile {
                    label: format!("serve-inline-{i}"),
                    input: Input::Dense(nmf_matrix::Mat::from_vec(m, n, data)),
                    dataset: None,
                    k,
                    solver: SolverKind::Bpp,
                    algo: Algo::Sequential,
                    ranks: Workload::ServeMix.ranks(),
                    steps: SERVE_ITERS,
                    data_seed: seed,
                    seed: init_seed,
                }
            }
        })
        .collect()
}

/// Digest of an input's shape, structure and values.
pub fn input_digest(input: &Input) -> u64 {
    let mut h = Fnv::default();
    h.u64(input.nrows() as u64);
    h.u64(input.ncols() as u64);
    match input {
        Input::Dense(a) => h.f64s(a.as_slice()),
        Input::Sparse(a) => {
            for &p in a.indptr() {
                h.u64(p as u64);
            }
            for &j in a.indices() {
                h.u64(j as u64);
            }
            h.f64s(a.values());
        }
    }
    h.finish()
}

/// Digest of everything a workload generates from `seed`.
pub fn workload_digest(w: Workload, seed: u64) -> u64 {
    match w.profile(seed) {
        Some(p) => profiles_digest(std::slice::from_ref(&p)),
        None => profiles_digest(&serve_pool(seed)),
    }
}

/// Digest of the inputs and requests of `profiles`.
pub fn profiles_digest(profiles: &[Profile]) -> u64 {
    let mut h = Fnv::default();
    for p in profiles {
        h.u64(input_digest(&p.input));
        h.u64(p.k as u64);
        h.u64(p.seed);
    }
    h.finish()
}
