//! The client↔server wire protocol: length-prefixed frames around a
//! hand-rolled binary encoding (the container pulls no serde, and the
//! checkpoint format already set the house style: little-endian scalars,
//! IEEE-754 `f64` bit patterns, tag bytes for enums).
//!
//! ## Framing
//!
//! ```text
//! u32 payload_len | payload
//! ```
//!
//! One frame carries exactly one [`Request`] or one [`Response`];
//! payloads start with a `u8` message tag. Frames above
//! [`MAX_FRAME_BYTES`] are rejected before allocation on both sides, so
//! a corrupt or hostile length prefix cannot OOM either end.
//!
//! ## Conversation
//!
//! The protocol is strict request/response: a client sends one request
//! frame and reads exactly one response frame before sending the next.
//! Every request names the tenant it acts for — the transport carries no
//! ambient identity — and job ids are scoped per tenant. `Shutdown` is
//! answered with `ShuttingDown` and then the server stops accepting
//! work; in-flight jobs are dropped (serving state is reconstructible:
//! durable state lives in checkpoints, not the server process).

use crate::error::{ErrorCode, ServeError};
use hpc_nmf::harness::Algo;
use hpc_nmf::Grid;
use nmf_nls::SolverKind;

/// Protocol version, checked implicitly by frame shape (bump on any
/// incompatible change and gate in [`Request::decode`]).
pub const PROTOCOL_VERSION: u32 = 1;

/// Upper bound on a frame payload (64 MiB): comfortably above any
/// factor-matrix response this repo serves, far below an allocation that
/// could hurt the process.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Where a submitted job's input matrix comes from.
#[derive(Clone, Debug, PartialEq)]
pub enum JobSource {
    /// A generated dataset by name (`dsyn | ssyn | video | webbase`),
    /// with the paper dimensions divided by `scale`.
    Dataset {
        kind: String,
        scale: usize,
        seed: u64,
    },
    /// An inline dense matrix, row-major.
    Dense { m: usize, n: usize, data: Vec<f64> },
    /// A server-side NMFS sparse matrix file, memory-mapped at build
    /// time (see `nmf_sparse::io`). The path is interpreted on the
    /// server's filesystem.
    File { path: String },
}

impl JobSource {
    /// The input shape this source will produce (mirrors
    /// `DatasetKind::build`'s scaling, floor 8). `None` when the shape
    /// is only known server-side (`File` sources carry it in the NMFS
    /// header, read at admission).
    pub fn shape(&self) -> Option<(usize, usize)> {
        match self {
            JobSource::Dense { m, n, .. } => Some((*m, *n)),
            JobSource::File { .. } => None,
            JobSource::Dataset { kind, scale, .. } => {
                let (pm, pn) = match kind.as_str() {
                    "dsyn" | "ssyn" => (172_800, 115_200),
                    "video" => (1_013_400, 2_400),
                    "webbase" => (1_000_005, 1_000_005),
                    _ => return None,
                };
                let s = (*scale).max(1);
                Some(((pm / s).max(8), (pn / s).max(8)))
            }
        }
    }
}

/// Everything the server needs to build one tenant job's [`Model`]
/// (validation happens server-side at build time, through the session
/// builder).
///
/// [`Model`]: hpc_nmf::Model
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    pub source: JobSource,
    pub k: usize,
    pub ranks: usize,
    pub algo: Algo,
    pub solver: SolverKind,
    pub max_iters: usize,
    pub seed: u64,
    pub tol: Option<f64>,
}

impl JobSpec {
    /// The resident-factor-byte footprint this job will hold once built:
    /// `8·(m+n)·k` (the admission-control currency, matching
    /// `Model::factor_bytes`). `None` if the source names an unknown
    /// dataset — admission rejects those as a build failure later.
    pub fn projected_factor_bytes(&self) -> Option<usize> {
        let (m, n) = self.source.shape()?;
        Some(8 * (m + n) * self.k)
    }
}

/// The lifecycle phase of a job, as reported by `Status`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobPhase {
    /// Admitted, waiting for a concurrency slot (no model yet).
    Queued,
    /// Built and eligible for scheduling quanta.
    Running,
    /// Ran to its stop condition; factors remain resident until the job
    /// is cancelled (released).
    Finished,
    /// Cancelled by the tenant; all state released.
    Cancelled,
    /// The deferred model build failed (see `error`).
    Failed,
}

impl JobPhase {
    pub fn as_str(self) -> &'static str {
        match self {
            JobPhase::Queued => "queued",
            JobPhase::Running => "running",
            JobPhase::Finished => "finished",
            JobPhase::Cancelled => "cancelled",
            JobPhase::Failed => "failed",
        }
    }
}

/// A job's externally visible state.
#[derive(Clone, Debug, PartialEq)]
pub struct JobStatus {
    pub job: u64,
    pub phase: JobPhase,
    /// Engine iterations completed.
    pub iterations: u64,
    /// The iteration cap the job was submitted with.
    pub max_iters: u64,
    /// Objective after the latest iteration (`NaN` before the first).
    pub objective: f64,
    /// Relative error after the latest iteration (`NaN` before the first).
    pub rel_error: f64,
    /// Stop-reason token once finished (`max_iters`, `converged`, …).
    pub stop: Option<String>,
    /// Build-failure message for [`JobPhase::Failed`].
    pub error: Option<String>,
    /// Factor bytes this job holds resident.
    pub resident_bytes: u64,
}

/// Per-tenant accounting, for dashboards and fairness checks.
#[derive(Clone, Debug, PartialEq)]
pub struct TenantReport {
    pub tenant: String,
    pub steps_completed: u64,
    pub jobs_submitted: u64,
    pub jobs_finished: u64,
    pub active_jobs: u64,
    pub queued_jobs: u64,
    pub resident_bytes: u64,
    /// Resident bytes of the server's shared dataset cache. Shared
    /// inputs are charged once per *dataset*, not once per tenant, so
    /// every tenant sees the same (deduplicated) figure — two tenants
    /// over one dataset do not double it.
    pub shared_input_bytes: u64,
}

/// Client → server messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Request {
    /// Admit a new job for `tenant` (auto-registering the tenant with
    /// the server's default quota on first contact).
    Submit { tenant: String, spec: JobSpec },
    /// Report a job's phase and progress.
    Status { tenant: String, job: u64 },
    /// Fetch the job's current factors `(W, H)` — valid mid-run.
    Factors { tenant: String, job: u64 },
    /// Cancel a queued/running job, or release a finished one (frees its
    /// quota bytes and concurrency slot).
    Cancel { tenant: String, job: u64 },
    /// Write a durable checkpoint of the job to a server-side path.
    Checkpoint {
        tenant: String,
        job: u64,
        path: String,
    },
    /// Per-tenant accounting counters.
    TenantStats { tenant: String },
    /// Stop the server loop after answering.
    Shutdown,
    /// Admit a job that continues from a server-side checkpoint file
    /// instead of a fresh random init. The server reads the checkpoint
    /// header for admission (shape, k) and regrids the stored factors
    /// onto whatever rank count / algorithm it assigns — the overrides
    /// below are requests, clamped to server policy, not demands.
    Resume {
        tenant: String,
        /// Server-side checkpoint path (written by `Checkpoint`).
        ckpt: String,
        /// The data matrix to resume against.
        source: JobSource,
        /// Target rank count; `None` lets the server pick (recorded
        /// count, clamped to its per-job rank cap).
        ranks: Option<usize>,
        /// Target algorithm; `None` replays the recorded one (degraded
        /// to `Hpc2D` if the rank count changed under a pinned grid).
        algo: Option<Algo>,
        /// Fresh iteration budget; `None` keeps the recorded cap.
        max_iters: Option<usize>,
    },
}

/// Server → client messages.
#[derive(Clone, Debug, PartialEq)]
pub enum Response {
    /// The job was admitted. `queued` says whether it must wait for a
    /// concurrency slot before building.
    Submitted {
        job: u64,
        queued: bool,
    },
    Status(JobStatus),
    /// Row-major factors: `W` is `m×k`, `H` is `k×n`.
    Factors {
        wm: u64,
        wk: u64,
        w: Vec<f64>,
        hk: u64,
        hn: u64,
        h: Vec<f64>,
    },
    Cancelled {
        job: u64,
    },
    Checkpointed {
        job: u64,
        path: String,
    },
    TenantStats(TenantReport),
    ShuttingDown,
    /// Any failure, as a stable code plus rendered message.
    Error {
        code: ErrorCode,
        message: String,
    },
}

/* ---- message tags ---- */

const REQ_SUBMIT: u8 = 1;
const REQ_STATUS: u8 = 2;
const REQ_FACTORS: u8 = 3;
const REQ_CANCEL: u8 = 4;
const REQ_CHECKPOINT: u8 = 5;
const REQ_TENANT_STATS: u8 = 6;
const REQ_SHUTDOWN: u8 = 7;
const REQ_RESUME: u8 = 8;

const RESP_SUBMITTED: u8 = 1;
const RESP_STATUS: u8 = 2;
const RESP_FACTORS: u8 = 3;
const RESP_CANCELLED: u8 = 4;
const RESP_CHECKPOINTED: u8 = 5;
const RESP_TENANT_STATS: u8 = 6;
const RESP_SHUTTING_DOWN: u8 = 7;
const RESP_ERROR: u8 = 8;

/* ---- encoding ---- */

fn put_u32(out: &mut Vec<u8>, x: u32) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, x: u64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_f64(out: &mut Vec<u8>, x: f64) {
    out.extend_from_slice(&x.to_le_bytes());
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

fn put_opt_str(out: &mut Vec<u8>, s: &Option<String>) {
    match s {
        None => out.push(0),
        Some(s) => {
            out.push(1);
            put_str(out, s);
        }
    }
}

fn put_f64s(out: &mut Vec<u8>, xs: &[f64]) {
    put_u64(out, xs.len() as u64);
    for &x in xs {
        put_f64(out, x);
    }
}

fn put_algo(out: &mut Vec<u8>, algo: Algo) {
    match algo {
        Algo::Sequential => {
            out.push(0);
            put_u64(out, 0);
            put_u64(out, 0);
        }
        Algo::Naive => {
            out.push(1);
            put_u64(out, 0);
            put_u64(out, 0);
        }
        Algo::Hpc1D => {
            out.push(2);
            put_u64(out, 0);
            put_u64(out, 0);
        }
        Algo::Hpc2D => {
            out.push(3);
            put_u64(out, 0);
            put_u64(out, 0);
        }
        Algo::HpcGrid(g) => {
            out.push(4);
            put_u64(out, g.pr as u64);
            put_u64(out, g.pc as u64);
        }
    }
}

fn put_source(out: &mut Vec<u8>, source: &JobSource) {
    match source {
        JobSource::Dataset { kind, scale, seed } => {
            out.push(0);
            put_str(out, kind);
            put_u64(out, *scale as u64);
            put_u64(out, *seed);
        }
        JobSource::Dense { m, n, data } => {
            out.push(1);
            put_u64(out, *m as u64);
            put_u64(out, *n as u64);
            put_f64s(out, data);
        }
        JobSource::File { path } => {
            out.push(2);
            put_str(out, path);
        }
    }
}

fn put_opt_u64(out: &mut Vec<u8>, x: Option<u64>) {
    match x {
        None => out.push(0),
        Some(x) => {
            out.push(1);
            put_u64(out, x);
        }
    }
}

fn put_spec(out: &mut Vec<u8>, spec: &JobSpec) {
    put_source(out, &spec.source);
    put_u64(out, spec.k as u64);
    put_u64(out, spec.ranks as u64);
    put_algo(out, spec.algo);
    out.push(match spec.solver {
        SolverKind::Bpp => 0,
        SolverKind::Mu => 1,
        SolverKind::Hals => 2,
    });
    put_u64(out, spec.max_iters as u64);
    put_u64(out, spec.seed);
    match spec.tol {
        None => out.push(0),
        Some(t) => {
            out.push(1);
            put_f64(out, t);
        }
    }
}

/* ---- decoding ---- */

struct Wire<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Wire<'a> {
    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], ServeError> {
        if n > self.remaining() {
            return Err(ServeError::BadFrame {
                reason: format!(
                    "truncated: needed {n} bytes at offset {}, frame has {}",
                    self.pos,
                    self.bytes.len()
                ),
            });
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, ServeError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, ServeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, ServeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn f64(&mut self) -> Result<f64, ServeError> {
        Ok(f64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn string(&mut self) -> Result<String, ServeError> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?;
        String::from_utf8(raw.to_vec()).map_err(|_| ServeError::BadFrame {
            reason: "string field is not UTF-8".into(),
        })
    }

    fn opt_string(&mut self) -> Result<Option<String>, ServeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.string()?)),
            t => Err(ServeError::BadFrame {
                reason: format!("unknown option flag {t}"),
            }),
        }
    }

    fn f64s(&mut self) -> Result<Vec<f64>, ServeError> {
        let len = self.u64()? as usize;
        if len > self.remaining() / 8 {
            return Err(ServeError::BadFrame {
                reason: format!(
                    "float array claims {len} values but only {} bytes remain",
                    self.remaining()
                ),
            });
        }
        let raw = self.take(8 * len)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("8")))
            .collect())
    }

    fn algo(&mut self) -> Result<Algo, ServeError> {
        let tag = self.u8()?;
        let pr = self.u64()? as usize;
        let pc = self.u64()? as usize;
        Ok(match tag {
            0 => Algo::Sequential,
            1 => Algo::Naive,
            2 => Algo::Hpc1D,
            3 => Algo::Hpc2D,
            4 => {
                if pr == 0 || pc == 0 {
                    return Err(ServeError::BadFrame {
                        reason: format!("invalid grid {pr}x{pc}"),
                    });
                }
                Algo::HpcGrid(Grid::new(pr, pc))
            }
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown algo tag {t}"),
                })
            }
        })
    }

    fn source(&mut self) -> Result<JobSource, ServeError> {
        Ok(match self.u8()? {
            0 => JobSource::Dataset {
                kind: self.string()?,
                scale: self.u64()? as usize,
                seed: self.u64()?,
            },
            1 => {
                let m = self.u64()? as usize;
                let n = self.u64()? as usize;
                let data = self.f64s()?;
                if data.len() != m * n {
                    return Err(ServeError::BadFrame {
                        reason: format!(
                            "dense source claims {m}x{n} but carries {} values",
                            data.len()
                        ),
                    });
                }
                JobSource::Dense { m, n, data }
            }
            2 => JobSource::File {
                path: self.string()?,
            },
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown job-source tag {t}"),
                })
            }
        })
    }

    fn opt_u64(&mut self) -> Result<Option<u64>, ServeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            t => Err(ServeError::BadFrame {
                reason: format!("unknown option flag {t}"),
            }),
        }
    }

    fn opt_algo(&mut self) -> Result<Option<Algo>, ServeError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.algo()?)),
            t => Err(ServeError::BadFrame {
                reason: format!("unknown option flag {t}"),
            }),
        }
    }

    fn spec(&mut self) -> Result<JobSpec, ServeError> {
        let source = self.source()?;
        let k = self.u64()? as usize;
        let ranks = self.u64()? as usize;
        let algo = self.algo()?;
        let solver = match self.u8()? {
            0 => SolverKind::Bpp,
            1 => SolverKind::Mu,
            2 => SolverKind::Hals,
            // 3 was a retired active-set solver; it is rejected, never reused.
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown solver tag {t}"),
                })
            }
        };
        let max_iters = self.u64()? as usize;
        let seed = self.u64()?;
        let tol = match self.u8()? {
            0 => None,
            1 => Some(self.f64()?),
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown tol flag {t}"),
                })
            }
        };
        Ok(JobSpec {
            source,
            k,
            ranks,
            algo,
            solver,
            max_iters,
            seed,
            tol,
        })
    }

    fn done(&self) -> Result<(), ServeError> {
        if self.pos != self.bytes.len() {
            return Err(ServeError::BadFrame {
                reason: format!(
                    "{} trailing bytes after the message",
                    self.bytes.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

impl Request {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Request::Submit { tenant, spec } => {
                out.push(REQ_SUBMIT);
                put_str(&mut out, tenant);
                put_spec(&mut out, spec);
            }
            Request::Status { tenant, job } => {
                out.push(REQ_STATUS);
                put_str(&mut out, tenant);
                put_u64(&mut out, *job);
            }
            Request::Factors { tenant, job } => {
                out.push(REQ_FACTORS);
                put_str(&mut out, tenant);
                put_u64(&mut out, *job);
            }
            Request::Cancel { tenant, job } => {
                out.push(REQ_CANCEL);
                put_str(&mut out, tenant);
                put_u64(&mut out, *job);
            }
            Request::Checkpoint { tenant, job, path } => {
                out.push(REQ_CHECKPOINT);
                put_str(&mut out, tenant);
                put_u64(&mut out, *job);
                put_str(&mut out, path);
            }
            Request::TenantStats { tenant } => {
                out.push(REQ_TENANT_STATS);
                put_str(&mut out, tenant);
            }
            Request::Shutdown => out.push(REQ_SHUTDOWN),
            Request::Resume {
                tenant,
                ckpt,
                source,
                ranks,
                algo,
                max_iters,
            } => {
                out.push(REQ_RESUME);
                put_str(&mut out, tenant);
                put_str(&mut out, ckpt);
                put_source(&mut out, source);
                put_opt_u64(&mut out, ranks.map(|r| r as u64));
                match algo {
                    None => out.push(0),
                    Some(a) => {
                        out.push(1);
                        put_algo(&mut out, *a);
                    }
                }
                put_opt_u64(&mut out, max_iters.map(|r| r as u64));
            }
        }
        out
    }

    pub fn decode(frame: &[u8]) -> Result<Request, ServeError> {
        let mut w = Wire {
            bytes: frame,
            pos: 0,
        };
        let req = match w.u8()? {
            REQ_SUBMIT => Request::Submit {
                tenant: w.string()?,
                spec: w.spec()?,
            },
            REQ_STATUS => Request::Status {
                tenant: w.string()?,
                job: w.u64()?,
            },
            REQ_FACTORS => Request::Factors {
                tenant: w.string()?,
                job: w.u64()?,
            },
            REQ_CANCEL => Request::Cancel {
                tenant: w.string()?,
                job: w.u64()?,
            },
            REQ_CHECKPOINT => Request::Checkpoint {
                tenant: w.string()?,
                job: w.u64()?,
                path: w.string()?,
            },
            REQ_TENANT_STATS => Request::TenantStats {
                tenant: w.string()?,
            },
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_RESUME => Request::Resume {
                tenant: w.string()?,
                ckpt: w.string()?,
                source: w.source()?,
                ranks: w.opt_u64()?.map(|r| r as usize),
                algo: w.opt_algo()?,
                max_iters: w.opt_u64()?.map(|r| r as usize),
            },
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown request tag {t}"),
                })
            }
        };
        w.done()?;
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        match self {
            Response::Submitted { job, queued } => {
                out.push(RESP_SUBMITTED);
                put_u64(&mut out, *job);
                out.push(u8::from(*queued));
            }
            Response::Status(st) => {
                out.push(RESP_STATUS);
                put_u64(&mut out, st.job);
                out.push(match st.phase {
                    JobPhase::Queued => 0,
                    JobPhase::Running => 1,
                    JobPhase::Finished => 2,
                    JobPhase::Cancelled => 3,
                    JobPhase::Failed => 4,
                });
                put_u64(&mut out, st.iterations);
                put_u64(&mut out, st.max_iters);
                put_f64(&mut out, st.objective);
                put_f64(&mut out, st.rel_error);
                put_opt_str(&mut out, &st.stop);
                put_opt_str(&mut out, &st.error);
                put_u64(&mut out, st.resident_bytes);
            }
            Response::Factors {
                wm,
                wk,
                w,
                hk,
                hn,
                h,
            } => {
                out.push(RESP_FACTORS);
                put_u64(&mut out, *wm);
                put_u64(&mut out, *wk);
                put_f64s(&mut out, w);
                put_u64(&mut out, *hk);
                put_u64(&mut out, *hn);
                put_f64s(&mut out, h);
            }
            Response::Cancelled { job } => {
                out.push(RESP_CANCELLED);
                put_u64(&mut out, *job);
            }
            Response::Checkpointed { job, path } => {
                out.push(RESP_CHECKPOINTED);
                put_u64(&mut out, *job);
                put_str(&mut out, path);
            }
            Response::TenantStats(t) => {
                out.push(RESP_TENANT_STATS);
                put_str(&mut out, &t.tenant);
                put_u64(&mut out, t.steps_completed);
                put_u64(&mut out, t.jobs_submitted);
                put_u64(&mut out, t.jobs_finished);
                put_u64(&mut out, t.active_jobs);
                put_u64(&mut out, t.queued_jobs);
                put_u64(&mut out, t.resident_bytes);
                put_u64(&mut out, t.shared_input_bytes);
            }
            Response::ShuttingDown => out.push(RESP_SHUTTING_DOWN),
            Response::Error { code, message } => {
                out.push(RESP_ERROR);
                put_u32(&mut out, *code as u32);
                put_str(&mut out, message);
            }
        }
        out
    }

    pub fn decode(frame: &[u8]) -> Result<Response, ServeError> {
        let mut w = Wire {
            bytes: frame,
            pos: 0,
        };
        let resp = match w.u8()? {
            RESP_SUBMITTED => Response::Submitted {
                job: w.u64()?,
                queued: w.u8()? != 0,
            },
            RESP_STATUS => Response::Status(JobStatus {
                job: w.u64()?,
                phase: match w.u8()? {
                    0 => JobPhase::Queued,
                    1 => JobPhase::Running,
                    2 => JobPhase::Finished,
                    3 => JobPhase::Cancelled,
                    4 => JobPhase::Failed,
                    t => {
                        return Err(ServeError::BadFrame {
                            reason: format!("unknown phase tag {t}"),
                        })
                    }
                },
                iterations: w.u64()?,
                max_iters: w.u64()?,
                objective: w.f64()?,
                rel_error: w.f64()?,
                stop: w.opt_string()?,
                error: w.opt_string()?,
                resident_bytes: w.u64()?,
            }),
            RESP_FACTORS => Response::Factors {
                wm: w.u64()?,
                wk: w.u64()?,
                w: w.f64s()?,
                hk: w.u64()?,
                hn: w.u64()?,
                h: w.f64s()?,
            },
            RESP_CANCELLED => Response::Cancelled { job: w.u64()? },
            RESP_CHECKPOINTED => Response::Checkpointed {
                job: w.u64()?,
                path: w.string()?,
            },
            RESP_TENANT_STATS => Response::TenantStats(TenantReport {
                tenant: w.string()?,
                steps_completed: w.u64()?,
                jobs_submitted: w.u64()?,
                jobs_finished: w.u64()?,
                active_jobs: w.u64()?,
                queued_jobs: w.u64()?,
                resident_bytes: w.u64()?,
                shared_input_bytes: w.u64()?,
            }),
            RESP_SHUTTING_DOWN => Response::ShuttingDown,
            RESP_ERROR => {
                let code = w.u32()?;
                let message = w.string()?;
                Response::Error {
                    code: ErrorCode::from_u32(code).ok_or_else(|| ServeError::BadFrame {
                        reason: format!("unknown error code {code}"),
                    })?,
                    message,
                }
            }
            t => {
                return Err(ServeError::BadFrame {
                    reason: format!("unknown response tag {t}"),
                })
            }
        };
        w.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs() -> Vec<JobSpec> {
        vec![
            JobSpec {
                source: JobSource::Dataset {
                    kind: "ssyn".into(),
                    scale: 400,
                    seed: 7,
                },
                k: 8,
                ranks: 4,
                algo: Algo::Hpc2D,
                solver: SolverKind::Bpp,
                max_iters: 20,
                seed: 42,
                tol: Some(1e-4),
            },
            JobSpec {
                source: JobSource::Dense {
                    m: 2,
                    n: 3,
                    data: vec![1.0, 0.0, 2.5, 3.0, 4.0, 5.0],
                },
                k: 2,
                ranks: 1,
                algo: Algo::Sequential,
                solver: SolverKind::Hals,
                max_iters: 5,
                seed: 1,
                tol: None,
            },
            JobSpec {
                source: JobSource::Dense {
                    m: 1,
                    n: 1,
                    data: vec![9.0],
                },
                k: 1,
                ranks: 6,
                algo: Algo::HpcGrid(Grid::new(2, 3)),
                solver: SolverKind::Mu,
                max_iters: 1,
                seed: 0,
                tol: None,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        let mut reqs = vec![
            Request::Status {
                tenant: "acme".into(),
                job: 3,
            },
            Request::Factors {
                tenant: "acme".into(),
                job: 9,
            },
            Request::Cancel {
                tenant: "β-tenant".into(),
                job: u64::MAX,
            },
            Request::Checkpoint {
                tenant: "t".into(),
                job: 0,
                path: "/tmp/x.ckpt".into(),
            },
            Request::TenantStats { tenant: "".into() },
            Request::Shutdown,
        ];
        for spec in specs() {
            reqs.push(Request::Submit {
                tenant: "acme".into(),
                spec,
            });
        }
        reqs.push(Request::Submit {
            tenant: "acme".into(),
            spec: JobSpec {
                source: JobSource::File {
                    path: "/data/webbase.nmfs".into(),
                },
                k: 4,
                ranks: 8,
                algo: Algo::Hpc2D,
                solver: SolverKind::Bpp,
                max_iters: 50,
                seed: 3,
                tol: None,
            },
        });
        reqs.push(Request::Resume {
            tenant: "acme".into(),
            ckpt: "/tmp/j1.ckpt".into(),
            source: JobSource::File {
                path: "/data/a.nmfs".into(),
            },
            ranks: Some(2),
            algo: Some(Algo::HpcGrid(Grid::new(2, 1))),
            max_iters: Some(40),
        });
        reqs.push(Request::Resume {
            tenant: "acme".into(),
            ckpt: "ckpt/only.ckpt".into(),
            source: JobSource::Dataset {
                kind: "ssyn".into(),
                scale: 400,
                seed: 7,
            },
            ranks: None,
            algo: None,
            max_iters: None,
        });
        for req in reqs {
            let bytes = req.encode();
            let back = Request::decode(&bytes).expect("decodes");
            assert_eq!(back, req);
        }
    }

    #[test]
    fn responses_round_trip() {
        let resps = vec![
            Response::Submitted {
                job: 5,
                queued: true,
            },
            Response::Status(JobStatus {
                job: 5,
                phase: JobPhase::Running,
                iterations: 7,
                max_iters: 20,
                objective: 123.5,
                rel_error: 0.25,
                stop: None,
                error: None,
                resident_bytes: 4096,
            }),
            Response::Status(JobStatus {
                job: 6,
                phase: JobPhase::Failed,
                iterations: 0,
                max_iters: 20,
                objective: f64::NAN,
                rel_error: f64::NAN,
                stop: None,
                error: Some("rank k=99 is outside the valid range".into()),
                resident_bytes: 0,
            }),
            Response::Factors {
                wm: 2,
                wk: 2,
                w: vec![1.0, 2.0, 3.0, 4.0],
                hk: 2,
                hn: 1,
                h: vec![5.0, 6.0],
            },
            Response::Cancelled { job: 1 },
            Response::Checkpointed {
                job: 2,
                path: "/tmp/j2.ckpt".into(),
            },
            Response::TenantStats(TenantReport {
                tenant: "acme".into(),
                steps_completed: 100,
                jobs_submitted: 4,
                jobs_finished: 2,
                active_jobs: 1,
                queued_jobs: 1,
                resident_bytes: 1 << 20,
                shared_input_bytes: 3 << 20,
            }),
            Response::ShuttingDown,
            Response::Error {
                code: ErrorCode::QuotaBytes,
                message: "over quota".into(),
            },
        ];
        for resp in resps {
            let bytes = resp.encode();
            let back = Response::decode(&bytes).expect("decodes");
            match (&back, &resp) {
                // NaN != NaN; compare Failed statuses structurally.
                (Response::Status(a), Response::Status(b)) if a.objective.is_nan() => {
                    assert!(b.objective.is_nan());
                    assert_eq!(a.phase, b.phase);
                    assert_eq!(a.error, b.error);
                }
                _ => assert_eq!(back, resp),
            }
        }
    }

    #[test]
    fn truncated_and_trailing_frames_are_rejected() {
        let bytes = Request::Status {
            tenant: "acme".into(),
            job: 3,
        }
        .encode();
        for cut in 0..bytes.len() {
            assert!(
                Request::decode(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        let mut extra = bytes.clone();
        extra.push(0);
        assert!(Request::decode(&extra).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn absurd_float_array_is_rejected_before_allocation() {
        // A dense submit whose array length field claims 2^60 values.
        let mut out = Vec::new();
        out.push(super::REQ_SUBMIT);
        put_str(&mut out, "t");
        out.push(1); // dense source
        put_u64(&mut out, 4);
        put_u64(&mut out, 4);
        put_u64(&mut out, 1 << 60); // array length
        let err = Request::decode(&out).expect_err("rejected");
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err}");
    }

    #[test]
    fn projected_bytes_match_model_accounting() {
        let spec = &specs()[1]; // 2x3 dense, k=2
        assert_eq!(spec.projected_factor_bytes(), Some(8 * (2 + 3) * 2));
        let ds = &specs()[0]; // ssyn at scale 400: 432x288
        assert_eq!(
            ds.projected_factor_bytes(),
            Some(8 * (172_800 / 400 + 115_200 / 400) * 8)
        );
    }
}
