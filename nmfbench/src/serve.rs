//! The serving workload: an `nmf_serve` server over a Unix socket, fed
//! by an open-loop, seeded job schedule from several tenants
//! multiplexed over a few client connections.
//!
//! Open loop: each job is submitted when it is due, whatever the server
//! is doing, and its turnaround is timed from that due time, so a
//! stalled server shows up in every job queued behind the stall.

use crate::factor::bit_identical;
use crate::report::Report;
use crate::stats::SplitMix;
use crate::trace::Tracer;
use crate::workloads::Profile;
use nmf_matrix::Mat;
use nmf_serve::prelude::*;
use nmf_serve::{ErrorCode, JobSource};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Client connections; tenants are spread over them round robin.
const CONNECTIONS: usize = 2;
/// Fewest jobs a load schedules, however short its window.
const MIN_JOBS: usize = 4;
/// How long after the last arrival every job must have been fetched.
const DRAIN: Duration = Duration::from_secs(30);

/// One load: who submits what, when, and how long to wait for it.
pub struct LoadPlan {
    /// The job specs jobs are drawn from, with each one's in-process
    /// reference factors.
    pub pool: Vec<(Profile, JobSource, (Mat, Mat))>,
    /// Arrivals per second.
    pub rate: f64,
    /// Arrivals are due within `[0, window)`, and at least
    /// `MIN_JOBS` of them; jobs not fetched `DRAIN` after the window
    /// count as failed.
    pub window: Duration,
    pub tenants: usize,
    /// Every `checkpoint_every`-th job is checkpointed mid-run,
    /// cancelled and resumed from the file.
    pub checkpoint_every: usize,
    pub seed: u64,
    /// Directory (inside the working tree) for the socket and
    /// checkpoint files.
    pub dir: PathBuf,
    /// Server starts to time before the measured load.
    pub setup_probes: usize,
}

#[derive(Clone, Copy, Debug)]
struct Arrival {
    index: usize,
    due: f64,
    tenant: usize,
    spec: usize,
    checkpoint: bool,
}

/// Everything one load sampled.
#[derive(Debug, Default)]
pub struct ServeSamples {
    /// Server start until the first reply, seconds.
    pub setup_s: Vec<f64>,
    /// Due time until the job's factors are fetched, milliseconds.
    pub job_ms: Vec<f64>,
    /// Status and tenant-stats round trips, microseconds.
    pub verb_us: Vec<f64>,
    pub submit_us: Vec<f64>,
    pub status_us: Vec<f64>,
    pub factors_ms: Vec<f64>,
    pub checkpoint_ms: Vec<f64>,
    pub resume_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    /// How late each submission left against its due time.
    pub late_ms: Vec<f64>,
    pub fairness_spread: f64,
    pub rejected: u64,
    pub jobs: usize,
    /// Checkpoint jobs that finished before their checkpoint was taken,
    /// and so ran without the cancel and resume.
    pub checkpoints_missed: usize,
}

impl ServeSamples {
    fn absorb(&mut self, o: ServeSamples) {
        self.job_ms.extend(o.job_ms);
        self.verb_us.extend(o.verb_us);
        self.submit_us.extend(o.submit_us);
        self.status_us.extend(o.status_us);
        self.factors_ms.extend(o.factors_ms);
        self.checkpoint_ms.extend(o.checkpoint_ms);
        self.resume_ms.extend(o.resume_ms);
        self.queue_wait_ms.extend(o.queue_wait_ms);
        self.late_ms.extend(o.late_ms);
        self.rejected += o.rejected;
        self.jobs += o.jobs;
        self.checkpoints_missed += o.checkpoints_missed;
    }
}

/// Arrivals at a fixed mean rate: job `i` is due at `(i + ½ + u)/rate`
/// with `u` uniform in `[−0.4, 0.4)`, so the schedule is seeded but
/// never bursts more than two jobs into one period. Tenants take turns;
/// every `checkpoint_every`-th job is checkpointed, rotating over the
/// tenants.
fn schedule(plan: &LoadPlan) -> Vec<Arrival> {
    let mut rng = SplitMix::new(plan.seed ^ 0xA771);
    let mut out: Vec<Arrival> = Vec::new();
    loop {
        let index = out.len();
        let due = (index as f64 + 0.5 + 0.8 * (rng.next_f64() - 0.5)) / plan.rate;
        if due >= plan.window.as_secs_f64() && out.len() >= MIN_JOBS {
            return out;
        }
        let every = plan.checkpoint_every;
        out.push(Arrival {
            index,
            due,
            tenant: index % plan.tenants,
            spec: rng.below(plan.pool.len()),
            checkpoint: index % every == (index / every) % every,
        });
    }
}

fn tenant_name(t: usize) -> String {
    format!("tenant-{t}")
}

struct Running {
    server: std::thread::JoinHandle<Result<ServeStats, ServeError>>,
    socket: PathBuf,
}

fn server_config(plan: &LoadPlan) -> ServerConfig {
    ServerConfig {
        default_quota: TenantQuota {
            max_concurrent_jobs: 4,
            max_queued_jobs: 256,
            // Short quanta: requests wait behind less stepping, and a
            // job spans several quanta, so a poll can see it mid-run.
            steps_per_quantum: 4,
            ..TenantQuota::default()
        },
        max_ranks_per_job: plan.pool.iter().map(|(p, _, _)| p.ranks).max().unwrap_or(1),
        ..ServerConfig::default()
    }
}

/// Starts a server on a fresh socket and waits for its first reply.
/// Returns the server, a connected client and the start-to-reply time.
fn start_server(
    plan: &LoadPlan,
    name: &str,
    report: &mut Report,
) -> Option<(Running, Client, f64)> {
    let socket = plan.dir.join(format!("{name}.sock"));
    let t = Instant::now();
    let listener = match UnixSocketListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            report.fail(format!("serve: bind {}: {e}", socket.display()));
            return None;
        }
    };
    let server = Server::new(server_config(plan));
    let server = std::thread::Builder::new()
        .name("nmfbench-server".into())
        .spawn(move || server.run(Box::new(listener)))
        .expect("spawn server thread");
    let running = Running { server, socket };
    let mut client = match UnixTransport::connect(&running.socket) {
        Ok(t) => Client::new(Box::new(t)),
        Err(e) => {
            report.fail(format!("serve: connect: {e}"));
            stop_server(running, None, report);
            return None;
        }
    };
    // Any typed reply proves the server is serving; an unknown tenant is
    // the cheapest one.
    let first = client.tenant_stats("setup-probe");
    let setup = t.elapsed().as_secs_f64();
    let replied = matches!(&first, Err(e) if e.code() == ErrorCode::UnknownTenant);
    report.check(replied, || format!("serve: first reply was {first:?}"));
    Some((running, client, setup))
}

fn stop_server(running: Running, client: Option<Client>, report: &mut Report) {
    let mut client = match client {
        Some(c) => c,
        None => match UnixTransport::connect(&running.socket) {
            Ok(t) => Client::new(Box::new(t)),
            Err(e) => {
                report.fail(format!("serve: cannot reach the server to stop it: {e}"));
                return;
            }
        },
    };
    report.check(client.shutdown().is_ok(), || {
        "serve: shutdown refused".into()
    });
    drop(client);
    match running.server.join() {
        Ok(Ok(_)) => report.ok(),
        Ok(Err(e)) => report.fail(format!("serve: server loop failed: {e}")),
        Err(_) => report.fail("serve: server thread panicked".into()),
    }
    std::fs::remove_file(&running.socket).ok();
}

/// Runs the plan: server starts for `setup_s`, then the measured load.
pub fn run_load(plan: &LoadPlan, tracer: &mut Tracer, report: &mut Report) -> ServeSamples {
    let mut out = ServeSamples::default();
    for i in 0..plan.setup_probes {
        let span = tracer.begin("serve.start", None, i as u64);
        if let Some((running, client, setup)) = start_server(plan, &format!("probe-{i}"), report) {
            out.setup_s.push(setup);
            stop_server(running, Some(client), report);
        }
        tracer.end(span);
    }

    let span = tracer.begin("serve.start", None, plan.setup_probes as u64);
    let Some((running, mut admin, setup)) = start_server(plan, "load", report) else {
        tracer.end(span);
        return out;
    };
    tracer.end(span);
    out.setup_s.push(setup);

    let arrivals = schedule(plan);
    let epoch = Instant::now();
    let results: Vec<(ServeSamples, Report, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let mine: Vec<Arrival> = arrivals
                    .iter()
                    .copied()
                    .filter(|a| a.tenant % CONNECTIONS == c)
                    .collect();
                let lane = tracer.lane(c as u32 + 1);
                let socket = running.socket.clone();
                scope.spawn(move || connection(plan, &socket, mine, epoch, lane))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    for (samples, rep, lane) in results {
        out.absorb(samples);
        report.absorb_tally(rep);
        tracer.absorb(lane);
    }

    let mut steps = Vec::new();
    for t in 0..plan.tenants {
        match admin.tenant_stats(&tenant_name(t)) {
            Ok(r) => {
                steps.push(r.steps_completed as f64);
                report.ok();
            }
            Err(e) => report.fail(format!("serve: tenant_stats {t}: {e}")),
        }
    }
    let max = steps.iter().copied().fold(0.0, f64::max);
    let min = steps.iter().copied().fold(f64::INFINITY, f64::min);
    out.fairness_spread = if min > 0.0 { max / min } else { f64::NAN };
    stop_server(running, Some(admin), report);
    out
}

/// One client connection: submits its tenants' jobs on schedule and,
/// between submissions, polls, checkpoints, resumes and fetches.
fn connection(
    plan: &LoadPlan,
    socket: &Path,
    arrivals: Vec<Arrival>,
    epoch: Instant,
    mut tracer: Tracer,
) -> (ServeSamples, Report, Tracer) {
    let mut out = ServeSamples::default();
    let mut report = Report::default();
    let mut client = match UnixTransport::connect(socket) {
        Ok(t) => Client::new(Box::new(t)),
        Err(e) => {
            report.fail(format!("serve: connect: {e}"));
            return (out, report, tracer);
        }
    };
    struct Live {
        arrival: Arrival,
        job: u64,
        submitted: f64,
        progressed: bool,
        /// Still to be checkpointed, cancelled and resumed.
        checkpoint: bool,
        resumed: bool,
        span: Option<u64>,
    }
    let clock = || epoch.elapsed().as_secs_f64();
    let mut next = 0;
    let mut live: Vec<Live> = Vec::new();
    let mut polls = 0usize;
    while next < arrivals.len() || !live.is_empty() {
        let now = clock();
        if now > (plan.window + DRAIN).as_secs_f64() {
            for l in &live {
                let last = client.status(&tenant_name(l.arrival.tenant), l.job);
                report.fail(format!(
                    "serve: job {} did not finish in time (last status {last:?})",
                    l.arrival.index
                ));
            }
            break;
        }
        if let Some(a) = arrivals.get(next).copied().filter(|a| a.due <= now) {
            next += 1;
            out.late_ms.push((now - a.due) * 1e3);
            let tenant = tenant_name(a.tenant);
            let (profile, source, _) = &plan.pool[a.spec];
            let spec = profile.job_spec(source.clone());
            let root = tracer.begin("serve.job", None, a.index as u64);
            let span = tracer.begin("serve.submit", root, a.index as u64);
            let t = Instant::now();
            let submitted = client.submit(&tenant, &spec);
            out.submit_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            match submitted {
                Ok(job) => {
                    report.ok();
                    out.jobs += 1;
                    live.push(Live {
                        arrival: a,
                        job,
                        submitted: now,
                        progressed: false,
                        checkpoint: a.checkpoint,
                        resumed: false,
                        span: root,
                    });
                }
                Err(e) => {
                    if e.is_quota() {
                        out.rejected += 1;
                    }
                    report.fail(format!("serve: submit of job {} refused: {e}", a.index));
                    tracer.end(root);
                }
            }
            continue;
        }
        if live.is_empty() {
            let due = arrivals[next].due;
            std::thread::sleep(Duration::from_secs_f64((due - now).max(0.0)));
            continue;
        }

        let i = polls % live.len();
        polls += 1;
        let tenant = tenant_name(live[i].arrival.tenant);
        let run = live[i].arrival.index as u64;
        let root = live[i].span;
        let span = tracer.begin("serve.status", root, run);
        let t = Instant::now();
        let status = client.status(&tenant, live[i].job);
        let rtt = t.elapsed().as_secs_f64() * 1e6;
        tracer.end(span);
        out.verb_us.push(rtt);
        out.status_us.push(rtt);
        if polls.is_multiple_of(2) {
            let span = tracer.begin("serve.tenant_stats", None, run);
            let t = Instant::now();
            let stats = client.tenant_stats(&tenant);
            out.verb_us.push(t.elapsed().as_secs_f64() * 1e6);
            tracer.end(span);
            report.check(stats.is_ok(), || {
                format!("serve: tenant_stats failed: {stats:?}")
            });
        }
        let status = match status {
            Ok(s) => {
                report.ok();
                s
            }
            Err(e) => {
                report.fail(format!("serve: status of job {run}: {e}"));
                tracer.end(root);
                live.swap_remove(i);
                continue;
            }
        };
        let l = &mut live[i];
        if !l.progressed && status.iterations > 0 && !l.resumed {
            l.progressed = true;
            out.queue_wait_ms.push((clock() - l.submitted) * 1e3);
        }
        let runnable = matches!(status.phase, JobPhase::Queued | JobPhase::Running);
        let finished = status.phase == JobPhase::Finished;
        if l.checkpoint && finished {
            l.checkpoint = false;
            out.checkpoints_missed += 1;
        }
        if l.checkpoint && status.phase == JobPhase::Running && status.iterations > 0 {
            // Checkpoint mid-run, cancel, and resume from the file.
            l.checkpoint = false;
            let path = plan.dir.join(format!("job-{run}.ckpt"));
            let path_str = path.to_string_lossy().into_owned();
            let span = tracer.begin("serve.checkpoint", root, run);
            let t = Instant::now();
            let saved = client.checkpoint(&tenant, l.job, &path_str);
            out.checkpoint_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            if let Err(e) = saved {
                report.fail(format!("serve: checkpoint of job {run}: {e}"));
                tracer.end(root);
                live.swap_remove(i);
                continue;
            }
            report.ok();
            // The server keeps stepping between the status reply and the
            // checkpoint request, so the job may have finished by then.
            // Resuming a checkpoint of a finished job leaves that job
            // `Running` for ever (the scheduler never steps a model that
            // is already done), so such a job is fetched as it is.
            match hpc_nmf::inspect_checkpoint(&path) {
                Ok(c) if c.iterations_done < status.max_iters as usize => {}
                Ok(_) => {
                    out.checkpoints_missed += 1;
                    std::fs::remove_file(&path).ok();
                    continue;
                }
                Err(e) => {
                    report.fail(format!("serve: checkpoint of job {run} unreadable: {e}"));
                    tracer.end(root);
                    live.swap_remove(i);
                    continue;
                }
            }
            let cancelled = client.cancel(&tenant, l.job);
            let (_, source, _) = &plan.pool[l.arrival.spec];
            let span = tracer.begin("serve.resume", root, run);
            let t = Instant::now();
            let resumed = match cancelled {
                Ok(()) => client.resume(&tenant, &path_str, source, None, None, None),
                Err(e) => Err(e),
            };
            out.resume_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            match resumed {
                Ok((job, _)) => {
                    report.ok_n(2);
                    l.job = job;
                    l.resumed = true;
                }
                Err(e) => {
                    report.fail(format!("serve: cancel/resume of job {run} failed: {e}"));
                    tracer.end(root);
                    live.swap_remove(i);
                }
            }
            continue;
        }
        if finished {
            let span = tracer.begin("serve.factors", root, run);
            let t = Instant::now();
            let fetched = client.factors(&tenant, l.job);
            out.factors_ms.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            let done = clock();
            out.job_ms.push((done - l.arrival.due) * 1e3);
            let (_, _, (rw, rh)) = &plan.pool[l.arrival.spec];
            match fetched {
                Ok((w, h)) => {
                    report.check(bit_identical(&w, rw) && bit_identical(&h, rh), || {
                        format!(
                            "serve: job {run}{} factors differ from the in-process reference",
                            if l.resumed { " (resumed)" } else { "" }
                        )
                    });
                }
                Err(e) => report.fail(format!("serve: factors of job {run}: {e}")),
            }
            let released = client.cancel(&tenant, l.job);
            report.check(released.is_ok(), || {
                format!("serve: release of job {run}: {released:?}")
            });
            if l.resumed {
                std::fs::remove_file(plan.dir.join(format!("job-{run}.ckpt"))).ok();
            }
            tracer.end(root);
            live.swap_remove(i);
            continue;
        }
        if !runnable {
            report.fail(format!(
                "serve: job {run} ended {} ({:?})",
                status.phase.as_str(),
                status.error
            ));
            tracer.end(root);
            live.swap_remove(i);
            continue;
        }
        if polls.is_multiple_of(live.len()) {
            // One pass over the live jobs done: pause before the next, or
            // until the next job is due.
            let pause = arrivals
                .get(next)
                .map_or(POLL_PAUSE, |a| {
                    Duration::from_secs_f64((a.due - clock()).max(0.0))
                })
                .min(POLL_PAUSE);
            std::thread::sleep(pause);
        }
    }
    (out, report, tracer)
}

/// Pause between passes over a connection's live jobs.
const POLL_PAUSE: Duration = Duration::from_millis(5);
