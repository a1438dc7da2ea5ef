//! Elastic resume through the serving stack: a job checkpointed by one
//! server continues under another — possibly with a different rank
//! policy, scheme, or transport — admitted under the tenant's quota
//! like any other submission (`docs/elasticity.md`).

use hpc_nmf::harness::Algo;
use nmf_serve::prelude::*;
use nmf_serve::{Registry, ResumeSpec, Scheduler};
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("nmf-serve-resume-{tag}-{}", std::process::id()))
}

fn dense_source() -> JobSource {
    JobSource::Dense {
        m: 16,
        n: 10,
        data: (0..16 * 10)
            .map(|i| ((i * 3 + 1) % 9) as f64 + 0.25)
            .collect(),
    }
}

fn small_spec(seed: u64, max_iters: usize) -> JobSpec {
    JobSpec {
        source: dense_source(),
        k: 3,
        ranks: 1,
        algo: Algo::Sequential,
        solver: nmf_nls::SolverKind::Bpp,
        max_iters,
        seed,
        tol: None,
    }
}

/// Runs `server` on a thread and hands the caller a connected client.
fn start(config: ServerConfig) -> (Client, std::thread::JoinHandle<ServeStats>) {
    let (listener, connector) = channel_listener();
    let server = Server::new(config);
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
    let client = Client::new(Box::new(connector.connect().expect("connect")));
    (client, core)
}

#[test]
fn checkpointed_job_resumes_on_a_new_scheme_under_a_new_server() {
    let ckpt = tmp("regrid.ckpt");

    // First life: a sequential job runs to its 4-iteration budget and
    // is checkpointed server-side.
    let (mut client, core) = start(ServerConfig::default());
    let job = client.submit("acme", &small_spec(7, 4)).expect("submit");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished);
    assert_eq!(st.iterations, 4);
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8"))
        .expect("server-side save");
    client.shutdown().expect("shutdown");
    core.join().expect("core");

    // Second life: a different server admits the checkpoint as a fresh
    // job and continues it on a 2-rank 1D scheme with a raised budget.
    let (mut client, core) = start(ServerConfig::default());
    let (job, queued) = client
        .resume(
            "acme",
            ckpt.to_str().expect("utf-8"),
            &dense_source(),
            Some(2),
            Some(Algo::Hpc1D),
            Some(9),
        )
        .expect("resume admitted");
    assert!(!queued, "an idle server promotes immediately");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(
        st.iterations, 9,
        "resume continues the iteration count, not restarts it"
    );
    assert_eq!(st.max_iters, 9);
    assert!(st.objective.is_finite());
    let (w, h) = client.factors("acme", job).expect("factors");
    assert_eq!(w.shape(), (16, 3));
    assert_eq!(h.shape(), (3, 10));

    client.shutdown().expect("shutdown");
    let stats = core.join().expect("core");
    assert_eq!(stats.jobs_finished, 1);
    std::fs::remove_file(&ckpt).ok();
}

/// A checkpoint written at a job's final iteration resumes as a job with
/// nothing left to run: promotion must mark it `Finished` and free its
/// concurrency slot for the job queued behind it.
#[test]
fn resume_at_the_final_iteration_finishes_and_frees_its_slot() {
    let ckpt = tmp("final.ckpt");
    let ckpt_path = ckpt.to_str().expect("utf-8").to_string();
    let one_slot = TenantQuota {
        max_concurrent_jobs: 1,
        ..TenantQuota::default()
    };
    let mut sched = Scheduler::new(SchedulerConfig::default());

    // First life: run to the 4-iteration budget, then checkpoint.
    let mut reg = Registry::new(one_slot, 1);
    let (job, _) = reg.submit("acme", small_spec(7, 4)).expect("admit");
    sched.run_quantum(&mut reg);
    let st = reg.status("acme", job).expect("status");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    reg.checkpoint("acme", job, &ckpt_path).expect("save");

    // Second life: resume under the recorded budget, with a fresh job
    // queued behind it for the tenant's only slot.
    let mut reg = Registry::new(one_slot, 1);
    let resume = ResumeSpec {
        ckpt: ckpt_path,
        source: dense_source(),
        ranks: None,
        algo: None,
        max_iters: None,
    };
    let (resumed, queued) = reg.submit_resume("acme", resume).expect("admit");
    assert!(!queued);
    let (behind, queued) = reg.submit("acme", small_spec(8, 3)).expect("admit");
    assert!(queued, "the resumed job claims the only slot");

    let report = sched.run_quantum(&mut reg);
    let st = reg.status("acme", resumed).expect("status");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(st.iterations, 4);
    assert_eq!(st.stop.as_deref(), Some("max_iters"));
    assert_eq!(
        report.jobs_promoted, 2,
        "the slot is free again: {report:?}"
    );
    for _ in 0..8 {
        sched.run_quantum(&mut reg);
    }
    let st = reg.status("acme", behind).expect("status");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(st.iterations, 3);
    assert!(!reg.has_runnable_work());
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_rank_requests_are_clamped_to_server_policy() {
    let ckpt = tmp("clamp.ckpt");
    let (mut client, core) = start(ServerConfig::default());
    let job = client.submit("acme", &small_spec(5, 3)).expect("submit");
    client.wait_finished("acme", job, 10_000).expect("wait");
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8"))
        .expect("save");
    client.shutdown().expect("shutdown");
    core.join().expect("core");

    // 64 ranks cannot fit a 16x10 problem — if the request were taken
    // literally the build would fail. The server clamps to its own
    // max-ranks policy (2 here), so the job finishes.
    let (mut client, core) = start(ServerConfig {
        max_ranks_per_job: 2,
        ..ServerConfig::default()
    });
    let (job, _) = client
        .resume(
            "acme",
            ckpt.to_str().expect("utf-8"),
            &dense_source(),
            Some(64),
            Some(Algo::Hpc1D),
            Some(6),
        )
        .expect("clamped, not rejected");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(st.iterations, 6);

    client.shutdown().expect("shutdown");
    core.join().expect("core");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn resume_rejections_are_typed_at_admission() {
    let ckpt = tmp("reject.ckpt");
    let (mut client, core) = start(ServerConfig::default());
    let job = client.submit("acme", &small_spec(3, 3)).expect("submit");
    client.wait_finished("acme", job, 10_000).expect("wait");
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8"))
        .expect("save");

    // A source whose shape contradicts the checkpoint is refused at
    // admission — no queue slot or promotion is burned on it.
    let wrong = JobSource::Dense {
        m: 12,
        n: 10,
        data: vec![1.0; 120],
    };
    let err = client
        .resume(
            "acme",
            ckpt.to_str().expect("utf-8"),
            &wrong,
            None,
            None,
            None,
        )
        .expect_err("shape mismatch");
    assert_eq!(err.code(), ErrorCode::BuildFailed);

    // A checkpoint path that does not exist is a typed failure too.
    let err = client
        .resume(
            "acme",
            "/nonexistent/never.ckpt",
            &dense_source(),
            None,
            None,
            None,
        )
        .expect_err("missing file");
    assert_eq!(err.code(), ErrorCode::BuildFailed);

    client.shutdown().expect("shutdown");
    core.join().expect("core");
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn file_sourced_job_submits_and_resumes_from_nmfs() {
    // Materialize a sparse dataset as an NMFS file: the server opens it
    // mmap-backed at admission (shape peek) and shares it between the
    // original run and the resumed one via the dataset cache.
    let built = nmf_data::DatasetKind::Ssyn.build(2400, 11);
    let nmfs = tmp("input.nmfs");
    nmf_data::write_input_nmfs(&built.input, &nmfs).expect("nmfs writes");
    let (m, n) = built.input.shape();
    let ckpt = tmp("file.ckpt");

    let (mut client, core) = start(ServerConfig::default());
    let spec = JobSpec {
        source: JobSource::File {
            path: nmfs.to_str().expect("utf-8").to_string(),
        },
        k: 3,
        ranks: 2,
        algo: Algo::Hpc1D,
        solver: nmf_nls::SolverKind::Bpp,
        max_iters: 3,
        seed: 11,
        tol: None,
    };
    let job = client.submit("acme", &spec).expect("file submit");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8"))
        .expect("save");

    // Resume from the same file on a different grid, same server.
    let (job2, _) = client
        .resume(
            "acme",
            ckpt.to_str().expect("utf-8"),
            &spec.source,
            Some(4),
            Some(Algo::Hpc2D),
            Some(5),
        )
        .expect("file resume");
    let st = client.wait_finished("acme", job2, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(st.iterations, 5);
    let (w, h) = client.factors("acme", job2).expect("factors");
    assert_eq!(w.shape(), (m, 3));
    assert_eq!(h.shape(), (3, n));

    client.shutdown().expect("shutdown");
    core.join().expect("core");
    std::fs::remove_file(&nmfs).ok();
    std::fs::remove_file(&ckpt).ok();
}

#[test]
fn full_resume_cycle_over_tcp_loopback() {
    let ckpt = tmp("tcp.ckpt");

    // First server on an OS-assigned loopback port.
    let listener = TcpSocketListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let server = Server::new(ServerConfig::default());
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
    let mut client = Client::new(Box::new(
        TcpTransport::connect(addr.to_string()).expect("connect"),
    ));
    let job = client.submit("acme", &small_spec(13, 4)).expect("submit");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished);
    client
        .checkpoint("acme", job, ckpt.to_str().expect("utf-8"))
        .expect("save");
    client.shutdown().expect("shutdown");
    core.join().expect("core");

    // Second server, new port, resumed over TCP.
    let listener = TcpSocketListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr();
    let server = Server::new(ServerConfig::default());
    let core = std::thread::spawn(move || server.run(Box::new(listener)).expect("serve"));
    let mut client = Client::new(Box::new(
        TcpTransport::connect(addr.to_string()).expect("connect"),
    ));
    let (job, _) = client
        .resume(
            "acme",
            ckpt.to_str().expect("utf-8"),
            &dense_source(),
            Some(2),
            Some(Algo::Hpc1D),
            Some(7),
        )
        .expect("resume over tcp");
    let st = client.wait_finished("acme", job, 10_000).expect("wait");
    assert_eq!(st.phase, JobPhase::Finished, "{st:?}");
    assert_eq!(st.iterations, 7);

    client.shutdown().expect("shutdown");
    core.join().expect("core");
    std::fs::remove_file(&ckpt).ok();
}
