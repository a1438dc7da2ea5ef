//! Proof of the zero-allocation hot path: a counting global allocator
//! measures whole factorizations at different iteration counts. If the
//! steady-state loop is allocation-free, the total allocation count is
//! *independent of the iteration count* for the sequential engine (no
//! transport), and grows by a near-constant per-iteration amount for
//! a distributed run (the channel-transport message boxes — the
//! virtual interconnect, which is outside the compute path — with a few
//! allocations of amortized channel block storage).
//!
//! HALS/MU are used as the NLS solvers here because their scratch usage
//! is shape-static; BPP is also workspace-backed but its per-group
//! buffer pool can legitimately grow on an iteration whose pivoting
//! discovers more distinct passive sets than any before it, which would
//! make an exact-equality assertion data-dependent.
//!
//! The counter is process-wide, so this file runs without the libtest
//! harness (`harness = false` in `Cargo.toml`): libtest's own threads
//! allocate while a test runs, which made the exact counts flaky. `main`
//! runs the checks one after another on the main thread; the only other
//! threads are the rank threads the distributed check itself spawns.

use hpc_nmf::prelude::*;
use hpc_nmf::{init_ht, init_w, AnlsEngine, LocalScheme};
use nmf_matrix::rng::Fill;
use nmf_matrix::Mat;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn count<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let out = f();
    drop(out);
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The engine is driven directly (not through `Model`, whose per-step
/// channel messages would break the exact equality below); the data
/// block is extracted outside the counted region.
fn run_seq(iters: usize, solver: SolverKind) -> u64 {
    let (m, n) = (48, 36);
    let local = Input::Dense(Mat::uniform(m, n, 11)).block(0, 0, m, n);
    let config = NmfConfig::new(5)
        .with_max_iters(iters)
        .with_solver(solver)
        .with_seed(3);
    count(|| {
        let w0 = init_w(m, config.k, config.seed);
        let ht0 = init_ht(n, config.k, config.seed);
        let mut engine = AnlsEngine::new(LocalScheme::new(m, n), &local, &config, w0, ht0);
        engine.run();
        engine
    })
}

fn sequential_steady_state_iterations_allocate_nothing() {
    for solver in [SolverKind::Hals, SolverKind::Mu] {
        let base = run_seq(2, solver);
        let more = run_seq(6, solver);
        assert_eq!(
            more, base,
            "{solver:?}: 4 extra iterations changed the allocation count \
             ({base} for 2 iters vs {more} for 6) — the steady-state loop allocated"
        );
    }
}

fn run_hpc(iters: usize) -> u64 {
    let input = Input::Dense(Mat::uniform(40, 32, 19));
    let config = NmfConfig::new(4)
        .with_max_iters(iters)
        .with_solver(SolverKind::Hals)
        .with_seed(7);
    count(|| factorize(&input, 4, Algo::Hpc2D, &config))
}

fn hpc_per_iteration_allocations_are_exactly_the_transport() {
    // Warm once (thread-spawn and lazy-init costs of the first run).
    let _ = run_hpc(2);
    let a2 = run_hpc(2);
    let a4 = run_hpc(4);
    let a6 = run_hpc(6);
    let d1 = a4 - a2;
    let d2 = a6 - a4;
    // The per-iteration delta is the transport traffic (boxed message
    // payloads). It is *nearly* constant — the channel's internal block
    // storage amortizes one allocation per ~32 messages, so consecutive
    // deltas can differ by a few block allocations, but never by
    // anything matrix-shaped.
    let spread = d1.abs_diff(d2);
    assert!(
        spread <= 16,
        "per-iteration allocation delta varies too much ({d1} vs {d2}) — \
         something in the iteration loop allocates beyond the message transport"
    );
    // Sanity: the per-iteration count is a few dozen boxed messages for
    // 4 ranks, not matrix-sized churn.
    assert!(
        d1 / 2 < 400,
        "per-iteration allocation count {} is too high to be transport-only",
        d1 / 2
    );
}

fn main() {
    sequential_steady_state_iterations_allocate_nothing();
    println!("sequential_steady_state_iterations_allocate_nothing ... ok");
    hpc_per_iteration_allocations_are_exactly_the_transport();
    println!("hpc_per_iteration_allocations_are_exactly_the_transport ... ok");
}
