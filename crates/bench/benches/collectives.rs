//! Criterion benches of the virtual-MPI collectives in their blocking
//! form: Bruck all-gather, recursive-halving reduce-scatter and
//! Rabenseifner all-reduce, each the split-phase machine of
//! `nmf_vmpi::pending` driven to completion inline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nmf_vmpi::universe;
use std::time::Duration;

fn bench_all_gather(c: &mut Criterion) {
    let mut g = c.benchmark_group("all_gather");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    for &(p, words) in &[(8usize, 4096usize), (16, 4096)] {
        g.bench_with_input(
            BenchmarkId::new("bruck", format!("p{p}_n{words}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    universe::run(p, |comm| {
                        let mine = vec![comm.rank() as f64; words / comm.size()];
                        comm.all_gather(&mine).len()
                    })
                })
            },
        );
    }
    g.finish();
}

fn bench_reduce_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("reduce_scatter");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    for &p in &[8usize, 16] {
        let words = 8192usize;
        g.bench_with_input(BenchmarkId::new("halving", p), &(), |b, ()| {
            b.iter(|| {
                universe::run(p, |comm| {
                    let data = vec![1.0; words];
                    let counts = vec![words / comm.size(); comm.size()];
                    comm.reduce_scatter(&data, &counts).len()
                })
            })
        });
    }
    g.finish();
}

fn bench_all_reduce(c: &mut Criterion) {
    let mut g = c.benchmark_group("all_reduce");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(1));
    // k×k Gram payloads: the algorithm's actual all-reduce size.
    for &k in &[10usize, 50] {
        let words = k * k;
        g.bench_with_input(
            BenchmarkId::new("rabenseifner", format!("k{k}")),
            &(),
            |b, ()| {
                b.iter(|| {
                    universe::run(8, |comm| {
                        let data = vec![comm.rank() as f64; words];
                        comm.all_reduce(&data).len()
                    })
                })
            },
        );
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_all_gather,
    bench_reduce_scatter,
    bench_all_reduce
);
criterion_main!(benches);
