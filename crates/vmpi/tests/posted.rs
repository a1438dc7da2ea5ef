//! Split-phase collectives: posted ops must deliver bit-identical results
//! to their synchronous counterparts, under arbitrary interleavings with
//! other collectives on the same arena, ragged counts, and sub-comms.

use nmf_vmpi::universe::run;
use nmf_vmpi::Op;
use proptest::collection::vec;
use proptest::prelude::*;

fn block(r: usize, len: usize, salt: u32) -> Vec<f64> {
    (0..len)
        .map(|i| (r * 97 + i) as f64 + salt as f64)
        .collect()
}

#[test]
fn posted_all_gatherv_matches_sync() {
    for p in 1..=9 {
        let counts: Vec<usize> = (0..p).map(|r| (r * 3 + 1) % 5).collect();
        let total: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let mine = block(comm.rank(), counts2[comm.rank()], 7);
            let sync = comm.all_gatherv(&mine, &counts2);
            let op = comm.post_all_gatherv(&mine, &counts2);
            let mut posted = vec![0.0; total];
            op.wait(&mut posted);
            (sync, posted)
        });
        for r in results {
            assert_eq!(r.result.0, r.result.1, "p={p}");
        }
    }
}

#[test]
fn posted_reduce_scatter_matches_sync() {
    for p in 1..=9 {
        let counts: Vec<usize> = (0..p).map(|r| (r * 2 + 1) % 4 + 1).collect();
        let total: usize = counts.iter().sum();
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let r = comm.rank();
            let data: Vec<f64> = (0..total).map(|i| (i * (r + 1)) as f64).collect();
            let sync = comm.reduce_scatter(&data, &counts2);
            let op = comm.post_reduce_scatter(&data, &counts2);
            let mut posted = vec![0.0; counts2[r]];
            op.wait(&mut posted);
            (sync, posted)
        });
        for r in results {
            assert_eq!(r.result.0, r.result.1, "p={p}");
        }
    }
}

#[test]
fn posted_all_reduce_matches_sync() {
    for p in 1..=9 {
        for n in [0usize, 1, 5, 64, 129] {
            let results = run(p, move |comm| {
                let r = comm.rank();
                let data: Vec<f64> = (0..n).map(|i| (i + r * 13) as f64).collect();
                let sync = comm.all_reduce(&data);
                let op = comm.post_all_reduce(&data);
                let mut posted = vec![0.0; n];
                op.wait(&mut posted);
                (sync, posted)
            });
            for r in results {
                assert_eq!(r.result.0, r.result.1, "p={p} n={n}");
            }
        }
    }
}

/// The engine's actual pattern: post on a sub-comm, run other collectives
/// on other comms sharing the arena and channels, then wait.
#[test]
fn posted_op_survives_interleaved_collectives_on_other_comms() {
    for p in [4usize, 6, 8] {
        let results = run(p, move |comm| {
            let cols = 2;
            let row = comm.split(comm.rank() / cols, comm.rank() % cols);
            let col = comm.split(cols + comm.rank() % cols, comm.rank() / cols);

            let mine = block(comm.rank(), 3, 11);
            let counts = vec![3usize; col.size()];
            let posted_col = col.post_all_gatherv(&mine, &counts);

            // "Compute phase": world and row collectives run while the
            // column gather is in flight, drawing from the same arena.
            let world_sum = comm.all_reduce_scalar(comm.rank() as f64 + 1.0);
            let row_counts = vec![2usize; row.size()];
            let row_data: Vec<f64> = (0..2 * row.size()).map(|i| i as f64).collect();
            let mut row_rs = vec![0.0; 2];
            row.reduce_scatter_into(&row_data, &row_counts, &mut row_rs);

            let mut gathered = vec![0.0; 3 * col.size()];
            posted_col.wait(&mut gathered);

            // Reference: same gather done synchronously afterwards.
            let sync = col.all_gatherv(&mine, &counts);
            (gathered, sync, world_sum, row_rs)
        });
        let expect_sum = (p * (p + 1) / 2) as f64;
        for r in results {
            assert_eq!(r.result.0, r.result.1, "p={p}");
            assert_eq!(r.result.2, expect_sum);
        }
    }
}

/// Two ops in flight at once on different comms (the Grid2D schedule posts
/// a gather and a Gram all-reduce together), waited in post order.
#[test]
fn two_simultaneous_posted_ops_complete_in_order() {
    for p in [4usize, 9] {
        let results = run(p, move |comm| {
            let side = (p as f64).sqrt() as usize;
            let col = comm.split(comm.rank() % side, comm.rank() / side);

            let mine = block(comm.rank(), 4, 3);
            let counts = vec![4usize; col.size()];
            let ag = col.post_all_gatherv(&mine, &counts);
            let gram: Vec<f64> = (0..9).map(|i| (i + comm.rank()) as f64).collect();
            let ar = comm.post_all_reduce(&gram);

            let mut gathered = vec![0.0; 4 * col.size()];
            ag.wait(&mut gathered);
            let mut reduced = vec![0.0; 9];
            ar.wait(&mut reduced);

            let sync_ag = col.all_gatherv(&mine, &counts);
            let sync_ar = comm.all_reduce(&gram);
            (gathered == sync_ag, reduced == sync_ar)
        });
        for r in results {
            assert!(r.result.0 && r.result.1, "p={p}");
        }
    }
}

/// Posted and sync paths must put identical words and messages on the
/// wire — the exact-cost accounting cannot tell the schedules apart.
#[test]
fn posted_words_and_messages_match_sync_exactly() {
    for p in [3usize, 4, 8] {
        let results = run(p, move |comm| {
            let n = 24;
            let data: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let before = comm.stats();
            comm.all_reduce_into(&mut data.clone());
            let mid = comm.stats();
            let op = comm.post_all_reduce(&data);
            let mut out = vec![0.0; n];
            op.wait(&mut out);
            let after = comm.stats();

            let sync = mid.delta_since(&before).op(Op::AllReduce);
            let posted = after.delta_since(&mid).op(Op::AllReduce);
            (sync.words, sync.messages, posted.words, posted.messages)
        });
        for r in results {
            let (sw, sm, pw, pm) = r.result;
            assert_eq!(sw, pw, "p={p}: words differ");
            assert_eq!(sm, pm, "p={p}: messages differ");
        }
    }
}

#[test]
fn posted_stats_record_posts_and_overlap_window() {
    let results = run(4, |comm| {
        let p = comm.size();
        let data = vec![1.0; 64];
        // Every blocking form drives its machine inline: it is charged
        // messages and time, but nothing split-phase.
        let mut gathered = vec![0.0; 64 * p];
        comm.all_gather_into(&data, &mut gathered);
        let ragged: Vec<usize> = (0..p).map(|r| 8 + 4 * r).collect();
        let total: usize = ragged.iter().sum();
        comm.all_gatherv_into(
            &data[..ragged[comm.rank()]],
            &ragged,
            &mut gathered[..total],
        );
        let mut seg = vec![0.0; ragged[comm.rank()]];
        comm.reduce_scatter_into(&data[..total], &ragged, &mut seg);
        comm.all_reduce_into(&mut data.clone());
        let blocking = comm.stats();

        let op = comm.post_all_reduce(&data);
        // A measurable compute window between post and wait.
        std::thread::sleep(std::time::Duration::from_millis(2));
        let mut out = vec![0.0; 64];
        op.wait(&mut out);
        let posted = comm.stats().delta_since(&blocking).op(Op::AllReduce);
        (blocking, posted)
    });
    for r in results {
        let (blocking, posted) = r.result;
        for op in [Op::AllGather, Op::ReduceScatter, Op::AllReduce] {
            let s = blocking.op(op);
            assert!(s.messages > 0, "{op:?}: the blocking form sent nothing");
            assert_eq!(s.posts, 0, "{op:?}: the blocking form recorded a post");
            assert_eq!(s.overlap, std::time::Duration::ZERO, "{op:?}");
            assert_eq!(s.inflight, std::time::Duration::ZERO, "{op:?}");
        }
        assert_eq!(blocking.total_posts(), 0);
        assert_eq!(posted.posts, 1);
        assert!(
            posted.overlap >= std::time::Duration::from_millis(2),
            "overlap window should cover the compute phase, got {:?}",
            posted.overlap
        );
        assert!(posted.inflight >= posted.overlap);
    }
}

/// Leaking a posted op without waiting is a programming error caught in
/// debug builds.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "dropped without wait")]
fn leaked_posted_op_is_debug_asserted() {
    run(2, |comm| {
        if comm.rank() == 0 {
            let op = comm.post_all_reduce(&[1.0, 2.0]);
            drop(op);
        } else {
            let op = comm.post_all_reduce(&[1.0, 2.0]);
            let mut out = vec![0.0; 2];
            op.wait(&mut out);
        }
    });
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    // Arbitrary ragged counts and an arbitrary number of interleaved
    // sync collectives between post and wait: the posted result must
    // equal the sequential reference.
    #[test]
    fn posted_gatherv_with_interleaved_compute_agrees_with_concat(
        p in 1usize..9,
        lens in vec(0usize..6, 9),
        interleave in 0usize..4,
        salt in 0u32..1000,
    ) {
        let counts: Vec<usize> = (0..p).map(|r| lens[r]).collect();
        let expect: Vec<f64> = (0..p).flat_map(|r| block(r, counts[r], salt)).collect();
        let total = expect.len();
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let mine = block(comm.rank(), counts2[comm.rank()], salt);
            let op = comm.post_all_gatherv(&mine, &counts2);
            for _ in 0..interleave {
                comm.all_reduce_scalar(1.0);
                comm.barrier();
            }
            let mut out = vec![0.0; total];
            op.wait(&mut out);
            out
        });
        for r in results {
            prop_assert_eq!(&r.result, &expect);
        }
    }

    // Same for reduce-scatter: ragged counts, interleaved all-gathers.
    #[test]
    fn posted_reduce_scatter_with_interleaved_compute_agrees_with_reference(
        p in 1usize..9,
        lens in vec(1usize..5, 9),
        interleave in 0usize..3,
        salt in 1u32..50,
    ) {
        let counts: Vec<usize> = (0..p).map(|r| lens[r]).collect();
        let total: usize = counts.iter().sum();
        // Reference: element-wise sum of every rank's vector, sliced.
        let mut summed = vec![0.0; total];
        for r in 0..p {
            for (i, s) in summed.iter_mut().enumerate() {
                *s += (i * (r + 1) + salt as usize) as f64;
            }
        }
        let mut off = 0usize;
        let mut slices = Vec::new();
        for &c in &counts {
            slices.push(summed[off..off + c].to_vec());
            off += c;
        }
        let counts2 = counts.clone();
        let results = run(p, move |comm| {
            let r = comm.rank();
            let data: Vec<f64> =
                (0..total).map(|i| (i * (r + 1) + salt as usize) as f64).collect();
            let op = comm.post_reduce_scatter(&data, &counts2);
            for _ in 0..interleave {
                comm.all_gather(&[r as f64]);
            }
            let mut out = vec![0.0; counts2[r]];
            op.wait(&mut out);
            out
        });
        for r in results {
            prop_assert_eq!(&r.result, &slices[r.rank]);
        }
    }

    // All three posted ops in flight together across world and split
    // comms, with sync traffic interleaved — the stress shape closest to
    // the engine's overlapped iteration.
    #[test]
    fn three_posted_ops_interleaved_across_comms(
        pr in 1usize..4,
        pc in 1usize..4,
        n in 1usize..40,
        salt in 0u32..100,
    ) {
        let p = pr * pc;
        let results = run(p, move |comm| {
            let row = comm.split(comm.rank() / pc, comm.rank() % pc);
            let col = comm.split(pr + comm.rank() % pc, comm.rank() / pc);
            let r = comm.rank();

            let col_counts: Vec<usize> = (0..col.size()).map(|i| (i + 1) % 3 + 1).collect();
            let mine = block(r, col_counts[col.rank()], salt);
            let ag = col.post_all_gatherv(&mine, &col_counts);

            let gram: Vec<f64> = (0..n).map(|i| (i + r) as f64).collect();
            let ar = comm.post_all_reduce(&gram);

            let row_counts: Vec<usize> = vec![2; row.size()];
            let row_data: Vec<f64> = (0..2 * row.size()).map(|i| (i + r) as f64).collect();
            let rs = row.post_reduce_scatter(&row_data, &row_counts);

            comm.barrier(); // sync traffic while three ops are in flight

            let mut ag_out = vec![0.0; col_counts.iter().sum()];
            ag.wait(&mut ag_out);
            let mut ar_out = vec![0.0; n];
            ar.wait(&mut ar_out);
            let mut rs_out = vec![0.0; 2];
            rs.wait(&mut rs_out);

            // Sync references on the same comms afterwards.
            let ag_ref = col.all_gatherv(&mine, &col_counts);
            let ar_ref = comm.all_reduce(&gram);
            let rs_ref = row.reduce_scatter(&row_data, &row_counts);
            (ag_out == ag_ref, ar_out == ar_ref, rs_out == rs_ref)
        });
        for r in results {
            prop_assert!(r.result.0 && r.result.1 && r.result.2);
        }
    }

    // Repeated post/wait cycles reuse the arena: the steady-state cycle
    // must not corrupt results (pool discipline, not fresh allocations).
    #[test]
    fn repeated_posted_cycles_reuse_arena_without_corruption(
        p in 2usize..7,
        n in 1usize..30,
    ) {
        let results = run(p, move |comm| {
            let r = comm.rank();
            let mut ok = true;
            for iter in 0..12 {
                let data: Vec<f64> = (0..n).map(|i| (i + r + iter) as f64).collect();
                let op = comm.post_all_reduce(&data);
                let mut out = vec![0.0; n];
                op.wait(&mut out);
                let reference = comm.all_reduce(&data);
                ok &= out == reference;
            }
            ok
        });
        for r in results {
            prop_assert!(r.result);
        }
    }
}
