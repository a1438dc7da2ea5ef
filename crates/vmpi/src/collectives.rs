//! Collective communication: the blocking API.
//!
//! Built *from point-to-point messages* with the classic algorithms whose
//! costs the paper quotes in §2.3 (following Chan et al. and
//! Thakur/Rabenseifner/Gropp):
//!
//! * **all-gather** — Bruck's algorithm: `⌈log₂ p⌉` rounds,
//!   `((p−1)/p)·n` words per rank. Handles any `p` and per-rank block
//!   sizes (`v` variant) because receivers know all counts.
//! * **reduce-scatter** — recursive halving with a fold step for
//!   non-power-of-two `p`: `⌈log₂ p⌉ (+2)` rounds, `((p−1)/p)·n` words
//!   plus the same number of additions.
//! * **all-reduce** — Rabenseifner's algorithm: a reduce-scatter followed
//!   by an all-gather, `2·⌈log₂ p⌉` rounds and `2·((p−1)/p)·n` words.
//! * **broadcast / reduce** — binomial trees (`⌈log₂ p⌉` rounds).
//! * **barrier** — dissemination (`⌈log₂ p⌉` rounds of empty messages).
//! * **gather / scatter** — direct (used only outside the iteration loop,
//!   for dataset distribution and result collection).
//!
//! The first three exist once, as the suspendable state machines of
//! [`pending`](crate::pending). A blocking call here builds the same
//! machine a `post_*` call would and drives it to completion inline,
//! parking on every missing message; it is charged as time to its
//! [`Op`] but records no post, pending count or overlap window. So the
//! blocking and split-phase forms put identical tags, words and messages
//! on the wire.
//!
//! Every payload word and message is recorded in the rank's
//! [`CommStats`](crate::stats::CommStats) so tests can compare counted
//! communication against the paper's Table 2 formulas.
//!
//! ## Allocation discipline
//!
//! The hot collectives come in two forms: allocating (`all_reduce`,
//! `all_gatherv`, `reduce_scatter`) and caller-owned-output `_into`
//! variants (`all_reduce_into`, `all_gather_into`, `all_gatherv_into`,
//! `reduce_scatter_into`). The `_into` variants, combined with the
//! communicator's staging arena (see `comm::Arena`), perform **zero heap
//! allocations in steady state**: Bruck's rotated block buffer, the
//! halving accumulator, and all prefix-sum tables are checked out of the
//! arena and returned, retaining their capacity between calls. The NMF
//! iteration loops call only the `_into` forms. (Message payloads
//! crossing the channel transport are still boxed by the transport — that
//! is the virtual interconnect, not the compute path.)

use crate::comm::{Comm, Kind};
use crate::pending::Counts;
use crate::stats::Op;

/// `⌈log₂ p⌉` (0 for p ≤ 1); the latency factor of every collective here.
pub fn log2_ceil(p: usize) -> u32 {
    if p <= 1 {
        0
    } else {
        usize::BITS - (p - 1).leading_zeros()
    }
}

/// Largest power of two `≤ p`.
pub fn prev_pow2(p: usize) -> usize {
    assert!(p >= 1);
    1 << (usize::BITS - 1 - p.leading_zeros())
}

impl Comm {
    // ------------------------------------------------------------------
    // all-gather / reduce-scatter / all-reduce: machines driven inline
    // ------------------------------------------------------------------

    /// All-gather with equal block sizes: every rank contributes `send`
    /// and receives the concatenation over ranks in rank order.
    pub fn all_gather(&self, send: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; send.len() * self.size()];
        self.all_gather_into(send, &mut out);
        out
    }

    /// Equal-block all-gather into caller-owned `out`
    /// (`send.len() * size()` words, blocks in rank order).
    pub fn all_gather_into(&self, send: &[f64], out: &mut [f64]) {
        self.timed(Op::AllGather, || {
            self.all_gatherv_machine(send, Counts::Eq(send.len()))
                .complete_into(&self.core, Op::AllGather, out)
        });
    }

    /// All-gather with per-rank block sizes (`counts[r]` is rank `r`'s
    /// contribution length; must all be known on every rank, as in
    /// `MPI_Allgatherv`).
    pub fn all_gatherv(&self, send: &[f64], counts: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; counts.iter().sum()];
        self.all_gatherv_into(send, counts, &mut out);
        out
    }

    /// `v`-variant all-gather into caller-owned `out` (length must equal
    /// the sum of `counts`). Uniform counts (as produced by evenly
    /// divisible grids) take the equal-block fast path and skip the
    /// rotated prefix table.
    pub fn all_gatherv_into(&self, send: &[f64], counts: &[usize], out: &mut [f64]) {
        self.timed(Op::AllGather, || {
            self.all_gatherv_machine(send, Counts::per_rank(counts, self.size()))
                .complete_into(&self.core, Op::AllGather, out)
        });
    }

    /// Reduce-scatter: element-wise sums `data` across ranks and leaves
    /// rank `r` with the segment of length `counts[r]` (segments in rank
    /// order). Recursive-halving algorithm with a fold step for
    /// non-power-of-two `p`.
    pub fn reduce_scatter(&self, data: &[f64], counts: &[usize]) -> Vec<f64> {
        let mut out = vec![0.0; counts[self.rank()]];
        self.reduce_scatter_into(data, counts, &mut out);
        out
    }

    /// Reduce-scatter into caller-owned `out` (length `counts[rank]`).
    pub fn reduce_scatter_into(&self, data: &[f64], counts: &[usize], out: &mut [f64]) {
        self.timed(Op::ReduceScatter, || {
            self.reduce_scatter_machine(data, counts).complete_into(
                &self.core,
                Op::ReduceScatter,
                out,
            )
        });
    }

    /// All-reduce (element-wise sum) via Rabenseifner's algorithm:
    /// reduce-scatter over near-equal segments, then all-gather.
    pub fn all_reduce(&self, data: &[f64]) -> Vec<f64> {
        let mut out = data.to_vec();
        self.all_reduce_into(&mut out);
        out
    }

    /// In-place all-reduce: on return every rank's `data` holds the
    /// element-wise sum across ranks. Zero allocations in steady state
    /// (scratch comes from the communicator arena).
    pub fn all_reduce_into(&self, data: &mut [f64]) {
        self.timed(Op::AllReduce, || {
            self.all_reduce_machine(data)
                .complete_into(&self.core, Op::AllReduce, data)
        });
    }

    /// Convenience: all-reduce of one scalar.
    pub fn all_reduce_scalar(&self, x: f64) -> f64 {
        let mut v = [x];
        self.all_reduce_into(&mut v);
        v[0]
    }

    // ------------------------------------------------------------------
    // broadcast / gather / scatter / barrier
    // ------------------------------------------------------------------

    /// Broadcast `data` from `root` (non-roots pass anything, e.g. `&[]`).
    pub fn broadcast(&self, root: usize, data: &[f64]) -> Vec<f64> {
        let seq = self.next_seq();
        self.timed(Op::Broadcast, || {
            self.binomial_bcast(root, data.to_vec(), seq, Op::Broadcast)
        })
    }

    fn binomial_bcast(&self, root: usize, data: Vec<f64>, seq: u64, op: Op) -> Vec<f64> {
        let p = self.size();
        if p == 1 {
            return data;
        }
        let r = self.rank();
        let vr = (r + p - root) % p;
        let t = |round: u64| self.tag(Kind::Broadcast, (seq << 6) | 32 | round);
        let mut buf = data;
        let mut dist = 1usize;
        let mut round = 0u64;
        while dist < p {
            if vr < dist {
                if vr + dist < p {
                    let dst = (vr + dist + root) % p;
                    self.send_op(dst, t(round), &buf, op);
                }
            } else if vr < 2 * dist {
                let src = (vr - dist + root) % p;
                buf = self.recv_op(src, t(round)).into_vec();
            }
            dist <<= 1;
            round += 1;
        }
        buf
    }

    /// Gathers every rank's `send` at `root`; returns `Some(blocks)` in
    /// rank order at the root, `None` elsewhere. Direct sends (used
    /// outside the iteration loop only).
    pub fn gather(&self, root: usize, send: &[f64]) -> Option<Vec<Vec<f64>>> {
        let p = self.size();
        let r = self.rank();
        let seq = self.next_seq();
        self.timed(Op::Gather, || {
            let tag = self.tag(Kind::Gather, seq << 6);
            if r == root {
                let mut out = Vec::with_capacity(p);
                for src in 0..p {
                    if src == root {
                        out.push(send.to_vec());
                    } else {
                        out.push(self.recv_op(src, tag).into_vec());
                    }
                }
                Some(out)
            } else {
                self.send_op(root, tag, send, Op::Gather);
                None
            }
        })
    }

    /// Scatters `chunks[i]` from `root` to rank `i`; returns this rank's
    /// chunk. Non-roots pass `None`.
    pub fn scatter(&self, root: usize, chunks: Option<&[Vec<f64>]>) -> Vec<f64> {
        let p = self.size();
        let r = self.rank();
        let seq = self.next_seq();
        self.timed(Op::Scatter, || {
            let tag = self.tag(Kind::Scatter, seq << 6);
            if r == root {
                let chunks = chunks.expect("root must supply scatter chunks");
                assert_eq!(chunks.len(), p, "scatter needs one chunk per rank");
                for (dst, chunk) in chunks.iter().enumerate() {
                    if dst != root {
                        self.send_op(dst, tag, chunk, Op::Scatter);
                    }
                }
                chunks[root].clone()
            } else {
                self.recv_op(root, tag).into_vec()
            }
        })
    }

    /// Dissemination barrier: `⌈log₂ p⌉` rounds of empty messages; no
    /// rank exits before every rank has entered.
    pub fn barrier(&self) {
        let p = self.size();
        if p == 1 {
            return;
        }
        let r = self.rank();
        let seq = self.next_seq();
        self.timed(Op::Barrier, || {
            let mut dist = 1usize;
            let mut round = 0u64;
            while dist < p {
                let tag = self.tag(Kind::Barrier, (seq << 6) | round);
                let dst = (r + dist) % p;
                let src = (r + p - dist) % p;
                let _ = self.exchange(dst, src, tag, &[], Op::Barrier);
                dist <<= 1;
                round += 1;
            }
        });
    }
}
