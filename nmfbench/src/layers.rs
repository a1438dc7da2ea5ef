//! Per-layer measurements for the traced run: each layer is timed from
//! outside, through its public functions, at the shapes the workload's
//! ranks use. Computed counts (flops, bytes, model predictions) are set
//! beside the timings and labelled as computed in the detail line.

use crate::factor::SolveSamples;
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::Profile;
use hpc_nmf::dist::Dist1D;
use hpc_nmf::{Grid, Input};
use nmf_data::{KernelRates, PerfModel};
use nmf_matrix::Mat;
use nmf_nls::{Bpp, Hals, NlsSolver};
use nmf_sparse::{Csr, SpBlock};
use nmf_vmpi::{CostModel, Op};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` at least `min_reps` times and for at least `budget`;
/// returns the median call in milliseconds.
fn time_ms(budget: Duration, min_reps: usize, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < min_reps || start.elapsed() < budget {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64() * 1e3);
        if samples.len() >= 10_000 {
            break;
        }
    }
    median(&samples)
}

/// Rank 0's block of the input under `grid`, and its row/column ranges.
struct RankBlock {
    rows: (usize, usize),
    cols: (usize, usize),
    dense: Option<Mat>,
    sparse: SpBlock,
}

fn rank_block(input: &Input, grid: Grid) -> RankBlock {
    let (m, n) = input.shape();
    let r = Dist1D::new(m, grid.pr).part(0);
    let c = Dist1D::new(n, grid.pc).part(0);
    let (dense, csr) = match input {
        Input::Dense(a) => {
            let b = a.block(r.offset, c.offset, r.len, c.len);
            let csr = Csr::from_dense(&b);
            (Some(b), csr)
        }
        Input::Sparse(a) => (None, a.block(r.offset, c.offset, r.len, c.len)),
    };
    RankBlock {
        rows: (r.offset, r.len),
        cols: (c.offset, c.len),
        dense,
        sparse: SpBlock::from_csr(csr),
    }
}

/// Measures every layer and sets its metrics. `w` and `h` are the
/// workload's factors after its timed episode; `grid` and `ranks` are
/// the model's.
#[allow(clippy::too_many_arguments)]
pub fn measure(
    profile: &Profile,
    w: &Mat,
    h: &Mat,
    grid: Grid,
    ranks: usize,
    samples: &SolveSamples,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let each = budget / 8;
    let k = profile.k;
    let ht = h.transpose();
    let block = rank_block(&profile.input, grid);
    let (r0, mr) = block.rows;
    let (c0, nc) = block.cols;
    let w_loc = w.rows_block(r0, mr);
    let ht_loc = ht.rows_block(c0, nc);

    // nmf_matrix: the rank's MM products on dense inputs; on sparse
    // inputs, where MM is SpMM, the factor-sized products the engine
    // runs (factor times Gram, and the k×k cross term).
    let span = tracer.begin("layer.matrix", None, 0);
    let (gemm_ms, flops, bytes) = match &block.dense {
        Some(a) => {
            let mut v = Mat::zeros(mr, k);
            let mut y = Mat::zeros(nc, k);
            let t1 = time_ms(each / 2, 5, || nmf_matrix::matmul_into(a, &ht_loc, &mut v));
            let t2 = time_ms(each / 2, 5, || {
                nmf_matrix::matmul_ta_into(a, &w_loc, &mut y)
            });
            let product_bytes = 8.0 * (mr * nc + nc * k + mr * k) as f64;
            (
                t1 + t2,
                2.0 * 2.0 * (mr * nc * k) as f64,
                2.0 * product_bytes,
            )
        }
        None => {
            let g = nmf_matrix::gram(&ht);
            let v = nmf_matrix::matmul(&w_loc, &g);
            let mut out = Mat::zeros(mr, k);
            let mut cross = Mat::zeros(k, k);
            let t1 = time_ms(each / 2, 5, || {
                nmf_matrix::matmul_into(&w_loc, &g, &mut out)
            });
            let t2 = time_ms(each / 2, 5, || {
                nmf_matrix::matmul_ta_into(&w_loc, &v, &mut cross)
            });
            let bytes = 8.0 * ((mr * k + k * k + mr * k) + (2 * mr * k + k * k)) as f64;
            (t1 + t2, 2.0 * 2.0 * (mr * k * k) as f64, bytes)
        }
    };
    report.set("matrix.gemm.ms", gemm_ms);
    report.set("matrix.gemm.gflops", flops / (gemm_ms * 1e-3) / 1e9);
    report.set("matrix.gemm.flops", flops);
    report.set("matrix.gemm.bytes", bytes);
    report.set("matrix.gemm.flops_per_byte", flops / bytes);
    let rates: Vec<KernelRates> = (0..3).map(|_| KernelRates::calibrate()).collect();
    let peak = rates.iter().map(|r| r.mm_flops).fold(0.0, f64::max);
    report.set("matrix.peak_gflops", peak / 1e9);
    let wslice = Dist1D::new(w.nrows(), grid.size()).part(0);
    let w_slice = w.rows_block(wslice.offset, wslice.len);
    let mut g = Mat::zeros(k, k);
    report.set(
        "matrix.gram.ms",
        time_ms(each / 2, 5, || nmf_matrix::gram_into(&w_slice, &mut g)),
    );
    tracer.end(span);

    // nmf_sparse: the rank block (on dense inputs, its CSR form — what
    // the sparse path would cost on this input).
    let span = tracer.begin("layer.sparse", None, 0);
    let csr = block.sparse.csr();
    let nnz = csr.nnz();
    let mut v = Mat::zeros(mr, k);
    let mut y = Mat::zeros(nc, k);
    report.set(
        "sparse.spmm_t.ms",
        time_ms(each / 2, 5, || {
            nmf_sparse::spmm_dense_t_into(csr, &ht_loc, &mut v)
        }),
    );
    report.set(
        "sparse.spmm_at.ms",
        time_ms(each / 2, 5, || {
            nmf_sparse::spmm_at_dense_auto_into(csr, block.sparse.csc(), &w_loc, &mut y)
        }),
    );
    // Per product: values and column indices once, row pointers, the
    // dense operand and the output.
    let sp_bytes = 8.0 * (2 * nnz + mr + 1 + nc * k + mr * k) as f64;
    report.set("sparse.spmm.nnz", nnz as f64);
    report.set("sparse.spmm.bytes", sp_bytes);
    report.set(
        "sparse.spmm.flops_per_byte",
        2.0 * (nnz * k) as f64 / sp_bytes,
    );
    report.set(
        "sparse.csc_routed",
        f64::from(u8::from(nmf_sparse::csc_chosen(nc, k))),
    );
    tracer.end(span);

    // nmf_nls: the W-update rank 0 solves, rebuilt from the factors.
    let span = tracer.begin("layer.nls", None, 0);
    let gram = nmf_matrix::gram(&ht);
    let rows = wslice;
    let ctb = match &profile.input {
        Input::Dense(a) => nmf_matrix::matmul(&a.rows_block(rows.offset, rows.len), &ht),
        Input::Sparse(a) => nmf_sparse::spmm_dense_t(&a.rows_block(rows.offset, rows.len), &ht),
    };
    let x0 = w.rows_block(rows.offset, rows.len);
    let mut bpp = Bpp::default();
    let mut x = x0.clone();
    let bpp_ms = time_ms(each, 3, || {
        x.copy_from(&x0);
        bpp.update(&gram, &ctb, &mut x);
    });
    report.set("nls.bpp.ms", bpp_ms);
    report.set("nls.bpp.us_per_row", bpp_ms * 1e3 / rows.len.max(1) as f64);
    let masks: HashSet<u64> = (0..x.nrows())
        .map(|i| {
            x.row(i)
                .iter()
                .enumerate()
                .fold(0u64, |acc, (j, &v)| acc | (u64::from(v > 0.0) << (j % 64)))
        })
        .collect();
    report.set(
        "nls.support_masks_per_row",
        masks.len() as f64 / x.nrows().max(1) as f64,
    );
    let mut hals = Hals::default();
    report.set(
        "nls.hals.ms",
        time_ms(each / 2, 3, || {
            x.copy_from(&x0);
            hals.update(&gram, &ctb, &mut x);
        }),
    );
    tracer.end(span);

    // nmf_vmpi: the collectives two ranks run per iteration, at this
    // workload's counts.
    let span = tracer.begin("layer.vmpi", None, 0);
    let (m, n) = profile.input.shape();
    let gathered = if grid.pr > 1 { n } else { m };
    let counts = Dist1D::new(gathered, 2).lens_scaled(k);
    let total: usize = counts.iter().sum();
    let reps = (20_000_000 / total.max(1)).clamp(10, 200);
    let times = nmf_vmpi::run(2, |comm| {
        let mine = vec![1.0; counts[comm.rank()]];
        let full = vec![1.0; total];
        let mut out_all = vec![0.0; total];
        let mut out_mine = vec![0.0; counts[comm.rank()]];
        let mut grams = vec![1.0; k * k];
        let mut t = [
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
            Vec::new(),
        ];
        for _ in 0..reps {
            let s = Instant::now();
            comm.all_gatherv_into(&mine, &counts, &mut out_all);
            t[0].push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            comm.reduce_scatter_into(&full, &counts, &mut out_mine);
            t[1].push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            comm.all_reduce_into(&mut grams);
            t[2].push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            comm.post_all_gatherv(&mine, &counts).wait(&mut out_all);
            t[3].push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            comm.post_reduce_scatter(&full, &counts).wait(&mut out_mine);
            t[4].push(s.elapsed().as_secs_f64() * 1e3);
            let s = Instant::now();
            let snapshot = grams.clone();
            comm.post_all_reduce(&snapshot).wait(&mut grams);
            t[5].push(s.elapsed().as_secs_f64() * 1e3);
            grams.fill(1.0);
        }
        black_box(&out_all);
        t.map(|v| median(&v))
    });
    let t = &times[0].result;
    for (i, name) in [
        "vmpi.all_gather.ms",
        "vmpi.reduce_scatter.ms",
        "vmpi.all_reduce.ms",
        "vmpi.all_gather.posted_ms",
        "vmpi.reduce_scatter.posted_ms",
        "vmpi.all_reduce.posted_ms",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, t[i]);
    }
    report.ok_n(6 * reps as u64);
    let (words, messages) = samples.comm_per_iter.unwrap_or((0.0, 0.0));
    report.set("vmpi.words_per_iter", words);
    report.set("vmpi.messages_per_iter", messages);
    let workload = if profile.input.is_sparse() {
        nmf_data::Workload::sparse(m, n, k, profile.input.nnz())
    } else {
        nmf_data::Workload::dense(m, n, k)
    };
    // β = 1 s/word and α = γ = 0 turn the model's seconds into words
    // per rank.
    let word_model = PerfModel {
        net: CostModel {
            alpha: 0.0,
            beta: 1.0,
            gamma: 0.0,
        },
        rates: KernelRates::default(),
    };
    let per_rank = word_model.breakdown(&workload, profile.algo, ranks).comm();
    report.set("vmpi.model_words_per_iter", per_rank * ranks as f64);
    tracer.end(span);

    // hpc_nmf engine: per-iteration task times from Model::records.
    let recs = &samples.records;
    let per = |f: &dyn Fn(&hpc_nmf::IterRecord) -> Duration| -> f64 {
        median(
            &recs
                .iter()
                .map(|(r, _)| f(r).as_secs_f64() * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    report.set("core.engine.mm_ms", per(&|r| r.compute.mm));
    report.set("core.engine.nls_ms", per(&|r| r.compute.nls));
    report.set("core.engine.gram_ms", per(&|r| r.compute.gram));
    report.set(
        "core.engine.all_gather_ms",
        per(&|r| r.comm.op(Op::AllGather).time),
    );
    report.set(
        "core.engine.reduce_scatter_ms",
        per(&|r| r.comm.op(Op::ReduceScatter).time),
    );
    report.set(
        "core.engine.all_reduce_ms",
        per(&|r| r.comm.op(Op::AllReduce).time),
    );
    report.set("core.engine.overlap_ms", per(&|r| r.comm.total_overlap()));
    let unattributed: Vec<f64> = recs
        .iter()
        .map(|(r, wall_ms)| {
            let attributed = (r.compute.total() + r.comm.total_time()).as_secs_f64() * 1e3;
            (wall_ms - attributed) / wall_ms
        })
        .collect();
    report.set_sampled(
        "core.session.unattributed_frac",
        median(&unattributed),
        unattributed.len(),
    );
    let calibrated = PerfModel {
        net: CostModel::edison_like(),
        rates: rates[0],
    };
    report.set(
        "core.engine.model_ms",
        calibrated.breakdown(&workload, profile.algo, ranks).total() * 1e3,
    );
}

/// Cold and warm builds on one shared input: the cold build shards the
/// input, the warm one reuses the shards, so their difference is the
/// extraction.
pub fn measure_build(profile: &Profile, tracer: &mut Tracer, report: &mut Report) {
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    for rep in 0..3 {
        let shared = hpc_nmf::SharedInput::new(profile.input.clone());
        for (i, out) in [&mut cold, &mut warm].into_iter().enumerate() {
            let span = tracer.begin(
                if i == 0 {
                    "hpc_nmf.build.cold"
                } else {
                    "hpc_nmf.build.warm"
                },
                None,
                rep,
            );
            let t = Instant::now();
            let built = crate::factor::build(profile, &shared);
            out.push(t.elapsed().as_secs_f64() * 1e3);
            tracer.end(span);
            report.check(built.is_ok(), || format!("{}: build failed", profile.label));
        }
        report.check(shared.extractions() == 1, || {
            format!(
                "{}: {} extractions for two builds on one grid",
                profile.label,
                shared.extractions()
            )
        });
    }
    let (c, wm) = (median(&cold), median(&warm));
    report.set("core.session.build_ms", c);
    report.set("core.shared.extract_ms", c - wm);
}
