//! `rel_error` recorded per workload and seed (seeds 0 to 10). A run at
//! a recorded seed must reproduce it; other seeds are checked for
//! run-to-run identity only. Regenerate after a change that is meant to
//! move the factorization: print the `rel_error` of
//! `--workload all --short --trace 0` for each seed.

const RECORDED: &[(&str, u64, f64)] = &[
    ("dense-bpp", 0, 0.48091279613379745),
    ("sparse-spmm", 0, 0.9910941903238276),
    ("webgraph-comm", 0, 0.37927064179778647),
    ("serve-mix", 0, 0.47902298519102693),
    ("dense-bpp", 1, 0.48083233670851544),
    ("sparse-spmm", 1, 0.991315560085651),
    ("webgraph-comm", 1, 0.3858280350981563),
    ("serve-mix", 1, 0.47764589786995876),
    ("dense-bpp", 2, 0.48103336789482826),
    ("sparse-spmm", 2, 0.991341480311402),
    ("webgraph-comm", 2, 0.3804383769480856),
    ("serve-mix", 2, 0.47955780479351784),
    ("dense-bpp", 3, 0.48114753167023905),
    ("sparse-spmm", 3, 0.9910993179193528),
    ("webgraph-comm", 3, 0.38942065496932576),
    ("serve-mix", 3, 0.4780678131548028),
    ("dense-bpp", 4, 0.4809947865111862),
    ("sparse-spmm", 4, 0.9913203330535626),
    ("webgraph-comm", 4, 0.39138144812545456),
    ("serve-mix", 4, 0.477870455844303),
    ("dense-bpp", 5, 0.4807528888343389),
    ("sparse-spmm", 5, 0.9913240162718759),
    ("webgraph-comm", 5, 0.38713893823693685),
    ("serve-mix", 5, 0.47799138440090166),
    ("dense-bpp", 6, 0.4807351156681458),
    ("sparse-spmm", 6, 0.9913092352927408),
    ("webgraph-comm", 6, 0.40449957628668376),
    ("serve-mix", 6, 0.47752093964112347),
    ("dense-bpp", 7, 0.48103793594647326),
    ("sparse-spmm", 7, 0.991328748568659),
    ("webgraph-comm", 7, 0.3991807098867983),
    ("serve-mix", 7, 0.47775117007334417),
    ("dense-bpp", 8, 0.4809991643131937),
    ("sparse-spmm", 8, 0.9910937120495521),
    ("webgraph-comm", 8, 0.3866027796469851),
    ("serve-mix", 8, 0.47832133198807103),
    ("dense-bpp", 9, 0.48116212657745583),
    ("sparse-spmm", 9, 0.9911074147647607),
    ("webgraph-comm", 9, 0.3738695349695264),
    ("serve-mix", 9, 0.4788797484348424),
    ("dense-bpp", 10, 0.48072967558284574),
    ("sparse-spmm", 10, 0.9913070188720877),
    ("webgraph-comm", 10, 0.3811424721646015),
    ("serve-mix", 10, 0.4782242671925262),
];

pub fn rel_error(workload: &str, seed: u64) -> Option<f64> {
    RECORDED
        .iter()
        .find(|(w, s, _)| *w == workload && *s == seed)
        .map(|&(_, _, v)| v)
}
