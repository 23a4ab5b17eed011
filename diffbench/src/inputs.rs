//! Workload inputs, generated from the workload seed: LFR graphs and the
//! final infection statuses of independent-cascade processes on them.
//! The program under test only ever sees the serialized status bytes.

use std::ops::Range;

use diffnet_graph::generators::Lfr;
use diffnet_graph::DiGraph;
use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade, StatusMatrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// LFR mean degree `k` and degree exponent `t`.
const LFR_MEAN_DEGREE: f64 = 4.0;
const LFR_DEGREE_EXPONENT: f64 = 2.0;
/// Propagation probabilities are drawn from N(μ, σ), clamped by the model.
const PROB_MEAN: f64 = 0.3;
const PROB_SD: f64 = 0.05;
/// Share of nodes seeded as initially infected in each cascade (α).
const INITIAL_RATIO: f64 = 0.15;

/// Derives the seed of input `index` from the workload seed.
pub fn sub_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(index.wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(1);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A generating graph and `beta` cascades' final statuses on it.
pub fn lfr_statuses(n: usize, beta: usize, seed: u64) -> (DiGraph, StatusMatrix) {
    // LFR generation can fail to place every stub for an unlucky draw;
    // retrying with the next derived seed keeps the input a pure
    // function of `seed`.
    let (graph, mut rng) = (0..64)
        .find_map(|attempt| {
            let mut rng = StdRng::seed_from_u64(sub_seed(seed, attempt));
            Lfr::new(n, LFR_MEAN_DEGREE, LFR_DEGREE_EXPONENT)
                .generate(&mut rng)
                .ok()
                .map(|g| (g, rng))
        })
        .expect("LFR generation succeeds within 64 seeds");
    let probs = EdgeProbs::gaussian(&graph, PROB_MEAN, PROB_SD, &mut rng);
    let cfg = IcConfig {
        initial_ratio: INITIAL_RATIO,
        num_processes: beta,
    };
    let statuses = IndependentCascade::new(&graph, &probs)
        .observe(cfg, &mut rng)
        .statuses;
    (graph, statuses)
}

/// The status-matrix text the CLI and the daemon read.
pub fn to_bytes(m: &StatusMatrix) -> Vec<u8> {
    let mut out = Vec::with_capacity(m.num_processes() * (2 * m.num_nodes() + 1) + 64);
    diffnet_simulate::io::write_status_matrix(m, &mut out).expect("writing to a Vec cannot fail");
    out
}

/// Rows `range` of `m`, as a matrix of their own.
pub fn rows(m: &StatusMatrix, range: Range<usize>) -> StatusMatrix {
    let n = m.num_nodes();
    let mut out = StatusMatrix::new(range.len(), n);
    for (dst, l) in range.enumerate() {
        for i in 0..n as u32 {
            if m.get(l, i) {
                out.set(dst, i);
            }
        }
    }
    out
}
