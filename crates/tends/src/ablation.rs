//! Ablation variants of TENDS used by the benchmark suite.

use crate::imi::CorrelationMatrix;
use crate::kmeans::pinned_two_means;
use crate::TendsConfig;
use diffnet_graph::{DiGraph, GraphBuilder, NodeId};
use diffnet_observe::Recorder;
use diffnet_simulate::StatusMatrix;

/// "TENDS minus the scoring criterion": connect every node pair whose
/// pairwise correlation exceeds the pruning threshold, in both directions,
/// with no parent-set scoring at all.
///
/// This isolates the contribution of the decomposable scoring criterion
/// (§IV-A): the pruning stage alone already encodes "correlated pairs are
/// likely edges", so any accuracy gap between this baseline and full TENDS
/// is attributable to the likelihood/penalty scoring and greedy search.
pub fn correlation_threshold_baseline(statuses: &StatusMatrix, config: &TendsConfig) -> DiGraph {
    let n = statuses.num_nodes();
    let cols = statuses.columns();
    let corr = CorrelationMatrix::compute_observed(
        &cols,
        config.correlation,
        config.threads,
        Recorder::disabled(),
    );
    let tau = config
        .threshold
        .resolve(pinned_two_means(&corr.upper_triangle()).tau);

    let mut b = GraphBuilder::new(n);
    for i in 0..n as NodeId {
        for j in (i + 1)..n as NodeId {
            if corr.get(i, j) > tau {
                b.add_reciprocal(i, j);
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Tends, ThresholdMode};
    use diffnet_metrics::EdgeSetComparison;
    use diffnet_simulate::{EdgeProbs, IcConfig, IndependentCascade};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn workload() -> (DiGraph, StatusMatrix) {
        // A reciprocal ladder with some long-range rungs.
        let mut b = GraphBuilder::new(16);
        for i in 0..15u32 {
            b.add_reciprocal(i, i + 1);
        }
        b.add_reciprocal(0, 8);
        b.add_reciprocal(4, 12);
        let truth = b.build();
        let mut rng = StdRng::seed_from_u64(13);
        let probs = EdgeProbs::constant(&truth, 0.4);
        let obs = IndependentCascade::new(&truth, &probs).observe(
            IcConfig {
                initial_ratio: 0.2,
                num_processes: 400,
            },
            &mut rng,
        );
        (truth, obs.statuses)
    }

    #[test]
    fn baseline_produces_symmetric_graph() {
        let (_, statuses) = workload();
        let g = correlation_threshold_baseline(&statuses, &TendsConfig::default());
        for (u, v) in g.edges() {
            assert!(g.has_edge(v, u));
        }
    }

    #[test]
    fn scoring_beats_pruning_alone() {
        let (truth, statuses) = workload();
        let naive = correlation_threshold_baseline(&statuses, &TendsConfig::default());
        let full = Tends::new()
            .reconstruct(&statuses)
            .expect("search fits")
            .graph;
        let f_naive = EdgeSetComparison::against_truth(&truth, &naive).f_score();
        let f_full = EdgeSetComparison::against_truth(&truth, &full).f_score();
        assert!(
            f_full >= f_naive,
            "scoring criterion must not hurt: full {f_full} vs naive {f_naive}"
        );
    }

    #[test]
    fn fixed_threshold_respected() {
        let (_, statuses) = workload();
        let cfg = TendsConfig {
            threshold: ThresholdMode::Fixed(100.0),
            ..Default::default()
        };
        let g = correlation_threshold_baseline(&statuses, &cfg);
        assert_eq!(g.edge_count(), 0);
    }
}
