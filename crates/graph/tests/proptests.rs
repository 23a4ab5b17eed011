//! Property-based tests for the graph substrate.

use diffnet_graph::generators::degree_sequence::{
    configuration_model, powerlaw_degrees, powerlaw_degrees_with_mean,
};
use diffnet_graph::generators::{orient, Orientation};
use diffnet_graph::{stats, DiGraph, NodeId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // CSR adjacency is sorted and consistent with has_edge / edge_index.
    #[test]
    fn adjacency_sorted_and_consistent(
        edges in proptest::collection::vec((0u32..25, 0u32..25), 0..120)
    ) {
        let g = DiGraph::from_edges(25, &edges);
        for u in g.nodes() {
            let out = g.out_neighbors(u);
            prop_assert!(out.windows(2).all(|w| w[0] < w[1]), "sorted out({u})");
            for &v in out {
                prop_assert!(g.has_edge(u, v));
                prop_assert!(g.edge_index(u, v).is_some());
                prop_assert!(g.in_neighbors(v).contains(&u));
            }
        }
        let total_out: usize = g.nodes().map(|u| g.out_degree(u)).sum();
        let total_in: usize = g.nodes().map(|u| g.in_degree(u)).sum();
        prop_assert_eq!(total_out, g.edge_count());
        prop_assert_eq!(total_in, g.edge_count());
    }

    // Edge indices are a permutation of 0..m.
    #[test]
    fn edge_indices_are_dense(
        edges in proptest::collection::vec((0u32..15, 0u32..15), 0..60)
    ) {
        let g = DiGraph::from_edges(15, &edges);
        let mut seen = vec![false; g.edge_count()];
        for (u, v) in g.edges() {
            let idx = g.edge_index(u, v).expect("edge exists");
            prop_assert!(!seen[idx]);
            seen[idx] = true;
        }
        prop_assert!(seen.iter().all(|&b| b));
    }

    // The configuration model yields a simple undirected graph whose
    // degrees never exceed the requested sequence.
    #[test]
    fn configuration_model_is_simple_and_bounded(
        degrees in proptest::collection::vec(0usize..6, 2..40),
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = configuration_model(&degrees, &mut rng);
        let mut seen = std::collections::HashSet::new();
        let mut realized = vec![0usize; degrees.len()];
        for &(u, v) in &edges {
            prop_assert!(u < v, "canonical order");
            prop_assert!(seen.insert((u, v)), "no duplicates");
            realized[u as usize] += 1;
            realized[v as usize] += 1;
        }
        for (i, (&r, &d)) in realized.iter().zip(&degrees).enumerate() {
            prop_assert!(r <= d, "node {i}: realized {r} > requested {d}");
        }
    }

    // Power-law sampling respects its bounds for any valid parameters.
    #[test]
    fn powerlaw_respects_bounds(
        exponent in 0.5f64..4.0,
        kmin in 1usize..5,
        extra in 0usize..20,
        seed in 0u64..1000,
    ) {
        let kmax = kmin + extra;
        let mut rng = StdRng::seed_from_u64(seed);
        let d = powerlaw_degrees(200, exponent, kmin, kmax, &mut rng);
        prop_assert!(d.iter().all(|&k| k >= kmin && k <= kmax));
    }

    // Mean-targeted sampling lands near the target whenever it is
    // attainable within the bounds.
    #[test]
    fn powerlaw_mean_targeting(
        mean in 2.0f64..8.0,
        exponent in 1.0f64..3.0,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let d = powerlaw_degrees_with_mean(400, mean, exponent, 40, &mut rng);
        let realized = d.iter().sum::<usize>() as f64 / d.len() as f64;
        prop_assert!((realized - mean).abs() < 0.5,
            "target {}, realized {}", mean, realized);
    }

    // Random orientation keeps exactly one direction per undirected edge;
    // reciprocal keeps both.
    #[test]
    fn orientation_invariants(
        pairs in proptest::collection::vec((0u32..20, 0u32..20), 0..50),
        seed in 0u64..1000,
    ) {
        let und: Vec<(NodeId, NodeId)> = pairs
            .into_iter()
            .filter(|(u, v)| u != v)
            .map(|(u, v)| if u < v { (u, v) } else { (v, u) })
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let g1 = orient(20, &und, Orientation::Random, &mut rng);
        prop_assert_eq!(g1.edge_count(), und.len());
        for &(u, v) in &und {
            prop_assert!(g1.has_edge(u, v) ^ g1.has_edge(v, u));
        }
        let g2 = orient(20, &und, Orientation::Reciprocal, &mut rng);
        prop_assert_eq!(g2.edge_count(), 2 * und.len());
        prop_assert!((stats::reciprocity(&g2) - 1.0).abs() < 1e-12 || und.is_empty());
    }

    // Reversal is an involution and preserves degree totals.
    #[test]
    fn reversal_involution(
        edges in proptest::collection::vec((0u32..15, 0u32..15), 0..60)
    ) {
        let g = DiGraph::from_edges(15, &edges);
        let rr = g.reversed().reversed();
        prop_assert_eq!(g.edge_vec(), rr.edge_vec());
        for u in g.nodes() {
            prop_assert_eq!(g.out_degree(u), g.reversed().in_degree(u));
        }
    }

    // Weak components never increase when adding edges.
    #[test]
    fn components_monotone(
        edges in proptest::collection::vec((0u32..12, 0u32..12), 1..40)
    ) {
        let partial = DiGraph::from_edges(12, &edges[..edges.len() / 2]);
        let full = DiGraph::from_edges(12, &edges);
        prop_assert!(
            stats::weakly_connected_components(&full)
                <= stats::weakly_connected_components(&partial)
        );
    }
}

/// One piece of a hostile edge list: raw bytes, an id below 2^20, an id
/// above `u32::MAX`, a separator, or an `# edges:` header. Ids between
/// 2^20 and `u32::MAX` are left out: they are valid, and a graph that
/// large is a memory test, not a parser test.
fn edge_list_piece() -> impl Strategy<Value = Vec<u8>> {
    (
        0u8..6,
        proptest::collection::vec(any::<u8>(), 0..6),
        0u64..1 << 20,
        u64::from(u32::MAX) + 1..u64::MAX,
    )
        .prop_map(|(kind, raw, small, huge)| match kind {
            0 => raw,
            1 | 2 => small.to_string().into_bytes(),
            3 => huge.to_string().into_bytes(),
            4 => [b" ", b",", b"\n", b"#"][raw.len() % 4].to_vec(),
            _ => format!("# edges: {small}\n").into_bytes(),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Arbitrary bytes never panic the edge-list reader: the answer is a
    // graph or a typed error.
    #[test]
    fn edge_list_reader_never_panics(
        pieces in proptest::collection::vec(edge_list_piece(), 0..40),
    ) {
        let bytes = pieces.concat();
        for n in [None, Some(1usize << 10)] {
            if let Ok(g) = diffnet_graph::io::read_edge_list(bytes.as_slice(), n) {
                prop_assert!(g.edges().all(|(u, v)| (u.max(v) as usize) < g.node_count()));
            }
        }
    }
}
