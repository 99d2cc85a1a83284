//! Property tests for the graph substrate.

use proptest::prelude::*;
use smartsage_graph::csr::{CsrGraph, NEIGHBOR_ENTRY_BYTES};
use smartsage_graph::degree::DegreeStats;
use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
use smartsage_graph::kronecker::{expand, KroneckerConfig};
use smartsage_graph::NodeId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn csr_builder_matches_adjacency_reference(
        nodes in 1usize..60,
        edges in proptest::collection::vec((0u32..60, 0u32..60), 0..200),
    ) {
        let edges: Vec<(u32, u32)> = edges
            .into_iter()
            .map(|(a, b)| (a % nodes as u32, b % nodes as u32))
            .collect();
        let g = CsrGraph::from_edges(nodes, edges.clone());
        prop_assert!(g.validate().is_ok());
        prop_assert_eq!(g.num_edges(), edges.len() as u64);
        // Reference adjacency: per-source multiset of destinations.
        let mut want: Vec<Vec<u32>> = vec![Vec::new(); nodes];
        for (s, d) in &edges {
            want[*s as usize].push(*d);
        }
        for (n, want_n) in want.iter_mut().enumerate() {
            let mut got: Vec<u32> = g
                .neighbors(NodeId::new(n as u32))
                .iter()
                .map(|x| x.raw())
                .collect();
            got.sort_unstable();
            want_n.sort_unstable();
            prop_assert_eq!(&got, want_n, "node {}", n);
        }
    }

    #[test]
    fn degree_sum_equals_edge_count(
        nodes in 1usize..80,
        seed in 0u64..500,
    ) {
        let g = generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 4.0,
            seed,
            ..PowerLawConfig::default()
        });
        let total: u64 = g.node_ids().map(|n| g.degree(n)).sum();
        prop_assert_eq!(total, g.num_edges());
        let stats = DegreeStats::from_graph_with_xmin(&g, 1);
        prop_assert_eq!(stats.histogram.total(), nodes as u64);
        prop_assert!(stats.max_degree >= stats.min_degree);
    }

    #[test]
    fn kronecker_counts_match_analytics(
        base_nodes in 2usize..30,
        seed in 0u64..200,
    ) {
        let base = generate_power_law(&PowerLawConfig {
            nodes: base_nodes,
            avg_degree: 3.0,
            seed,
            ..PowerLawConfig::default()
        });
        let kernel = CsrGraph::from_edges(2, [(0, 0), (0, 1), (1, 0)]);
        let expanded = expand(&base, &kernel, &KroneckerConfig::default());
        // |V_A|·|V_K| nodes and |E_A|·|E_K| edges.
        prop_assert_eq!(expanded.num_nodes(), base.num_nodes() * kernel.num_nodes());
        prop_assert_eq!(expanded.num_edges(), base.num_edges() * kernel.num_edges());
        prop_assert!(expanded.validate().is_ok());
    }

    #[test]
    fn edge_byte_layout_is_dense_and_ordered(
        nodes in 1usize..50,
        seed in 0u64..200,
    ) {
        let g = generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 3.0,
            seed,
            ..PowerLawConfig::default()
        });
        // The edge lists tile the edge array, in node order.
        let mut cursor = 0u64;
        for n in g.node_ids() {
            prop_assert_eq!(g.edge_list_start(n), cursor);
            cursor += g.degree(n);
        }
        prop_assert_eq!(cursor * NEIGHBOR_ENTRY_BYTES, g.edge_array_bytes());
    }
}
