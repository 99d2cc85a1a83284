//! Cross-crate property tests (proptest): invariants that must hold for
//! arbitrary graphs, plans, and cache configurations.

use proptest::prelude::*;
use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::nsconfig::{NsConfig, TargetDescriptor};
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::gnn::sampler::{sample_on, Fanouts};
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::traversal::k_hop_neighborhood;
use smartsage::graph::{CsrGraph, DatasetProfile, FeatureTable, GraphScale, NodeId};
use smartsage::hostio::{GraphFile, LruSet};
use smartsage::sim::Xoshiro256;
use smartsage::store::CsrView;
use std::sync::Arc;

fn arbitrary_graph(nodes: usize, avg_degree: f64, seed: u64) -> CsrGraph {
    generate_power_law(&PowerLawConfig {
        nodes,
        avg_degree,
        communities: 4,
        homophily: 0.5,
        exponent: 2.1,
        seed,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sampled_subgraphs_stay_within_k_hops(
        seed in 0u64..1000,
        nodes in 50usize..400,
        fanout1 in 2usize..6,
        fanout2 in 2usize..6,
    ) {
        let g = arbitrary_graph(nodes, 6.0, seed);
        let targets: Vec<NodeId> = (0..8.min(nodes) as u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xABCD);
        let fanouts = Fanouts::new(vec![fanout1, fanout2]);
        let (plan, batch) = sample_on(&mut CsrView::new(&g), &targets, &fanouts, &mut rng).unwrap();
        let hood = k_hop_neighborhood(&g, &targets, 2);
        for n in batch.all_nodes() {
            prop_assert!(hood.contains(&n), "{n} escaped 2-hop neighborhood");
        }
        prop_assert_eq!(batch.num_sampled(), plan.trace.num_sampled());
    }

    #[test]
    fn host_and_isp_systems_resolve_identical_subgraphs(
        seed in 0u64..500,
        batch in 4usize..24,
    ) {
        // Unified-path contract: the system kind only prices the byte
        // trace; sampling and resolution run on the one real storage
        // path, so every design point's one-batch run samples the same
        // subgraph and gathers the same rows for the same seed.
        let data = DatasetProfile::of(smartsage::graph::Dataset::Amazon)
            .materialize(GraphScale::LargeScale, 15_000, seed);
        let mut results = Vec::new();
        for kind in [SystemKind::SsdMmap, SystemKind::SmartSageHwSw] {
            let ctx = Arc::new(RunContext::new(data.clone(), SystemConfig::new(kind)));
            let cfg = PipelineConfig {
                workers: 1,
                total_batches: 1,
                batch_size: batch,
                fanouts: Fanouts::new(vec![3, 2]),
                seed,
                train: false,
                ..PipelineConfig::default()
            };
            results.push(run_pipeline(&ctx, &cfg));
        }
        prop_assert_eq!(results[0].transfers.useful_bytes, results[1].transfers.useful_bytes, "mmap vs ISP subgraph mismatch");
        prop_assert_eq!(results[0].topology_stats, results[1].topology_stats, "mmap vs ISP sampling mismatch");
        prop_assert_eq!(results[0].store_stats, results[1].store_stats, "mmap vs ISP gather mismatch");
        // The costs differ in the expected direction: the ISP ships
        // only the dense sample ids, mmap ships whole blocks.
        prop_assert!(results[0].transfers.ssd_to_host_bytes >= results[1].transfers.ssd_to_host_bytes);
    }

    #[test]
    fn nsconfig_round_trips_for_any_contents(
        seed in any::<u64>(),
        n_targets in 0usize..64,
        n_hops in 0usize..4,
    ) {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let cfg = NsConfig {
            seed,
            fanouts: (0..n_hops).map(|_| rng.range_u64(64) as u16).collect(),
            targets: (0..n_targets)
                .map(|_| TargetDescriptor {
                    node: NodeId::new(rng.next_u32()),
                    lba: rng.next_u64(),
                    offset_in_block: rng.range_u64(4096) as u16,
                    degree: rng.range_u64(1 << 40),
                })
                .collect(),
        };
        let bytes = cfg.encode();
        prop_assert_eq!(bytes.len(), cfg.encoded_len());
        let back = NsConfig::decode(&bytes).expect("round trip");
        prop_assert_eq!(back, cfg);
    }

    #[test]
    fn lru_never_exceeds_capacity_and_keeps_recent(
        capacity in 1usize..64,
        keys in proptest::collection::vec(0u64..128, 1..300),
    ) {
        let mut lru = LruSet::new(capacity);
        for &k in &keys {
            lru.insert(k);
            prop_assert!(lru.len() <= capacity);
        }
        // The most recently inserted distinct keys must be resident.
        let mut recent = Vec::new();
        for &k in keys.iter().rev() {
            if !recent.contains(&k) {
                recent.push(k);
            }
            if recent.len() == capacity.min(8) {
                break;
            }
        }
        for k in recent {
            prop_assert!(lru.contains(&k), "recent key {k} evicted");
        }
    }

    #[test]
    fn graph_file_layout_is_internally_consistent(
        seed in 0u64..200,
        nodes in 10usize..300,
    ) {
        let g = arbitrary_graph(nodes, 5.0, seed);
        let f = GraphFile::new(&g);
        let mut prev_end = None;
        for node in g.node_ids() {
            let r = f.edge_list_range(&g, node);
            prop_assert!(r.offset >= f.edge_array_base());
            prop_assert!(r.offset + r.len <= f.total_bytes());
            if let Some(end) = prev_end {
                prop_assert_eq!(r.offset, end, "edge lists must be contiguous");
            }
            prev_end = Some(r.offset + r.len);
        }
    }

    #[test]
    fn feature_gather_matches_per_node_lookups(
        seed in any::<u64>(),
        dim in 1usize..32,
        n in 1usize..16,
    ) {
        let table = FeatureTable::new(dim, 4, seed);
        let nodes: Vec<NodeId> = (0..n as u32).map(NodeId::new).collect();
        let gathered = table.gather(&nodes);
        for (i, &node) in nodes.iter().enumerate() {
            let single = table.features(node);
            prop_assert_eq!(&gathered[i * dim..(i + 1) * dim], single.as_slice());
        }
    }
}
