//! The one way to open a dataset: `StoreRegistry::open_tiers`.
//!
//! Whatever tier pair and shard count a `TierSpec` names, the opened
//! stores must plan, resolve and gather **bit-identically** to the
//! in-memory pair, and their per-shard I/O breakdowns must sum exactly
//! to their totals. One device is the 1-way partition of the same
//! construction: same key functions, same registry slot, same file.
//! The failure paths are typed: re-opening the same
//! content keys with different options is an `OptionsConflict`, and a
//! graph whose population disagrees with the feature rows is a
//! `NodeCountMismatch` naming both files — from `open_tiers` itself and
//! from the serving engine that calls it.

use smartsage::gnn::sampler::sample_on;
use smartsage::gnn::{Fanouts, SampledBatch};
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::kronecker::{expand, KroneckerConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::serve::{DatasetConfig, Engine, EngineConfig};
use smartsage::sim::Xoshiro256;
use smartsage::store::{
    FileStoreOptions, OpenTiers, StoreError, StoreKind, StoreRegistry, StoreStats, TierSpec,
    TopologyKind,
};
use std::path::PathBuf;
use std::sync::Arc;

const KINDS: [(StoreKind, TopologyKind); 3] = [
    (StoreKind::Mem, TopologyKind::Mem),
    (StoreKind::File, TopologyKind::File),
    (StoreKind::Isp, TopologyKind::Isp),
];

/// A seeded Kronecker graph: a power-law base expanded by a power-law
/// seed graph with edge thinning.
fn kronecker(seed: u64) -> Arc<CsrGraph> {
    let base = generate_power_law(&PowerLawConfig {
        nodes: 60,
        avg_degree: 3.0,
        seed,
        ..PowerLawConfig::default()
    });
    let seed_graph = generate_power_law(&PowerLawConfig {
        nodes: 5,
        avg_degree: 2.0,
        seed: seed ^ 0xD1CE,
        ..PowerLawConfig::default()
    });
    Arc::new(expand(
        &base,
        &seed_graph,
        &KroneckerConfig {
            edge_keep_probability: 0.8,
            seed: seed ^ 0x5EED,
        },
    ))
}

/// Small pages and a cache smaller than the files, so file-backed
/// tiers do real multi-page I/O with eviction.
fn spec(store: StoreKind, topology: TopologyKind, shards: usize) -> TierSpec {
    TierSpec {
        store,
        topology,
        shards,
        file: FileStoreOptions {
            page_bytes: 512,
            cache_pages: 24,
        },
    }
}

/// One sampled and gathered batch through `tiers`.
fn run_batch(tiers: &mut OpenTiers, num_nodes: usize) -> (SampledBatch, Vec<u32>) {
    let targets: Vec<NodeId> = (0..num_nodes as u32).step_by(7).map(NodeId::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(0x0BE7);
    let batch = sample_on(
        tiers.topology.as_mut(),
        &targets,
        &Fanouts::new(vec![4, 3]),
        &mut rng,
    )
    .unwrap();
    let rows = tiers.features.gather(&batch.all_nodes()).unwrap();
    let bits = rows.iter().map(|x| x.to_bits()).collect();
    (batch, bits)
}

/// Every I/O-level field of the per-shard breakdown sums to the total.
fn assert_io_sums(per_shard: &[StoreStats], total: StoreStats, what: &str) {
    let fields: [fn(&StoreStats) -> u64; 8] = [
        |s| s.nodes_gathered,
        |s| s.pages_read,
        |s| s.bytes_read,
        |s| s.page_hits,
        |s| s.page_misses,
        |s| s.device_bytes_read,
        |s| s.host_bytes_transferred,
        |s| s.device_ns,
    ];
    for (i, field) in fields.iter().enumerate() {
        assert_eq!(
            per_shard.iter().map(field).sum::<u64>(),
            field(&total),
            "{what}: field {i} of the shard breakdown does not sum to the total"
        );
    }
}

/// The files open in `registry`, as its occupancy report names them
/// (sorted by path).
fn paths_of(registry: &StoreRegistry) -> Vec<PathBuf> {
    registry.occupancy().into_iter().map(|o| o.path).collect()
}

fn remove_published(paths: impl IntoIterator<Item = PathBuf>) {
    for path in paths {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn every_tier_pair_and_shard_count_matches_the_mem_pair_with_exact_breakdowns() {
    let graph = kronecker(0x0A11);
    let n = graph.num_nodes();
    let table = FeatureTable::new(9, 4, 0x7AB1E);
    let open = |store, topology, shards| {
        // A fresh registry per open: cold caches, no options conflicts.
        let registry = StoreRegistry::new();
        let tiers = registry
            .open_tiers(&graph, &table, n, &spec(store, topology, shards))
            .unwrap();
        (registry, tiers)
    };
    let want = run_batch(&mut open(StoreKind::Mem, TopologyKind::Mem, 1).1, n);
    let mut published = Vec::new();
    for (store, _) in KINDS {
        for (_, topology) in KINDS {
            // 0 means unsharded, exactly like 1.
            for shards in [0usize, 1, 3] {
                let what = format!("{store:?}/{topology:?} x{shards}");
                let (registry, mut tiers) = open(store, topology, shards);
                assert_eq!(run_batch(&mut tiers, n), want, "{what} diverged");

                let devices = shards.max(1);
                for (per_shard, total, file_backed) in [
                    (
                        tiers.features.shard_stats(),
                        tiers.features.stats(),
                        store != StoreKind::Mem,
                    ),
                    (
                        tiers.topology.shard_stats(),
                        tiers.topology.stats(),
                        topology != TopologyKind::Mem,
                    ),
                ] {
                    assert_eq!(per_shard.len(), devices, "{what}");
                    assert_io_sums(&per_shard, total, &what);
                    assert_eq!(total.bytes_read > 0, file_backed, "{what}: {total:?}");
                }
                // The registry holds one content-keyed file per device
                // on a file-backed half (none on a mem half): exactly
                // the partition's published key paths.
                let mut keys = Vec::new();
                for i in 0..devices {
                    if store != StoreKind::Mem {
                        keys.push(StoreRegistry::feature_shard_key_path(&table, n, i, devices));
                    }
                    if topology != TopologyKind::Mem {
                        keys.push(StoreRegistry::graph_shard_key_path(&graph, i, devices));
                    }
                }
                keys.sort();
                assert_eq!(paths_of(&registry), keys, "{what}");
                published.extend(keys);
            }
        }
    }
    remove_published(published);
}

#[test]
fn the_one_way_partition_is_the_unsharded_file_slot_and_cache() {
    let graph = kronecker(0x0E55);
    let n = graph.num_nodes();
    let table = FeatureTable::new(6, 3, 0x1DE7);
    // One key format: the 1-way partition's name is the unsuffixed
    // content key, and wider partitions carry their `-p{i}of{k}`.
    let feature_key = StoreRegistry::content_key_path(&table, n);
    let graph_key = StoreRegistry::graph_content_key_path(&graph);
    assert_eq!(
        StoreRegistry::feature_shard_key_path(&table, n, 0, 1),
        feature_key
    );
    assert_eq!(StoreRegistry::graph_shard_key_path(&graph, 0, 1), graph_key);
    for key in [&feature_key, &graph_key] {
        assert!(!key.to_str().unwrap().contains("-p0of1"), "{key:?}");
    }
    let wide = StoreRegistry::feature_shard_key_path(&table, n, 1, 3);
    assert!(wide.to_str().unwrap().ends_with("-p1of3.fbin"), "{wide:?}");
    let wide = StoreRegistry::graph_shard_key_path(&graph, 2, 3);
    assert!(wide.to_str().unwrap().ends_with("-p2of3.gbin"), "{wide:?}");

    // One registry slot: the single-file opens, the 1-way shard opens
    // and `open_tiers` at one device all share a file and a cache.
    let registry = StoreRegistry::new();
    let opts = spec(StoreKind::File, TopologyKind::File, 1).file;
    let features = registry.open_feature_table(&table, n, opts).unwrap();
    let shards = registry.open_feature_shards(&table, n, 1, opts).unwrap();
    assert_eq!(shards.len(), 1);
    assert!(Arc::ptr_eq(&features, &shards[0]));
    let csr = registry.open_graph_csr(&graph, opts).unwrap();
    let shards = registry.open_graph_shards(&graph, 1, opts).unwrap();
    assert_eq!(shards.len(), 1);
    assert!(Arc::ptr_eq(&csr, &shards[0]));
    let mut tiers = registry
        .open_tiers(
            &graph,
            &table,
            n,
            &spec(StoreKind::File, TopologyKind::Isp, 1),
        )
        .unwrap();
    assert_eq!(paths_of(&registry), [feature_key, graph_key]);
    // A page the tier pair loads is resident in the file the
    // single-file open returned.
    tiers.features.gather(&[NodeId::new(0)]).unwrap();
    assert_eq!(features.cache_resident(), 1);
    remove_published(paths_of(&registry));
}

#[test]
fn a_zero_cache_budget_runs_every_device_uncached() {
    let graph = kronecker(0x0D44);
    let n = graph.num_nodes();
    let table = FeatureTable::new(7, 3, 0x2E80);
    let mut mem = StoreRegistry::new()
        .open_tiers(
            &graph,
            &table,
            n,
            &spec(StoreKind::Mem, TopologyKind::Mem, 1),
        )
        .unwrap();
    let want = run_batch(&mut mem, n);
    let mut published = Vec::new();
    for (store, topology) in [KINDS[1], KINDS[2]] {
        for shards in [1usize, 3] {
            let what = format!("{store:?}/{topology:?} x{shards}");
            let mut uncached = spec(store, topology, shards);
            uncached.file.cache_pages = 0;
            let registry = StoreRegistry::new();
            let mut tiers = registry.open_tiers(&graph, &table, n, &uncached).unwrap();
            // Twice: nothing the first batch read is kept for the
            // second, on the files or in the ISP row scratchpad.
            for _ in 0..2 {
                assert_eq!(run_batch(&mut tiers, n), want, "{what} diverged");
            }
            for io in [tiers.features.stats(), tiers.topology.stats()] {
                assert!(io.pages_read > 0, "{what}: {io:?}");
                assert_eq!((io.page_hits, io.page_misses), (0, io.pages_read), "{what}");
            }
            let occupancy = registry.occupancy();
            assert_eq!(occupancy.len(), 2 * shards, "{what}");
            for file in &occupancy {
                assert_eq!((file.resident_pages, file.capacity_pages), (0, 0), "{what}");
            }
            published.extend(paths_of(&registry));
        }
    }
    // A nonzero budget is sliced exactly too: 1024 pages over 3
    // devices is 341 per file, 1023 per half, never rounded up.
    let mut sliced = spec(StoreKind::File, TopologyKind::File, 3);
    sliced.file.cache_pages = 1024;
    let registry = StoreRegistry::new();
    registry.open_tiers(&graph, &table, n, &sliced).unwrap();
    let occupancy = registry.occupancy();
    assert_eq!(occupancy.len(), 6);
    assert!(occupancy.iter().all(|file| file.capacity_pages == 341));
    published.extend(paths_of(&registry));
    remove_published(published);
}

#[test]
fn reopening_the_same_keys_with_different_options_is_an_options_conflict() {
    let graph = kronecker(0x0B22);
    let n = graph.num_nodes();
    let table = FeatureTable::new(6, 3, 0xC0F1);
    let mut published = Vec::new();
    for shards in [1usize, 3] {
        let registry = StoreRegistry::new();
        let first = spec(StoreKind::File, TopologyKind::Isp, shards);
        let mut tiers = registry.open_tiers(&graph, &table, n, &first).unwrap();
        assert_eq!(registry.len(), 2 * shards);
        // Same options (any tier over the same files): shared, fine —
        // no second open of any file.
        let again = spec(StoreKind::Isp, TopologyKind::File, shards);
        registry.open_tiers(&graph, &table, n, &again).unwrap();
        let mut reopened = registry.open_tiers(&graph, &table, n, &first).unwrap();
        assert_eq!(registry.len(), 2 * shards);
        // One page cache per key: the page the first pair's gather
        // loaded is resident for the re-opened pair's.
        let node = [NodeId::new(0)];
        tiers.features.gather(&node).unwrap();
        let resident = || -> usize {
            let occupancy = registry.occupancy();
            occupancy.iter().map(|o| o.resident_pages).sum()
        };
        assert_eq!(resident(), 1);
        reopened.features.gather(&node).unwrap();
        let io = reopened.features.stats();
        assert_eq!((io.pages_read, io.page_hits), (0, 1));
        assert_eq!(resident(), 1);
        // A different page size for the same content keys: refused.
        let mut other = first;
        other.file.page_bytes = 1024;
        let err = registry.open_tiers(&graph, &table, n, &other).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::OptionsConflict { requested, open, .. }
                    if requested.page_bytes == 1024 && open.page_bytes == 512
            ),
            "{err}"
        );
        published.extend(paths_of(&registry));
    }
    remove_published(published);
}

#[test]
fn a_population_mismatch_is_typed_from_open_tiers_and_from_the_engine() {
    let graph = kronecker(0x0C33);
    let n = graph.num_nodes();
    let table = FeatureTable::new(5, 3, 0xFEA7);
    let rows = n + 5;
    let is_mismatch = |err: &StoreError| {
        let named = err.to_string();
        matches!(
            err,
            StoreError::NodeCountMismatch { graph_nodes, feature_nodes, graph, features }
                if *graph_nodes == n
                    && *feature_nodes == rows
                    && named.contains(graph.to_str().unwrap())
                    && named.contains(features.to_str().unwrap())
        )
    };
    for shards in [1usize, 3] {
        let registry = StoreRegistry::new();
        let err = registry
            .open_tiers(
                &graph,
                &table,
                rows,
                &spec(StoreKind::File, TopologyKind::Isp, shards),
            )
            .unwrap_err();
        assert!(is_mismatch(&err), "open_tiers x{shards}: {err}");

        let config = EngineConfig {
            dataset: DatasetConfig {
                nodes: rows,
                feature_dim: table.dim(),
                classes: table.num_classes(),
                ..DatasetConfig::default()
            },
            store: StoreKind::Isp,
            topology: TopologyKind::File,
            shards,
            ..EngineConfig::default()
        };
        let err = Engine::with_dataset(config, Arc::clone(&graph), table.clone())
            .err()
            .expect("a mismatched dataset must not start serving");
        assert!(is_mismatch(&err), "engine x{shards}: {err}");
    }
    // The files were published before the check refused the pair.
    let mut published = Vec::new();
    for shards in [1usize, 3] {
        for i in 0..shards {
            published.push(StoreRegistry::feature_shard_key_path(
                &table, rows, i, shards,
            ));
            published.push(StoreRegistry::graph_shard_key_path(&graph, i, shards));
        }
    }
    remove_published(published);
}
