//! Concurrency conformance: N threads hammering one shared store
//! produce gathers (and training) bit-identical to serial
//! `InMemoryStore`, with exact — not approximate — counters under
//! contention.

use smartsage::gnn::model::ModelDims;
use smartsage::gnn::sampler::plan_sample_on;
use smartsage::gnn::trainer::{TrainConfig, Trainer};
use smartsage::gnn::Fanouts;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::file::FileStoreOptions;
use smartsage::store::{
    CsrView, FeatureStore, FileTopology, InMemoryStore, InMemoryTopology, SharedFileStore,
    StoreHandle, StoreRegistry, StoreStats, TopologyStore,
};
use std::sync::Arc;

const DIM: usize = 12;
const CLASSES: usize = 4;
const NODES: usize = 400;

fn table(seed: u64) -> FeatureTable {
    FeatureTable::new(DIM, CLASSES, seed)
}

fn open_shared(seed: u64, cache_pages: usize) -> Arc<SharedFileStore> {
    // A private registry per test: caches start cold and concurrent
    // tests in this binary cannot warm each other's stores.
    let registry = StoreRegistry::new();
    registry
        .open_feature_table(
            &table(seed),
            NODES,
            FileStoreOptions {
                page_bytes: 1024,
                cache_pages,
            },
        )
        .expect("open shared store")
}

#[test]
fn hammering_threads_gather_bit_identically_to_serial_memory() {
    // An 8-page cache cannot hold the ~19-page file: constant eviction
    // churn under contention is exactly the hostile case.
    let shared = open_shared(0xC0C0A, 8);
    let mut mem = InMemoryStore::new(table(0xC0C0A), NODES);
    let batches: Vec<Vec<NodeId>> = (0..16)
        .map(|b| {
            (0..50u32)
                .map(|i| NodeId::new((i * 7 + b * 13) % NODES as u32))
                .collect()
        })
        .collect();
    let want: Vec<Vec<u32>> = batches
        .iter()
        .map(|nodes| {
            mem.gather(nodes)
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    let per_thread: Vec<StoreStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let batches = &batches;
                let want = &want;
                s.spawn(move || {
                    let mut handle = StoreHandle::new(shared);
                    for round in 0..10 {
                        let i = (t + round) % batches.len();
                        let got = handle.gather(&batches[i]).unwrap();
                        let bits: Vec<u32> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(bits, want[i], "thread {t} diverged on batch {i}");
                    }
                    handle.stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    // Exactness under contention: access counters sum to precisely
    // what was asked for, and every page lookup was classified exactly
    // once (hits + misses = the deterministic planned-page count).
    let mut total = StoreStats::default();
    for s in &per_thread {
        total.accumulate(s);
    }
    assert_eq!(total.gathers, 8 * 10);
    assert_eq!(total.nodes_gathered, 8 * 10 * 50);
    assert_eq!(total.feature_bytes, 8 * 10 * 50 * (DIM as u64) * 4);
    let planned: u64 = {
        // Replay the same batches on a fresh, solo store: its
        // hits+misses is the per-iteration planned-lookup count.
        let solo = open_shared(0xC0C0A, 8);
        let mut handle = StoreHandle::new(solo);
        for (t, round) in (0..8).flat_map(|t| (0..10).map(move |r| (t, r))) {
            handle
                .gather(&batches[(t + round) % batches.len()])
                .unwrap();
        }
        let s = handle.stats();
        s.page_hits + s.page_misses
    };
    assert_eq!(total.page_hits + total.page_misses, planned);
    assert_eq!(
        total.pages_read, total.page_misses,
        "every miss is one page read"
    );
    assert!(total.page_hits > 0 && total.page_misses > 0);
}

#[test]
fn concurrent_training_through_one_shared_file_store_matches_memory() {
    let graph: CsrGraph = generate_power_law(&PowerLawConfig {
        nodes: NODES,
        avg_degree: 8.0,
        communities: CLASSES,
        homophily: 0.9,
        seed: 77,
        ..PowerLawConfig::default()
    });
    let dims = ModelDims {
        features: DIM,
        hidden1: 8,
        hidden2: 8,
        classes: CLASSES,
    };
    let config = TrainConfig {
        batch_size: 32,
        fanouts: Fanouts::new(vec![4, 3]),
        learning_rate: 0.2,
    };
    let targets: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
    // One worker: its own trainer and RNG, three steps through `store`;
    // returns the last loss, bit-cast.
    let worker = |w: u64, store: &mut dyn FeatureStore| -> u32 {
        let mut rng = Xoshiro256::seed_from_u64(w);
        let mut trainer = Trainer::new(dims, config.clone(), &mut rng);
        let mut topo = CsrView::new(&graph);
        let mut bits = 0;
        for _ in 0..3 {
            let loss = trainer
                .train_step_via(&mut topo, store, &targets, &mut rng)
                .unwrap();
            bits = loss.to_bits();
        }
        bits
    };

    // Serial reference: in-memory store, one trainer per "worker".
    let serial_losses: Vec<u32> = (0..6u64)
        .map(|w| worker(w, &mut InMemoryStore::new(table(0xF11E), NODES)))
        .collect();

    // Concurrent run: six threads, each owning a scoped `StoreHandle`
    // onto ONE shared file store (one descriptor, one sharded cache).
    let shared = open_shared(0xF11E, 16);
    let (concurrent_losses, per_thread): (Vec<u32>, Vec<StoreStats>) = std::thread::scope(|s| {
        let handles: Vec<_> = (0..6u64)
            .map(|w| {
                let mut handle = StoreHandle::new(Arc::clone(&shared));
                let worker = &worker;
                s.spawn(move || (worker(w, &mut handle), handle.stats()))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).unzip()
    });
    assert_eq!(
        serial_losses, concurrent_losses,
        "disk-backed concurrent training must be bit-identical to serial memory"
    );

    // The handles' scoped counters sum to the exact union of all six
    // workers: 3 gathers per step (three hop matrices), 3 steps each.
    let mut stats = StoreStats::default();
    for handle_stats in &per_thread {
        assert_eq!(handle_stats.gathers, 3 * 3);
        stats.accumulate(handle_stats);
    }
    assert_eq!(stats.gathers, 6 * 3 * 3);
    assert!(stats.bytes_read > 0, "training really read from disk");
    assert_eq!(stats.pages_read, stats.page_misses);
}

#[test]
fn hammering_threads_sample_bit_identically_through_one_shared_topology() {
    // 8 threads sampling through one shared on-disk graph (a scoped
    // FileTopology handle each, one SharedCsrFile and one sharded page
    // cache under all of them) must produce exactly the serial
    // in-memory batches, with exact per-handle scoped stats.
    let graph: CsrGraph = generate_power_law(&PowerLawConfig {
        nodes: NODES,
        avg_degree: 8.0,
        seed: 0x70C0,
        ..PowerLawConfig::default()
    });
    let registry = StoreRegistry::new();
    let shared = registry
        .open_graph_csr(
            &graph,
            FileStoreOptions {
                page_bytes: 1024,
                cache_pages: 8, // far below the file: real eviction churn
            },
        )
        .expect("open shared graph");
    let fanouts = Fanouts::new(vec![4, 3]);
    let seeds: Vec<u64> = (0..16u64).collect();
    let targets: Vec<NodeId> = (0..40u32)
        .map(|i| NodeId::new(i * 9 % NODES as u32))
        .collect();
    // Serial reference through the in-memory tier.
    let want: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            let mut mem = InMemoryTopology::new(graph.clone());
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let plan = plan_sample_on(&mut mem, &targets, &fanouts, &mut rng).unwrap();
            plan.resolve_on(&mut mem).unwrap()
        })
        .collect();
    let per_thread: Vec<StoreStats> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..8usize)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let (want, seeds, targets, fanouts) = (&want, &seeds, &targets, &fanouts);
                s.spawn(move || {
                    let mut topo = FileTopology::new(shared);
                    for round in 0..10 {
                        let i = (t + round) % seeds.len();
                        let mut rng = Xoshiro256::seed_from_u64(seeds[i]);
                        let plan = plan_sample_on(&mut topo, targets, fanouts, &mut rng).unwrap();
                        let batch = plan.resolve_on(&mut topo).unwrap();
                        assert_eq!(batch, want[i], "thread {t} diverged on seed {i}");
                    }
                    topo.stats()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    // Exactness under contention: access counters are deterministic
    // per thread (3 batched reads per hop per plan+resolve), and every
    // page lookup is classified exactly once — the total equals a solo
    // replay's, though the hit/miss split may differ.
    let mut total = StoreStats::default();
    for s in &per_thread {
        assert_eq!(s.gathers, 10 * 3 * 2, "3 reads per hop, 2 hops, 10 rounds");
        total.accumulate(s);
    }
    let solo_lookups = {
        let registry = StoreRegistry::new();
        let solo = registry
            .open_graph_csr(
                &graph,
                FileStoreOptions {
                    page_bytes: 1024,
                    cache_pages: 8,
                },
            )
            .unwrap();
        let mut topo = FileTopology::new(solo);
        for (t, round) in (0..8usize).flat_map(|t| (0..10).map(move |r| (t, r))) {
            let i = (t + round) % seeds.len();
            let mut rng = Xoshiro256::seed_from_u64(seeds[i]);
            let plan = plan_sample_on(&mut topo, &targets, &fanouts, &mut rng).unwrap();
            plan.resolve_on(&mut topo).unwrap();
        }
        let s = topo.stats();
        let _ = std::fs::remove_file(topo.shared().path());
        s.page_hits + s.page_misses
    };
    assert_eq!(total.page_hits + total.page_misses, solo_lookups);
    assert_eq!(total.pages_read, total.page_misses);
    assert!(total.page_hits > 0 && total.page_misses > 0);
    let _ = std::fs::remove_file(shared.path());
}
