//! Read-engine conformance: the batched, overlapped I/O engine under
//! the store tiers is **invisible in the values and in the scoped
//! counters**. A store reading through a 1-worker engine (effectively
//! serial) and the same store reading through a wide worker pool must
//! produce bit-identical gathers, bit-identical sample plans, and
//! *identical* scoped stats — across random Kronecker graphs, page
//! sizes, shard counts, and engine worker counts. The engine's
//! ordering guarantee (completion slots indexed by submission order
//! over immutable files) is what makes this hold; this suite is the
//! proof. It also pins that the paged read path is the only reader of a
//! store file: a private engine's byte total equals what the handles
//! reading through it counted.

use proptest::prelude::*;
use smartsage::gnn::sampler::sample_on;
use smartsage::gnn::Fanouts;
use smartsage::graph::generate::{generate_power_law, generate_seed_graph, PowerLawConfig};
use smartsage::graph::kronecker::{expand, KroneckerConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::hostio::ReadEngine;
use smartsage::sim::Xoshiro256;
use smartsage::store::{
    shard_ranges, write_feature_file, write_feature_shard, write_graph_file, CsrView, FeatureStore,
    FileStoreOptions, FileTopology, InMemoryStore, ScratchFile, ShardedFeatureStore, SharedCsrFile,
    SharedFileStore, StoreStats, TopologyStore,
};
use std::sync::Arc;

const PAGE_SIZES: [u64; 5] = [512, 1024, 2048, 4096, 8192];
const WORKER_COUNTS: [usize; 3] = [1, 2, 4];
const SHARD_COUNTS: [usize; 3] = [1, 2, 3];

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// A random Kronecker-expanded graph, miniaturized.
fn kronecker_graph(base_nodes: usize, seed: u64) -> CsrGraph {
    let base = generate_power_law(&PowerLawConfig {
        nodes: base_nodes.max(8),
        avg_degree: 4.0,
        seed,
        ..PowerLawConfig::default()
    });
    let seed_graph = generate_seed_graph(3, 2.0, seed ^ 0x5EED);
    expand(
        &base,
        &seed_graph,
        &KroneckerConfig {
            edge_keep_probability: 0.6,
            seed,
        },
    )
}

/// Replays `batches` through `store` demand-path only, returning the
/// gathered bits per batch and the summed exact stats.
fn replay(store: &SharedFileStore, batches: &[Vec<NodeId>]) -> (Vec<Vec<u32>>, StoreStats) {
    let dim = store.dim();
    let mut all_bits = Vec::with_capacity(batches.len());
    let mut acc = StoreStats::default();
    for nodes in batches {
        let mut out = vec![0.0f32; nodes.len() * dim];
        let io = store.gather_into(nodes, &mut out).unwrap();
        acc.accumulate(&io);
        all_bits.push(bits(&out));
    }
    (all_bits, acc)
}

/// Same file, same batches, engines of every width: values
/// bit-identical to the in-memory reference, the per-call counters
/// identical across widths, and every job and byte of the engine
/// accounted for by the caller that asked for it.
fn gathers_agree_across_widths(
    num_nodes: usize,
    dim: usize,
    seed: u64,
    opts: FileStoreOptions,
    batches: &[Vec<NodeId>],
) -> (StoreStats, u64) {
    let table = FeatureTable::new(dim, 3, seed);
    let file = ScratchFile::new("engine-conf");
    write_feature_file(file.path(), &table, num_nodes).unwrap();

    // In-memory reference.
    let mut in_mem = InMemoryStore::new(table, num_nodes);
    let mut reference = Vec::new();
    for nodes in batches {
        reference.push(bits(&in_mem.gather(nodes).unwrap()));
    }

    let mut baseline: Option<(StoreStats, u64)> = None;
    for workers in WORKER_COUNTS {
        let engine = Arc::new(ReadEngine::new(workers));
        let store =
            SharedFileStore::open_with_engine(file.path(), opts, Arc::clone(&engine)).unwrap();
        let (got, stats) = replay(&store, batches);
        let engine = engine.stats();
        assert_eq!(
            engine.bytes_read, stats.bytes_read,
            "the engine read bytes no gather counted (workers={workers})"
        );
        assert!(
            got == reference,
            "gather diverged from mem (workers={workers}, page={}, cache={})",
            opts.page_bytes,
            opts.cache_pages
        );
        let (serial_stats, serial_jobs) = baseline.get_or_insert((stats, engine.jobs));
        assert_eq!(
            (&stats, engine.jobs),
            (&*serial_stats, *serial_jobs),
            "demand stats or job count drifted across engine widths (workers={workers})"
        );
    }
    baseline.expect("at least one engine width")
}

/// Gathers through engines of every width: random small files and
/// batches, then one dense batch — every row, ascending, on an empty
/// cache, so the whole multi-MiB table is a single stretch and a
/// single job that a worker reads in many pieces.
#[test]
fn gathers_are_bit_identical_across_engine_worker_counts() {
    random_gathers_agree_across_widths();
    let (num_nodes, dim) = (6_000, 160);
    let opts = FileStoreOptions {
        page_bytes: 4096,
        cache_pages: 8,
    };
    let every_row: Vec<NodeId> = (0..num_nodes as u32).map(NodeId::new).collect();
    let (stats, jobs) = gathers_agree_across_widths(num_nodes, dim, 0xD15E, opts, &[every_row]);
    assert_eq!(jobs, 1, "a dense ascending gather is one stretch");
    assert!(stats.bytes_read >= (num_nodes * dim * 4) as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The random half of
    /// `gathers_are_bit_identical_across_engine_worker_counts`.
    fn random_gathers_agree_across_widths(
        num_nodes in 1usize..180,
        dim in 1usize..40,
        seed in any::<u64>(),
        page_pick in 0usize..5,
        cache_pages in 0usize..32,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..32),
            1..4,
        ),
    ) {
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let batches: Vec<Vec<NodeId>> = raw_batches
            .iter()
            .map(|raw| raw.iter().map(|&r| NodeId::new(r % num_nodes as u32)).collect())
            .collect();
        gathers_agree_across_widths(num_nodes, dim, seed, opts, &batches);
    }

    /// The sharded scatter/gather layer over engines of every width:
    /// shard count x worker count is invisible in the values.
    #[test]
    fn sharded_gathers_ride_any_engine_width(
        num_nodes in 1usize..160,
        dim in 1usize..32,
        seed in any::<u64>(),
        page_pick in 0usize..5,
        shard_pick in 0usize..3,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..24),
            1..3,
        ),
    ) {
        let table = FeatureTable::new(dim, 3, seed);
        let shards = SHARD_COUNTS[shard_pick];
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages: 16,
        };
        let ranges = shard_ranges(num_nodes, shards);
        let files: Vec<ScratchFile> = ranges
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| {
                let f = ScratchFile::new(&format!("engine-shard{i}"));
                write_feature_shard(f.path(), &table, start, end).unwrap();
                f
            })
            .collect();
        let batches: Vec<Vec<NodeId>> = raw_batches
            .iter()
            .map(|raw| raw.iter().map(|&r| NodeId::new(r % num_nodes as u32)).collect())
            .collect();

        let mut in_mem = InMemoryStore::new(table, num_nodes);
        let mut reference = Vec::new();
        for nodes in &batches {
            reference.push(bits(&in_mem.gather(nodes).unwrap()));
        }

        for workers in WORKER_COUNTS {
            let members: Vec<Arc<SharedFileStore>> = files
                .iter()
                .map(|f| {
                    Arc::new(
                        SharedFileStore::open_with_engine(
                            f.path(),
                            opts,
                            Arc::new(ReadEngine::new(workers)),
                        )
                        .unwrap(),
                    )
                })
                .collect();
            let mut sharded = ShardedFeatureStore::over_files(&members).unwrap();
            for (nodes, expect) in batches.iter().zip(&reference) {
                let got = sharded.gather(nodes).unwrap();
                prop_assert_eq!(
                    &bits(&got),
                    expect,
                    "sharded gather diverged (shards={}, workers={})",
                    shards, workers
                );
            }
        }
    }

    /// The file topology tier: hop-expansion plans stay bit-identical
    /// to the in-memory planner at every engine width, the handle's
    /// scoped stats are identical across widths, and they account for
    /// every byte the engine read.
    #[test]
    fn topology_plans_and_offset_warms_survive_any_engine_width(
        base_nodes in 8usize..40,
        seed in any::<u64>(),
        page_pick in 0usize..5,
        batch in 1usize..12,
    ) {
        let graph = kronecker_graph(base_nodes, seed);
        let file = ScratchFile::new("engine-topo");
        write_graph_file(file.path(), &graph).unwrap();
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages: 64,
        };
        let targets: Vec<NodeId> = (0..batch)
            .map(|i| NodeId::new((i * 7 % graph.num_nodes()) as u32))
            .collect();
        let fanouts = Fanouts::new(vec![4, 3]);
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let reference = sample_on(&mut CsrView::new(&graph), &targets, &fanouts, &mut rng).unwrap();

        let mut baseline: Option<StoreStats> = None;
        for workers in WORKER_COUNTS {
            let engine = Arc::new(ReadEngine::new(workers));
            let shared = Arc::new(
                SharedCsrFile::open_with_engine(file.path(), opts, Arc::clone(&engine))
                    .unwrap(),
            );
            let mut topo = FileTopology::new(shared);
            let mut rng = Xoshiro256::seed_from_u64(seed);
            let batch = sample_on(&mut topo as &mut dyn TopologyStore, &targets, &fanouts, &mut rng)
                .unwrap();
            prop_assert_eq!(
                &batch, &reference,
                "file-tier batch diverged from mem (workers={})",
                workers
            );
            let stats = topo.stats();
            prop_assert_eq!(engine.stats().bytes_read, stats.bytes_read);
            match &baseline {
                None => baseline = Some(stats),
                Some(serial) => prop_assert_eq!(
                    &stats, serial,
                    "topology stats drifted across engine widths (workers={})",
                    workers
                ),
            }
        }
    }
}
