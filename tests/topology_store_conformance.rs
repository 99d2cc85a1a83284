//! Cross-tier topology-store conformance: `FileTopology` and
//! `IspSampleTopology` must produce **bit-identical** `SamplePlan`s and
//! `SampledBatch`es to `InMemoryTopology` for the same seeds, across
//! random Kronecker graphs, page sizes, and cache sizes — the
//! determinism contract neighbor sampling relies on — with exact,
//! uniform access counters on every tier — and the one-pass
//! `sample_on` must equal the plan-then-resolve reference and the
//! 1-request `sample_many_on`, sharded or not. The ISP tier must
//! additionally keep its transfer split honest: device bytes are its
//! page reads, host bytes are only the packed degrees and sampled ids
//! that crossed the modeled link, strictly below the file tier's page
//! traffic for scattered hops.
//!
//! The negative paths are typed, never panics: a truncated `SSGRPH01`,
//! offsets out of monotone order, an edge index past the end of the
//! edge array, and a graph/feature node-count mismatch each fail with
//! a `StoreError` naming the file.

use proptest::prelude::*;
use smartsage::gnn::sampler::{plan_sample_on, sample_on};
use smartsage::gnn::{sample_many_on, Fanouts, SampleSpec};
use smartsage::graph::generate::{generate_power_law, generate_seed_graph, PowerLawConfig};
use smartsage::graph::kronecker::{expand, KroneckerConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::file::FileStoreOptions;
use smartsage::store::graph_file::{GRAPH_ENTRY_BYTES, GRAPH_HEADER_BYTES};
use smartsage::store::{
    check_sharded_population, shard_ranges, write_feature_file, write_graph_file, CsrView,
    FileTopology, InMemoryTopology, IspGatherOptions, IspSampleTopology, ScratchFile,
    ShardedTopology, SharedCsrFile, SharedFileStore, StoreError, StoreRegistry, TopologyStore,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A random Kronecker-expanded graph: a small power-law base fractally
/// expanded by a random seed graph — the paper's large-scale dataset
/// construction, miniaturized.
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

const PAGE_SIZES: [u64; 5] = [512, 1024, 2048, 4096, 8192];

/// A labelled topology store ("file x3").
type Tier = (String, Box<dyn TopologyStore>);

/// An ISP sampling tier over its own one-stripe open of `path`.
fn isp_over(path: &Path, opts: FileStoreOptions) -> IspSampleTopology {
    let shared = SharedCsrFile::open_with(path, opts, 1).unwrap();
    IspSampleTopology::over(Arc::new(shared), IspGatherOptions::default())
}

/// `graph` behind every topology tier, unsharded and 3-way sharded —
/// the 3-way tiers over the registry's own shard files — with the
/// scratch file behind the unsharded ones and the paths the registry
/// published (the caller removes them).
fn every_tier(graph: &CsrGraph, opts: FileStoreOptions) -> (Vec<Tier>, ScratchFile, Vec<PathBuf>) {
    let whole = ScratchFile::new("topo-one-pass");
    write_graph_file(whole.path(), graph).unwrap();
    let isp = IspGatherOptions::default;
    let mut tiers: Vec<Tier> = vec![
        (
            "mem x1".into(),
            Box::new(InMemoryTopology::new(graph.clone())),
        ),
        (
            "file x1".into(),
            Box::new(FileTopology::new(Arc::new(
                SharedCsrFile::open_with(whole.path(), opts, 1).unwrap(),
            ))),
        ),
        ("isp x1".into(), Box::new(isp_over(whole.path(), opts))),
    ];
    let ranges = shard_ranges(graph.num_nodes(), 3);
    let shards = StoreRegistry::new()
        .open_graph_shards(graph, 3, opts)
        .unwrap();
    let published = shards.iter().map(|f| f.path().to_path_buf()).collect();
    tiers.push((
        "mem x3".into(),
        Box::new(ShardedTopology::mem(Arc::new(graph.clone()), 3)),
    ));
    tiers.push((
        "file x3".into(),
        Box::new(ShardedTopology::over_files(&shards, &ranges).unwrap()),
    ));
    tiers.push((
        "isp x3".into(),
        Box::new(ShardedTopology::over_isp(&shards, &ranges, isp()).unwrap()),
    ));
    (tiers, whole, published)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn topology_store_sampling_is_bit_identical_across_tiers(
        base_nodes in 8usize..40,
        graph_seed in any::<u64>(),
        page_pick in 0usize..5,
        cache_pages in 0usize..48,
        fanout1 in 1usize..5,
        fanout2 in 1usize..4,
        raw_targets in proptest::collection::vec(0u32..100_000, 1..24),
        sample_seed in any::<u64>(),
    ) {
        let graph = kronecker_graph(base_nodes, graph_seed);
        let file = ScratchFile::new("topo-conformance");
        write_graph_file(file.path(), &graph).unwrap();
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let mut mem = InMemoryTopology::new(graph.clone());
        // One cache shard on both file-backed tiers: driven serially
        // with the same request sequence and the same exact-LRU
        // discipline, their page traffic must agree to the byte.
        let mut disk =
            FileTopology::new(Arc::new(SharedCsrFile::open_with(file.path(), opts, 1).unwrap()));
        let mut isp = isp_over(file.path(), opts);
        prop_assert_eq!(disk.num_nodes(), graph.num_nodes());
        prop_assert_eq!(isp.num_edges(), graph.num_edges());

        let targets: Vec<NodeId> = raw_targets
            .iter()
            .map(|&r| NodeId::new(r % graph.num_nodes() as u32))
            .collect();
        let fanouts = Fanouts::new(vec![fanout1, fanout2]);

        // Same seed on every tier: plans and batches must be
        // bit-identical (the RNG consumption order is part of the
        // contract).
        let plan_on = |topo: &mut dyn TopologyStore| {
            let mut rng = Xoshiro256::seed_from_u64(sample_seed);
            let plan = plan_sample_on(topo, &targets, &fanouts, &mut rng).unwrap();
            let batch = plan.resolve_on(topo).unwrap();
            (plan, batch)
        };
        let (plan_mem, batch_mem) = plan_on(&mut mem);
        let (plan_disk, batch_disk) = plan_on(&mut disk);
        let (plan_isp, batch_isp) = plan_on(&mut isp);
        // A borrowed view of the graph is the same code path.
        let (plan_view, batch_view) = plan_on(&mut CsrView::new(&graph));

        prop_assert_eq!(&plan_disk, &plan_mem, "file plan diverged (page={}, cache={})", opts.page_bytes, cache_pages);
        prop_assert_eq!(&plan_isp, &plan_mem, "isp plan diverged (page={}, cache={})", opts.page_bytes, cache_pages);
        prop_assert_eq!(&plan_view, &plan_mem);
        prop_assert_eq!(&batch_disk, &batch_mem, "file batch diverged (page={}, cache={})", opts.page_bytes, cache_pages);
        prop_assert_eq!(&batch_isp, &batch_mem, "isp batch diverged (page={}, cache={})", opts.page_bytes, cache_pages);
        prop_assert_eq!(&batch_view, &batch_mem);

        // Exact, uniform access counters: per hop, the sampling pass is
        // one degrees batch + one picks batch and the reference
        // re-resolution is one more picks batch; every answer is 8
        // bytes on every tier.
        let mut expect_gathers = 0u64;
        let mut expect_answers = 0u64;
        for (hop, positions) in plan_mem.trace.hops.iter().zip(&plan_mem.positions) {
            expect_gathers += 3;
            expect_answers += (hop.nodes.len() + 2 * positions.len()) as u64;
        }
        for stats in [mem.stats(), disk.stats(), isp.stats()] {
            prop_assert_eq!(stats.gathers, expect_gathers);
            prop_assert_eq!(stats.nodes_gathered, expect_answers);
            prop_assert_eq!(stats.feature_bytes, expect_answers * GRAPH_ENTRY_BYTES);
        }

        // Memory does no I/O; the file tier's accounting is consistent
        // and host-path (every read page shipped whole); the ISP tier
        // ships exactly the packed answers.
        let m = mem.stats();
        prop_assert_eq!(m.pages_read + m.bytes_read + m.page_hits + m.page_misses, 0);
        let d = disk.stats();
        prop_assert_eq!(d.page_misses, d.pages_read);
        prop_assert!(d.bytes_read <= d.pages_read * opts.page_bytes);
        prop_assert!(d.pages_read > 0);
        prop_assert_eq!(d.host_bytes_transferred, d.bytes_read);
        prop_assert_eq!(d.device_bytes_read, d.bytes_read);
        prop_assert_eq!(d.device_ns, 0);
        let i = isp.stats();
        prop_assert_eq!(i.host_bytes_transferred, i.feature_bytes);
        prop_assert_eq!(i.device_bytes_read, i.bytes_read);
        prop_assert!(i.device_ns > 0, "device passes cost modeled time");
        // Both file-backed tiers resolved the same request sequence
        // against the same cache discipline, serially: identical page
        // traffic.
        prop_assert_eq!(i.page_hits + i.page_misses, d.page_hits + d.page_misses);
        prop_assert_eq!(i.bytes_read, d.bytes_read);
    }

    #[test]
    fn topology_store_one_pass_sampling_equals_plan_then_resolve_on_every_tier(
        base_nodes in 8usize..40,
        graph_seed in any::<u64>(),
        page_pick in 0usize..5,
        cache_pages in 0usize..48,
        fanout1 in 1usize..5,
        fanout2 in 1usize..4,
        raw_targets in proptest::collection::vec(0u32..100_000, 1..24),
        sample_seed in any::<u64>(),
    ) {
        let graph = kronecker_graph(base_nodes, graph_seed);
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let targets: Vec<NodeId> = raw_targets
            .iter()
            .map(|&r| NodeId::new(r % graph.num_nodes() as u32))
            .collect();
        let fanouts = Fanouts::new(vec![fanout1, fanout2]);
        let spec = [SampleSpec {
            targets: targets.clone(),
            seed: sample_seed,
        }];
        let hops = fanouts.hops() as u64;
        let (tiers, _file, published) = every_tier(&graph, opts);
        let mut reference = None;
        for (what, mut topo) in tiers {
            let topo = topo.as_mut();
            // The one pass: plan and batch together, two calls per hop.
            let mut rng = Xoshiro256::seed_from_u64(sample_seed);
            let (plan, batch) = sample_on(topo, &targets, &fanouts, &mut rng).unwrap();
            let one_pass = topo.stats();
            prop_assert_eq!(one_pass.gathers, 2 * hops, "{}", &what);
            prop_assert_eq!(
                one_pass.nodes_gathered,
                plan.trace.num_accesses() + plan.positions.iter().map(|p| p.len() as u64).sum::<u64>(),
                "{}: one answer per frontier degree and per drawn pick", &what
            );
            // Plan-only is the same pass; re-resolving the plan is the
            // independent reference.
            let mut rng_plan = Xoshiro256::seed_from_u64(sample_seed);
            let plan_only = plan_sample_on(topo, &targets, &fanouts, &mut rng_plan).unwrap();
            prop_assert_eq!(topo.stats().gathers, 4 * hops, "{}", &what);
            let resolved = plan_only.resolve_on(topo).unwrap();
            prop_assert_eq!(topo.stats().gathers, 5 * hops, "{}", &what);
            prop_assert_eq!(&plan_only, &plan, "{}: plan_sample_on diverged", &what);
            prop_assert_eq!(&resolved, &batch, "{}: resolve_on diverged", &what);
            prop_assert_eq!(rng_plan.next_u64(), rng.next_u64(), "{}: RNG consumption differs", &what);
            // The merged loop's one-request case.
            let many = sample_many_on(topo, &spec, &fanouts).unwrap();
            prop_assert_eq!(topo.stats().gathers, 7 * hops, "{}", &what);
            prop_assert_eq!(many.len(), 1);
            prop_assert_eq!(&many[0], &batch, "{}: sample_many_on diverged", &what);
            // ...and every tier and shard count agrees with mem x1.
            let (want_plan, want_batch) = reference.get_or_insert((plan.clone(), batch.clone()));
            prop_assert_eq!(&plan, &*want_plan, "{}: plan differs from mem x1", &what);
            prop_assert_eq!(&batch, &*want_batch, "{}: batch differs from mem x1", &what);
        }
        for path in published {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[test]
fn topology_store_isp_host_bytes_strictly_undercut_the_file_tier_for_scattered_hops() {
    // A big sparse graph and targets scattered across the id space:
    // each degree probe and each pick touches its own pages, so the
    // file tier page-amplifies while the ISP tier ships 8 bytes per
    // answer — the Fig 10(a)-vs-10(b) split on the topology half.
    let graph = generate_power_law(&PowerLawConfig {
        nodes: 4096,
        avg_degree: 8.0,
        seed: 0xA11,
        ..PowerLawConfig::default()
    });
    let file = ScratchFile::new("topo-scattered");
    write_graph_file(file.path(), &graph).unwrap();
    let targets: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 251)).collect();
    let fanouts = Fanouts::new(vec![3, 2]);
    let run = |topo: &mut dyn TopologyStore| {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let plan = plan_sample_on(topo, &targets, &fanouts, &mut rng).unwrap();
        plan.resolve_on(topo).unwrap()
    };
    let mut mem = InMemoryTopology::new(graph.clone());
    let mut disk = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
    let mut isp = isp_over(file.path(), FileStoreOptions::default());
    let want = run(&mut mem);
    assert_eq!(run(&mut disk), want);
    assert_eq!(run(&mut isp), want);
    let (d, i) = (disk.stats(), isp.stats());
    assert!(
        i.host_bytes_transferred < d.host_bytes_transferred,
        "isp host bytes {} must be strictly below the file tier's {}",
        i.host_bytes_transferred,
        d.host_bytes_transferred
    );
    assert_eq!(i.host_bytes_transferred, i.feature_bytes);
    assert!(i.transfer_reduction() > 1.0);
    assert!(i.device_ns > 0);
}

// ---------------------------------------------------------------------
// Negative paths: typed errors naming the file, no panics.
// ---------------------------------------------------------------------

/// A small graph with fully known offsets for byte-level corruption.
fn tiny_graph() -> CsrGraph {
    CsrGraph::from_edges(
        6,
        [
            (0, 1),
            (0, 2),
            (1, 3),
            (2, 4),
            (3, 5),
            (4, 0),
            (5, 1),
            (5, 2),
        ],
    )
}

fn corrupt_offset(path: &std::path::Path, index: u64, value: u64) {
    let at = (GRAPH_HEADER_BYTES + index * GRAPH_ENTRY_BYTES) as usize;
    let mut bytes = std::fs::read(path).unwrap();
    bytes[at..at + 8].copy_from_slice(&value.to_le_bytes());
    std::fs::write(path, &bytes).unwrap();
}

#[test]
fn topology_store_truncated_graph_file_reports_path_and_expected_length() {
    let file = ScratchFile::new("topo-trunc");
    write_graph_file(file.path(), &tiny_graph()).unwrap();
    let expected = std::fs::metadata(file.path()).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(file.path())
        .unwrap()
        .set_len(expected - 7)
        .unwrap();
    let err = SharedCsrFile::open(file.path()).unwrap_err();
    assert!(matches!(err, StoreError::Truncated { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains(file.path().to_str().unwrap()), "{msg}");
    assert!(msg.contains(&expected.to_string()), "{msg}");
}

#[test]
fn topology_store_nonmonotone_offsets_fail_typed_at_the_read() {
    let file = ScratchFile::new("topo-monotone");
    let g = tiny_graph();
    write_graph_file(file.path(), &g).unwrap();
    // offsets = [0, 2, 3, 4, 5, 6, 8]; making offsets[2] = 7 puts
    // (offsets[2], offsets[3]) = (7, 4) out of monotone order. The
    // end-point checks at open still pass.
    corrupt_offset(file.path(), 2, 7);
    let mut topo = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
    let mut out = [0u64];
    let err = topo.degrees_into(&[NodeId::new(2)], &mut out).unwrap_err();
    assert!(matches!(err, StoreError::CorruptGraph { .. }), "{err}");
    let msg = err.to_string();
    assert!(msg.contains("monotone"), "{msg}");
    assert!(msg.contains(file.path().to_str().unwrap()), "{msg}");
    // No partial accounting from the failed batch.
    assert_eq!(topo.stats().gathers, 0);
    // Unaffected nodes still read fine — the error is surgical.
    topo.degrees_into(&[NodeId::new(0)], &mut out).unwrap();
    assert_eq!(out[0], 2);
}

#[test]
fn topology_store_edge_index_past_eof_fails_typed_at_the_read() {
    let file = ScratchFile::new("topo-eof");
    let g = tiny_graph();
    write_graph_file(file.path(), &g).unwrap();
    // offsets = [0, 2, 3, 4, 5, 6, 8]: 8 edges. Point node 3's slice
    // past the edge array while keeping local monotonicity:
    // (offsets[3], offsets[4]) = (11, 13).
    corrupt_offset(file.path(), 3, 11);
    corrupt_offset(file.path(), 4, 13);
    let mut topo = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
    let mut out = [0u64];
    let err = topo.degrees_into(&[NodeId::new(3)], &mut out).unwrap_err();
    assert!(matches!(err, StoreError::CorruptGraph { .. }), "{err}");
    let msg = err.to_string();
    assert!(
        msg.contains("past the end"),
        "should name the EOF overrun: {msg}"
    );
    assert!(msg.contains(file.path().to_str().unwrap()), "{msg}");
}

#[test]
fn topology_store_corrupt_neighbor_id_fails_typed_at_the_pick() {
    let file = ScratchFile::new("topo-target");
    let g = tiny_graph();
    write_graph_file(file.path(), &g).unwrap();
    // Overwrite edge entry 0 (node 0's first neighbor) with an id past
    // the 6-node bound.
    let edge_base = smartsage::store::graph_file::edge_array_base(6);
    let mut bytes = std::fs::read(file.path()).unwrap();
    bytes[edge_base as usize..edge_base as usize + 8].copy_from_slice(&999u64.to_le_bytes());
    std::fs::write(file.path(), &bytes).unwrap();
    let mut topo = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
    let mut out = [NodeId::default()];
    let err = topo
        .pick_neighbors_into(&[(NodeId::new(0), 0)], &mut out)
        .unwrap_err();
    assert!(matches!(err, StoreError::CorruptGraph { .. }), "{err}");
    assert!(err.to_string().contains("neighbor id 999"), "{err}");
}

#[test]
fn topology_store_node_count_mismatch_with_feature_file_is_typed() {
    let gfile = ScratchFile::new("topo-mismatch-g");
    write_graph_file(gfile.path(), &tiny_graph()).unwrap(); // 6 nodes
    let ffile = ScratchFile::new("topo-mismatch-f");
    write_feature_file(ffile.path(), &FeatureTable::new(4, 2, 1), 9).unwrap(); // 9 nodes
    let graph = [Arc::new(SharedCsrFile::open(gfile.path()).unwrap())];
    let features = [Arc::new(SharedFileStore::open(ffile.path()).unwrap())];
    let err = check_sharded_population(&graph, &features).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::NodeCountMismatch {
                graph_nodes: 6,
                feature_nodes: 9,
                ..
            }
        ),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains(gfile.path().to_str().unwrap()), "{msg}");
    assert!(msg.contains(ffile.path().to_str().unwrap()), "{msg}");
    // Matching populations pass.
    let ffile2 = ScratchFile::new("topo-mismatch-ok");
    write_feature_file(ffile2.path(), &FeatureTable::new(4, 2, 1), 6).unwrap();
    let features2 = [Arc::new(SharedFileStore::open(ffile2.path()).unwrap())];
    check_sharded_population(&graph, &features2).unwrap();
}
