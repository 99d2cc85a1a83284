//! Cross-tier topology-store conformance: `FileTopology` and
//! `IspSampleTopology` must produce **bit-identical** `SampledBatch`es
//! (and plans, through the doc-hidden plan-then-resolve path) to
//! `InMemoryTopology` for the same seeds, across random Kronecker
//! graphs, page sizes, and cache sizes — the determinism contract
//! neighbor sampling relies on — with exact, uniform access counters on
//! every tier — and the one-pass `sample_on` must equal the
//! plan-then-resolve reference, its trace the plan's, and each
//! request of a `sample_group_on` group its own solo pass, sharded or
//! not. The ISP tier must
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
use smartsage::core::cost::trace_of_plan;
use smartsage::gnn::sampler::{plan_sample_on, sample_on};
use smartsage::gnn::{sample_group_on, Fanouts, SampleSpec, SampledBatch};
use smartsage::graph::csr::NEIGHBOR_ENTRY_BYTES;
use smartsage::graph::generate::{generate_power_law, generate_seed_graph, PowerLawConfig};
use smartsage::graph::kronecker::{expand, KroneckerConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::hostio::{ByteRange, GraphFile};
use smartsage::sim::Xoshiro256;
use smartsage::store::file::{FileStoreOptions, HEADER_BYTES};
use smartsage::store::{
    check_sharded_population, shard_ranges, write_feature_file, write_graph_file,
    write_graph_shard, CsrView, FileTopology, InMemoryTopology, IspGatherOptions,
    IspSampleTopology, SampleTrace, ScratchFile, ShardedTopology, SharedCsrFile, SharedFileStore,
    StoreError, StoreKind, StoreRegistry, TierSpec, TopologyKind, TopologyStore,
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

/// The picks a trace's pass drew: `fanout` per non-isolated access.
fn drawn_picks(trace: &SampleTrace) -> u64 {
    let per_hop = trace
        .hops
        .iter()
        .map(|h| (0..h.nodes.len()).map(|i| h.picks(i)).sum::<usize>());
    per_hop.sum::<usize>() as u64
}

/// A labelled topology store ("file x3").
type Tier = (String, Box<dyn TopologyStore>);

/// An ISP sampling tier over its own open of `path`.
fn isp_over(path: &Path, opts: FileStoreOptions) -> IspSampleTopology {
    let shared = SharedCsrFile::open_with(path, opts).unwrap();
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
                SharedCsrFile::open_with(whole.path(), opts).unwrap(),
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
        // One page cache each on both file-backed tiers: driven serially
        // with the same request sequence and the same exact-LRU
        // discipline, their page traffic must agree to the byte.
        let mut disk =
            FileTopology::new(Arc::new(SharedCsrFile::open_with(file.path(), opts).unwrap()));
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
        for hop in &plan_mem.trace.hops {
            let drawn: usize = (0..hop.nodes.len()).map(|i| hop.picks(i)).sum();
            expect_gathers += 3;
            expect_answers += (hop.nodes.len() + 2 * drawn) as u64;
        }
        for stats in [mem.stats(), disk.stats(), isp.stats()] {
            prop_assert_eq!(stats.gathers, expect_gathers);
            prop_assert_eq!(stats.nodes_gathered, expect_answers);
            prop_assert_eq!(stats.feature_bytes, expect_answers * NEIGHBOR_ENTRY_BYTES);
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

    /// Each tier's one pass is its plan, re-resolved, and its trace the
    /// plan's; and a group of 1–5
    /// requests (the first the pass's own) samples, through `2 × hops`
    /// calls, what each request samples alone on a fresh tier.
    #[test]
    fn topology_store_one_pass_sampling_equals_plan_then_resolve_on_every_tier(
        base_nodes in 8usize..40,
        graph_seed in any::<u64>(),
        page_pick in 0usize..5,
        cache_pages in 0usize..48,
        fanout1 in 1usize..5,
        fanout2 in 1usize..4,
        walk_steps in 1usize..6,
        raw_targets in proptest::collection::vec(0u32..100_000, 1..24),
        sample_seed in any::<u64>(),
        others in proptest::collection::vec(
            (0usize..4, proptest::collection::vec(0u32..100_000, 0..6), any::<u64>()),
            0..5,
        ),
    ) {
        let graph = kronecker_graph(base_nodes, graph_seed);
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let n = graph.num_nodes() as u32;
        let targets: Vec<NodeId> = raw_targets.iter().map(|&r| NodeId::new(r % n)).collect();
        // The group's other requests: random lists (some empty), an
        // empty list, repeats (of an id of their own and of the whole
        // first request), and the two ends of the id space.
        let mut lists = vec![targets.clone()];
        for (shape, raw, _) in &others {
            let mut list: Vec<NodeId> = raw.iter().map(|&r| NodeId::new(r % n)).collect();
            match shape {
                0 => {}
                1 => list.clear(),
                2 => {
                    list = vec![list.first().copied().unwrap_or(targets[0]); 3];
                    list.extend_from_slice(&targets);
                }
                _ => list = vec![NodeId::new(0), NodeId::new(n - 1), NodeId::new(0)],
            }
            lists.push(list);
        }
        let seeds = std::iter::once(sample_seed).chain(others.iter().map(|o| o.2));
        let specs: Vec<SampleSpec> = lists
            .iter()
            .zip(seeds)
            .map(|(targets, seed)| SampleSpec { targets, seed })
            .collect();
        // A fan-out tree, and a GraphSAINT walk (fan-out 1 per step).
        let walk = Fanouts::new(vec![1; walk_steps]);
        for fanouts in [Fanouts::new(vec![fanout1, fanout2]), walk] {
            let hops = fanouts.hops() as u64;
            // Each request alone, on a fresh tier, and the answers the
            // solo passes were given.
            let mut solo_answers = 0;
            let solo: Vec<SampledBatch> = specs
                .iter()
                .map(|spec| {
                    let mut fresh = CsrView::new(&graph);
                    let mut rng = Xoshiro256::seed_from_u64(spec.seed);
                    let sampled = sample_on(&mut fresh, spec.targets, &fanouts, &mut rng).unwrap();
                    solo_answers += fresh.stats().nodes_gathered;
                    sampled
                })
                .collect();
            let (tiers, _file, published) = every_tier(&graph, opts);
            for (what, mut topo) in tiers {
                let what = format!("{what} {:?}", fanouts.as_slice());
                let topo = topo.as_mut();
                // The one pass: the batch, two calls per hop.
                let mut rng = Xoshiro256::seed_from_u64(sample_seed);
                let batch = sample_on(topo, &targets, &fanouts, &mut rng).unwrap();
                let trace = batch.clone().into_trace();
                let one_pass = topo.stats();
                prop_assert_eq!(one_pass.gathers, 2 * hops, "{}", &what);
                prop_assert_eq!(
                    one_pass.nodes_gathered,
                    trace.num_accesses() + drawn_picks(&trace),
                    "{}: one answer per frontier degree and per drawn pick", &what
                );
                // The plan of the same pass (two calls per hop through
                // the recorder), re-resolved (one more), is the
                // independent reference, and its trace is the batch's.
                let mut rng = Xoshiro256::seed_from_u64(sample_seed);
                let plan = plan_sample_on(topo, &targets, &fanouts, &mut rng).unwrap();
                prop_assert_eq!(topo.stats().gathers, 4 * hops, "{}", &what);
                prop_assert_eq!(&trace_of_plan(&plan, &graph), &trace, "{}: plan trace diverged", &what);
                let resolved = plan.resolve_on(topo).unwrap();
                prop_assert_eq!(topo.stats().gathers, 5 * hops, "{}", &what);
                prop_assert_eq!(&resolved, &batch, "{}: resolve_on diverged", &what);
                // ...and every tier and shard count agrees with each
                // request's solo pass on a fresh mem tier.
                let mut rng = Xoshiro256::seed_from_u64(sample_seed);
                let solo_plan = plan_sample_on(&mut CsrView::new(&graph), &targets, &fanouts, &mut rng).unwrap();
                prop_assert_eq!(&plan, &solo_plan, "{}: plan differs from mem", &what);
                prop_assert_eq!(&batch, &solo[0], "{}: batch differs from mem", &what);
                // The group: two calls per hop whatever its size, the
                // solo passes' answers, and each request's batch (its
                // degrees and neighbors) its solo pass's.
                let before = topo.stats();
                let group = sample_group_on(topo, &specs, &fanouts).unwrap();
                let after = topo.stats();
                prop_assert_eq!(after.gathers - before.gathers, 2 * hops, "{}: group calls", &what);
                prop_assert_eq!(after.nodes_gathered - before.nodes_gathered, solo_answers, "{}", &what);
                prop_assert_eq!(group.len(), specs.len());
                for (i, (got, want)) in group.iter().zip(&solo).enumerate() {
                    prop_assert_eq!(got, want, "{}: request {} of {}: batch", &what, i, specs.len());
                }
            }
            for path in published {
                let _ = std::fs::remove_file(path);
            }
        }
    }

    /// One layout: a written `SSGRPH01` shard holds its rebased CSR
    /// offsets at `offset_entry_range(v)` and its neighbor ids at the
    /// edge-entry ranges of the modeled `GraphFile` placed at
    /// `HEADER_BYTES`, and nothing past its end.
    #[test]
    fn topology_store_graph_file_bytes_sit_at_the_modeled_layout(
        base_nodes in 8usize..40,
        graph_seed in any::<u64>(),
        cut_a in 0usize..1000,
        cut_b in 0usize..1000,
    ) {
        let graph = kronecker_graph(base_nodes, graph_seed);
        let n = graph.num_nodes();
        let (start, end) = ((cut_a % (n + 1)).min(cut_b % (n + 1)), (cut_a % (n + 1)).max(cut_b % (n + 1)));
        let file = ScratchFile::new("topo-layout");
        write_graph_shard(file.path(), &graph, start, end).unwrap();
        let bytes = std::fs::read(file.path()).unwrap();
        let entries = |r: ByteRange| -> Vec<u64> {
            bytes[r.offset as usize..(r.offset + r.len) as usize]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect()
        };
        // Global edge offset of node index `i` (`n` is the array's end).
        let edge_offset = |i: usize| match i {
            i if i == n => graph.num_edges(),
            i => graph.edge_list_start(NodeId::new(i as u32)),
        };
        let (lo, hi) = (edge_offset(start), edge_offset(end));
        let layout = GraphFile::at(HEADER_BYTES, n as u64, hi - lo).unwrap();
        prop_assert_eq!(bytes.len() as u64, layout.total_bytes());
        let rebased = |i: usize| edge_offset(i).clamp(lo, hi) - lo;
        for v in graph.node_ids() {
            let i = v.index();
            prop_assert_eq!(entries(layout.offset_entry_range(v)), vec![rebased(i), rebased(i + 1)]);
            if (start..end).contains(&i) {
                let ids: Vec<u64> = graph.neighbors(v).iter().map(|t| t.raw() as u64).collect();
                prop_assert_eq!(entries(layout.edge_entries(rebased(i), graph.degree(v))), ids);
            }
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

#[test]
fn topology_store_every_tier_checks_the_buffer_then_ids_then_pick_positions() {
    // The tier-call contract: a request is checked buffer first, then
    // every id, then every pick position, and a failed call counts
    // nothing. The double fault — a position past node 0's degree, then
    // an id past the graph — is the bad id on every tier.
    let graph = Arc::new(kronecker_graph(24, 0xC0DE));
    let n = graph.num_nodes();
    let opts = FileStoreOptions {
        page_bytes: 512,
        cache_pages: 8,
    };
    let whole = ScratchFile::new("topo-contract");
    write_graph_file(whole.path(), &graph).unwrap();
    let table = FeatureTable::new(4, 2, 0xC0DE);
    let registry = StoreRegistry::new();
    let mut tiers: Vec<(String, Box<dyn TopologyStore + '_>)> = vec![
        ("csr view".into(), Box::new(CsrView::new(&graph))),
        (
            "mem".into(),
            Box::new(InMemoryTopology::from_arc(Arc::clone(&graph))),
        ),
        (
            "file".into(),
            Box::new(FileTopology::new(Arc::new(
                SharedCsrFile::open_with(whole.path(), opts).unwrap(),
            ))),
        ),
        ("isp".into(), Box::new(isp_over(whole.path(), opts))),
    ];
    let mut published = Vec::new();
    for topology in [TopologyKind::Mem, TopologyKind::File, TopologyKind::Isp] {
        for shards in [1, 3] {
            let spec = TierSpec {
                store: StoreKind::Mem,
                topology,
                shards,
                file: opts,
            };
            let opened = registry.open_tiers(&graph, &table, n, &spec).unwrap();
            tiers.push((format!("routed {topology:?} x{shards}"), opened.topology));
            if topology != TopologyKind::Mem {
                published.extend(
                    (0..shards).map(|i| StoreRegistry::graph_shard_key_path(&graph, i, shards)),
                );
            }
        }
    }
    let first = NodeId::new(0);
    let past = NodeId::new(n as u32);
    let degree = graph.degree(first);
    for (what, tier) in &mut tiers {
        let mut degrees = [0u64; 1];
        tier.degrees_into(&[first], &mut degrees).unwrap();
        let before = tier.stats();
        let mut one = [NodeId::default(); 1];
        let errors = [
            tier.degrees_into(&[past, first], &mut degrees).unwrap_err(),
            tier.pick_neighbors_into(&[(past, 0), (first, 0)], &mut one)
                .unwrap_err(),
            tier.pick_neighbors_into(&[(first, degree), (past, 0)], &mut [one[0]; 2])
                .unwrap_err(),
            tier.pick_neighbors_into(&[(first, degree)], &mut one)
                .unwrap_err(),
        ];
        assert!(
            matches!(
                errors[0],
                StoreError::BadBuffer {
                    expected: 2,
                    actual: 1
                }
            ),
            "{what}: {}",
            errors[0]
        );
        assert!(
            matches!(
                errors[1],
                StoreError::BadBuffer {
                    expected: 2,
                    actual: 1
                }
            ),
            "{what}: {}",
            errors[1]
        );
        assert!(
            matches!(errors[2], StoreError::NodeOutOfRange { node, num_nodes }
                if node == past && num_nodes == n),
            "{what}: {}",
            errors[2]
        );
        assert!(
            matches!(errors[3], StoreError::PickOutOfRange { node, position, degree: d }
                if node == first && position == degree && d == degree),
            "{what}: {}",
            errors[3]
        );
        assert_eq!(tier.stats(), before, "{what}: a failed call counts nothing");
    }
    drop(tiers);
    for path in published {
        let _ = std::fs::remove_file(path);
    }
}

/// A [`StoreStats`](smartsage::store::StoreStats)'s ten fields in
/// declaration order.
fn fields(s: smartsage::store::StoreStats) -> [u64; 10] {
    [
        s.gathers,
        s.nodes_gathered,
        s.feature_bytes,
        s.pages_read,
        s.bytes_read,
        s.page_hits,
        s.page_misses,
        s.device_bytes_read,
        s.host_bytes_transferred,
        s.device_ns,
    ]
}

#[test]
fn topology_store_hub_picks_that_bounce_across_a_lists_pages_are_pinned() {
    // Node 0 is a hub of 2000 entries (16 000 bytes: 32 pages at 512,
    // 16 at 1001, 4 at 4096); node 1's short run and node 29's (the
    // last shard's) list sit between its runs. Each hub run bounces
    // between the far ends and the middle of its list, so nearly every
    // pick lands on another page than the one before. 1001-byte pages
    // cut entries across page boundaries. A 4-page cache churns, so the
    // counters also pin the order hits are promoted in; the second pass
    // reads what the first evicted.
    let mut edges: Vec<(u32, u32)> = (0..2000).map(|i| (0, (i * 7 + 3) % 30)).collect();
    edges.extend((0..40).map(|i| (1, (i * 11 + 1) % 30)));
    edges.extend((0..700).map(|i| (29, (i * 13 + 5) % 30)));
    edges.extend((2..29).map(|n| (n, (n * 3) % 30)));
    let graph = CsrGraph::from_edges(30, edges);
    let bounce = |n: u64, phase: u64| (0..n).map(move |i| (0u32, (i * 613 + phase) % 2000));
    let picks: Vec<(NodeId, u64)> = bounce(24, 0)
        .chain((0..10).map(|i| (1, i * 3 % 40)))
        .chain(bounce(12, 997))
        .chain((0..8).map(|i| (29, i * 89 % 700)))
        .chain(bounce(16, 41))
        .map(|(node, pos)| (NodeId::new(node), pos))
        .collect();
    let mut want = vec![NodeId::default(); picks.len()];
    CsrView::new(&graph)
        .pick_neighbors_into(&picks, &mut want)
        .unwrap();
    // (page size, tier, shards, the tier's stats after both passes).
    #[rustfmt::skip]
    let golden: [(u64, TopologyKind, usize, [u64; 10]); 12] = [
        (512, TopologyKind::File, 1, [2, 140, 1120, 79, 40448, 3, 79, 40448, 40448, 0]),
        (512, TopologyKind::File, 3, [2, 140, 1120, 78, 39936, 6, 78, 39936, 39936, 0]),
        (512, TopologyKind::Isp, 1, [2, 140, 1120, 79, 40448, 3, 79, 40448, 1120, 166910]),
        (512, TopologyKind::Isp, 3, [2, 140, 1120, 78, 39936, 6, 78, 39936, 1120, 182190]),
        (1001, TopologyKind::File, 1, [2, 140, 1120, 43, 43043, 3, 43, 43043, 43043, 0]),
        (1001, TopologyKind::File, 3, [2, 140, 1120, 44, 43445, 6, 44, 43445, 43445, 0]),
        (1001, TopologyKind::Isp, 1, [2, 140, 1120, 43, 43043, 3, 43, 43043, 1120, 102921]),
        (1001, TopologyKind::Isp, 3, [2, 140, 1120, 44, 43445, 6, 44, 43445, 1120, 153994]),
        (4096, TopologyKind::File, 1, [2, 140, 1120, 11, 42616, 3, 11, 42616, 42616, 0]),
        (4096, TopologyKind::File, 3, [2, 140, 1120, 10, 38440, 6, 10, 38440, 38440, 0]),
        (4096, TopologyKind::Isp, 1, [2, 140, 1120, 11, 42616, 3, 11, 42616, 1120, 102921]),
        (4096, TopologyKind::Isp, 3, [2, 140, 1120, 10, 38440, 6, 10, 38440, 1120, 137469]),
    ];
    let mut published = Vec::new();
    for (page_bytes, topology, shards, pinned) in golden {
        let what = format!("page {page_bytes} {topology:?} x{shards}");
        let opts = FileStoreOptions {
            page_bytes,
            cache_pages: 4,
        };
        // A private registry: every run starts with cold caches.
        let files = StoreRegistry::new()
            .open_graph_shards(&graph, shards, opts)
            .unwrap();
        published.extend(files.iter().map(|f| f.path().to_path_buf()));
        let ranges = shard_ranges(graph.num_nodes(), shards);
        let mut tier: Box<dyn TopologyStore> = match topology {
            TopologyKind::Isp => Box::new(
                ShardedTopology::over_isp(&files, &ranges, IspGatherOptions::default()).unwrap(),
            ),
            _ => Box::new(ShardedTopology::over_files(&files, &ranges).unwrap()),
        };
        for pass in 0..2 {
            let mut got = vec![NodeId::default(); picks.len()];
            tier.pick_neighbors_into(&picks, &mut got).unwrap();
            assert_eq!(got, want, "{what} pass {pass}");
        }
        assert_eq!(fields(tier.stats()), pinned, "{what}");
    }
    for path in published {
        let _ = std::fs::remove_file(path);
    }
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

/// Where `SSGRPH01` lays out `graph`: the modeled layout at the header.
fn file_layout(graph: &CsrGraph) -> GraphFile {
    GraphFile::at(HEADER_BYTES, graph.num_nodes() as u64, graph.num_edges()).unwrap()
}

fn corrupt_offset(path: &std::path::Path, index: u32, value: u64) {
    let at = file_layout(&tiny_graph())
        .offset_entry_range(NodeId::new(index))
        .offset as usize;
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
    // Node 5's list is edge entries 6 and 7. At 4 KiB pages it lies in
    // one page, so its run decodes out of one looked-up page; at 8-byte
    // pages every entry is a page of its own, so its run decodes pick
    // by pick across pages.
    let g = tiny_graph();
    let list = file_layout(&g).edge_entries(g.edge_list_start(NodeId::new(5)), 2);
    for (page_bytes, pages) in [(4096u64, 1u64), (8, 2)] {
        assert_eq!(list.block_count(page_bytes), pages);
        for (node, position) in [(0u32, 0u64), (5, 1)] {
            let file = ScratchFile::new("topo-target");
            write_graph_file(file.path(), &g).unwrap();
            // Overwrite the pick's edge entry with an id past the 6-node
            // bound.
            let entry = g.edge_list_start(NodeId::new(node)) + position;
            let edge = file_layout(&g).edge_entries(entry, 1).offset as usize;
            let mut bytes = std::fs::read(file.path()).unwrap();
            bytes[edge..edge + 8].copy_from_slice(&999u64.to_le_bytes());
            std::fs::write(file.path(), &bytes).unwrap();
            let opts = FileStoreOptions {
                page_bytes,
                cache_pages: 64,
            };
            let shared = SharedCsrFile::open_with(file.path(), opts).unwrap();
            let mut topo = FileTopology::new(Arc::new(shared));
            // A good call first, so the handle has counts to keep.
            let mut out = [NodeId::default(); 3];
            topo.pick_neighbors_into(&[(NodeId::new(1), 0); 3], &mut out)
                .unwrap();
            let before = topo.stats();
            let picks = [
                (NodeId::new(3), 0),
                (NodeId::new(node), 1 - position),
                (NodeId::new(node), position),
                (NodeId::new(node), 1 - position),
            ];
            let mut out = [NodeId::default(); 4];
            let err = topo.pick_neighbors_into(&picks, &mut out).unwrap_err();
            let what = format!("page {page_bytes}, node {node}: {err}");
            assert!(matches!(err, StoreError::CorruptGraph { .. }), "{what}");
            let named = format!(
                "neighbor id 999 at position {position} of node {} ",
                NodeId::new(node)
            );
            assert!(err.to_string().contains(&named), "{what}");
            assert_eq!(topo.stats(), before, "{what}");
        }
    }
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
