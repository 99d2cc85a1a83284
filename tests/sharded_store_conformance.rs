//! Shard-conformance suite: partitioning either axis of a dataset
//! across N modeled devices is **invisible in the values**.
//!
//! The sharded stores scatter each batched request to its owning
//! shards and merge the answers back in request order, so an N-shard
//! store must be bit-identical to the 1-shard and in-memory tiers for
//! random Kronecker graphs, shard counts {1, 2, 3, 7} (including
//! counts above the node count, i.e. empty tail shards), page sizes,
//! cache budgets, and batches that straddle shard boundaries — while
//! the per-shard [`StoreStats`] breakdown sums *exactly* to the
//! unsharded totals. A request that one device owns is answered by that
//! device alone, in place — every request, at one device — and must be
//! just as invisible: requests drawn wholly inside one member's range,
//! straddling two, and spread over all (as drawn, and sorted so each
//! member's share is one run) are checked against the unsharded store
//! of the same tier. Every shard file is the registry's own — the
//! `-p{i}of{k}` files `StoreRegistry::open_tiers` opens — so the suite
//! proves the product's partition, not one built by hand. The negative
//! paths are typed too: node ranges that leave a gap, a shard file with
//! the wrong geometry, mismatched feature-vs-graph shard counts and an
//! unopenable shard path each fail with a [`StoreError`] naming the
//! file — never a panic.

use proptest::prelude::*;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::kronecker::{expand, KroneckerConfig};
use smartsage::graph::{CsrGraph, FeatureTable, NodeId};
use smartsage::store::{
    check_sharded_population, shard_ranges, CsrView, FeatureStore, FileStoreOptions, FileTopology,
    InMemoryStore, InMemoryTopology, IspGatherOptions, IspGatherStore, IspSampleTopology,
    ShardedFeatureStore, ShardedTopology, SharedCsrFile, SharedFileStore, StoreError, StoreHandle,
    StoreRegistry, StoreStats, TopologyStore,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const PAGE_SIZES: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];
const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 7];

/// A small random Kronecker graph: a power-law base expanded by a
/// power-law seed graph with random edge thinning.
fn kronecker(base_nodes: usize, seed_nodes: usize, seed: u64) -> CsrGraph {
    let base = generate_power_law(&PowerLawConfig {
        nodes: base_nodes,
        avg_degree: 3.0,
        seed,
        ..PowerLawConfig::default()
    });
    let seed_graph = generate_power_law(&PowerLawConfig {
        nodes: seed_nodes,
        avg_degree: 2.0,
        seed: seed ^ 0xD1CE,
        ..PowerLawConfig::default()
    });
    expand(
        &base,
        &seed_graph,
        &KroneckerConfig {
            edge_keep_probability: 0.8,
            seed: seed ^ 0x5EED,
        },
    )
}

/// Registry files a test published, removed when it is done with them
/// (content-keyed files otherwise outlive the process by design).
struct Published(Vec<PathBuf>);

impl Drop for Published {
    fn drop(&mut self) {
        for path in &self.0 {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// The registry's `shards`-way feature partition of `table`'s first
/// `num_nodes` rows — the files `open_tiers` opens — through a fresh
/// registry, so every call opens its own page caches.
fn feature_shards(
    table: &FeatureTable,
    num_nodes: usize,
    shards: usize,
    opts: FileStoreOptions,
) -> (Vec<Arc<SharedFileStore>>, Published) {
    let files = StoreRegistry::new()
        .open_feature_shards(table, num_nodes, shards, opts)
        .unwrap();
    let published = Published(files.iter().map(|f| f.path().to_path_buf()).collect());
    (files, published)
}

/// The registry's `shards`-way topology partition of `graph`, opened
/// like [`feature_shards`].
fn graph_shards(
    graph: &CsrGraph,
    shards: usize,
    opts: FileStoreOptions,
) -> (Vec<Arc<SharedCsrFile>>, Published) {
    let files = StoreRegistry::new()
        .open_graph_shards(graph, shards, opts)
        .unwrap();
    let published = Published(files.iter().map(|f| f.path().to_path_buf()).collect());
    (files, published)
}

/// Every request batch deliberately straddles shard boundaries: the
/// raw picks are wrapped into range, then each boundary node and its
/// predecessor are appended so every shard seam is crossed.
fn straddling_batch(raw: &[u32], num_nodes: usize, ranges: &[(usize, usize)]) -> Vec<NodeId> {
    let mut nodes: Vec<NodeId> = raw
        .iter()
        .map(|&r| NodeId::new(r % num_nodes as u32))
        .collect();
    for &(start, _) in ranges {
        if start > 0 && start < num_nodes {
            nodes.push(NodeId::new(start as u32));
            nodes.push(NodeId::new(start as u32 - 1));
        }
    }
    nodes
}

/// The exact summation contract: every I/O-level field (and the
/// answer-volume fields) of the per-shard breakdown sums to the
/// store's own totals.
fn assert_shards_sum_to_total(per_shard: &[StoreStats], total: StoreStats, shards: usize) {
    assert_eq!(per_shard.len(), shards);
    let sum = |f: fn(&StoreStats) -> u64| -> u64 { per_shard.iter().map(f).sum() };
    assert_eq!(sum(|s| s.nodes_gathered), total.nodes_gathered);
    assert_eq!(sum(|s| s.feature_bytes), total.feature_bytes);
    assert_eq!(sum(|s| s.pages_read), total.pages_read);
    assert_eq!(sum(|s| s.bytes_read), total.bytes_read);
    assert_eq!(sum(|s| s.page_hits), total.page_hits);
    assert_eq!(sum(|s| s.page_misses), total.page_misses);
    assert_eq!(sum(|s| s.device_bytes_read), total.device_bytes_read);
    assert_eq!(
        sum(|s| s.host_bytes_transferred),
        total.host_bytes_transferred
    );
    assert_eq!(sum(|s| s.device_ns), total.device_ns);
}

/// A request of one of four shapes over `ranges`, and the member that
/// owns all of it when one does:
///
/// * `0` — wholly inside one non-empty member's range: the last one
///   every third draw, else any (so ranges that do not start at 0 come
///   up as soon as there are two);
/// * `1` — straddling two adjacent non-empty members, alternating
///   between them and touching both sides of the seam;
/// * `2` — spread over the whole population, touching every non-empty
///   member;
/// * `3` — the same, sorted by node: each member's share is one run of
///   the request, which that member answers in place.
///
/// With a single non-empty member every shape is an owned request.
fn shaped_request(
    shape: usize,
    pick: usize,
    raw: &[u32],
    ranges: &[(usize, usize)],
) -> (Vec<NodeId>, Option<usize>) {
    let live: Vec<usize> = (0..ranges.len())
        .filter(|&i| ranges[i].1 > ranges[i].0)
        .collect();
    let inside = |member: usize, r: u32| {
        let (start, end) = ranges[member];
        NodeId::new((start + r as usize % (end - start)) as u32)
    };
    if shape == 0 || live.len() == 1 {
        let owner = match pick % 3 {
            0 => live[live.len() - 1],
            _ => live[pick % live.len()],
        };
        return (raw.iter().map(|&r| inside(owner, r)).collect(), Some(owner));
    }
    let mut nodes: Vec<NodeId> = match shape {
        1 => {
            let left = pick % (live.len() - 1);
            let seam = ranges[live[left + 1]].0 as u32;
            raw.iter()
                .enumerate()
                .map(|(j, &r)| inside(live[left + j % 2], r))
                .chain([NodeId::new(seam), NodeId::new(seam - 1)])
                .collect()
        }
        _ => {
            let num_nodes = ranges[ranges.len() - 1].1 as u32;
            raw.iter()
                .map(|&r| NodeId::new(r % num_nodes))
                .chain(live.iter().map(|&m| NodeId::new(ranges[m].0 as u32)))
                .collect()
        }
    };
    if shape == 3 {
        nodes.sort();
    }
    (nodes, None)
}

/// After an owned request of `asked` elements, only the owner's
/// counters moved: one sub-call, `asked` answers — and nothing at all
/// for an empty request. Every other member is untouched.
fn assert_only_the_owner_was_asked(
    before: &[StoreStats],
    after: &[StoreStats],
    owner: Option<usize>,
    asked: usize,
) {
    let Some(owner) = owner else { return };
    for (i, (before, after)) in before.iter().zip(after).enumerate() {
        if i == owner && asked > 0 {
            assert_eq!(after.gathers, before.gathers + 1, "member {i} sub-calls");
            assert_eq!(after.nodes_gathered, before.nodes_gathered + asked as u64);
        } else {
            assert_eq!(after, before, "member {i} was not asked");
        }
    }
}

/// The routed store's merged stats against the unsharded store of the
/// same tier: the access counters at every device count (an access
/// counted twice, or not at all, shows here), every field where the
/// I/O is the same I/O — one device, or no I/O at all — and a
/// per-member breakdown that sums exactly.
fn assert_merged_stats_match(
    total: StoreStats,
    per_shard: &[StoreStats],
    unsharded: StoreStats,
    shards: usize,
) {
    assert_eq!(total.gathers, unsharded.gathers);
    assert_eq!(total.nodes_gathered, unsharded.nodes_gathered);
    assert_eq!(total.feature_bytes, unsharded.feature_bytes);
    if shards == 1 || unsharded.bytes_read == 0 {
        assert_eq!(total, unsharded);
    }
    assert_shards_sum_to_total(per_shard, total, shards);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_feature_stores_match_the_unsharded_mem_tier_bit_for_bit(
        num_nodes in 1usize..180,
        dim in 1usize..24,
        classes in 1usize..7,
        seed in any::<u64>(),
        shard_pick in 0usize..4,
        page_pick in 0usize..6,
        cache_pages in 0usize..48,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..24),
            1..4,
        ),
    ) {
        let shards = SHARD_COUNTS[shard_pick];
        let ranges = shard_ranges(num_nodes, shards);
        let table = FeatureTable::new(dim, classes, seed);
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let (files, _published) = feature_shards(&table, num_nodes, shards, opts);
        let (isp_files, _isp_published) = feature_shards(&table, num_nodes, shards, opts);
        let mut reference = InMemoryStore::new(table.clone(), num_nodes);
        let mut sharded_mem = ShardedFeatureStore::mem(table, num_nodes, shards);
        let mut sharded_file = ShardedFeatureStore::over_files(&files).unwrap();
        let mut sharded_isp =
            ShardedFeatureStore::over_isp(&isp_files, IspGatherOptions::default()).unwrap();
        prop_assert_eq!(sharded_file.num_shards(), shards);

        for raw in &raw_batches {
            let nodes = straddling_batch(raw, num_nodes, &ranges);
            let want = reference.gather(&nodes).unwrap();
            for (label, store) in [
                ("mem", &mut sharded_mem),
                ("file", &mut sharded_file),
                ("isp", &mut sharded_isp),
            ] {
                let got = (store as &mut dyn FeatureStore).gather(&nodes).unwrap();
                prop_assert_eq!(
                    bits(&got),
                    bits(&want),
                    "sharded {} tier diverged (nodes={}, shards={}, page={}, cache={})",
                    label, num_nodes, shards, opts.page_bytes, cache_pages
                );
            }
        }

        // Labels and geometry agree across every sharded tier.
        for node in (0..num_nodes as u32).map(NodeId::new) {
            let want = reference.label(node);
            prop_assert_eq!(sharded_mem.label(node), want);
            prop_assert_eq!(sharded_file.label(node), want);
            prop_assert_eq!(sharded_isp.label(node), want);
        }

        // Access-level counters are identical to the unsharded store at
        // every shard count, and the per-shard breakdown sums exactly.
        let want = reference.stats();
        for store in [
            &sharded_mem as &dyn FeatureStore,
            &sharded_file,
            &sharded_isp,
        ] {
            let total = store.stats();
            prop_assert_eq!(total.gathers, want.gathers);
            prop_assert_eq!(total.nodes_gathered, want.nodes_gathered);
            prop_assert_eq!(total.feature_bytes, want.feature_bytes);
            assert_shards_sum_to_total(&store.shard_stats(), total, shards);
        }
        // The mem tier does no I/O, sharded or not.
        let mem_total = sharded_mem.stats();
        prop_assert_eq!(
            mem_total.bytes_read + mem_total.pages_read + mem_total.page_hits
                + mem_total.page_misses,
            0
        );
    }

    #[test]
    fn sharded_topologies_match_the_unsharded_mem_tier_exactly(
        base_nodes in 2usize..14,
        seed_nodes in 2usize..6,
        seed in any::<u64>(),
        shard_pick in 0usize..4,
        page_pick in 0usize..6,
        cache_pages in 0usize..48,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec((0u32..100_000, 0u64..100), 0..24),
            1..4,
        ),
    ) {
        let shards = SHARD_COUNTS[shard_pick];
        let graph = Arc::new(kronecker(base_nodes, seed_nodes, seed));
        let num_nodes = graph.num_nodes();
        let ranges = shard_ranges(num_nodes, shards);
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let (files, _published) = graph_shards(&graph, shards, opts);
        let (isp_files, _isp_published) = graph_shards(&graph, shards, opts);
        let mut reference = CsrView::new(&graph);
        let mut sharded_mem = ShardedTopology::mem(Arc::clone(&graph), shards);
        let mut sharded_file = ShardedTopology::over_files(&files, &ranges).unwrap();
        let mut sharded_isp =
            ShardedTopology::over_isp(&isp_files, &ranges, IspGatherOptions::default()).unwrap();
        prop_assert_eq!(sharded_file.num_shards(), shards);
        prop_assert_eq!(sharded_file.num_edges(), graph.num_edges());
        prop_assert_eq!(sharded_isp.num_edges(), graph.num_edges());

        for raw in &raw_batches {
            // Degree queries straddle every shard seam...
            let nodes = straddling_batch(
                &raw.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
                num_nodes,
                &ranges,
            );
            let mut want = vec![0u64; nodes.len()];
            reference.degrees_into(&nodes, &mut want).unwrap();
            for (label, topo) in [
                ("mem", &mut sharded_mem),
                ("file", &mut sharded_file),
                ("isp", &mut sharded_isp),
            ] {
                let mut got = vec![0u64; nodes.len()];
                (topo as &mut dyn TopologyStore)
                    .degrees_into(&nodes, &mut got)
                    .unwrap();
                prop_assert_eq!(
                    &got,
                    &want,
                    "sharded {} degrees diverged (nodes={}, shards={})",
                    label, num_nodes, shards
                );
            }
            // ...and so do the neighbor picks derived from them.
            let picks: Vec<(NodeId, u64)> = nodes
                .iter()
                .zip(&want)
                .zip(raw.iter().map(|&(_, k)| k).chain(0u64..))
                .filter(|((_, &d), _)| d > 0)
                .map(|((&n, &d), k)| (n, k % d))
                .collect();
            let mut want_n = vec![NodeId::default(); picks.len()];
            reference.pick_neighbors_into(&picks, &mut want_n).unwrap();
            for (label, topo) in [
                ("mem", &mut sharded_mem),
                ("file", &mut sharded_file),
                ("isp", &mut sharded_isp),
            ] {
                let mut got_n = vec![NodeId::default(); picks.len()];
                (topo as &mut dyn TopologyStore)
                    .pick_neighbors_into(&picks, &mut got_n)
                    .unwrap();
                prop_assert_eq!(
                    &got_n,
                    &want_n,
                    "sharded {} picks diverged (nodes={}, shards={})",
                    label, num_nodes, shards
                );
            }
        }

        // Access counters match the unsharded view; per-shard I/O sums
        // exactly to each sharded store's totals.
        let want = reference.stats();
        for topo in [
            &sharded_mem as &dyn TopologyStore,
            &sharded_file,
            &sharded_isp,
        ] {
            let total = topo.stats();
            prop_assert_eq!(total.gathers, want.gathers);
            prop_assert_eq!(total.nodes_gathered, want.nodes_gathered);
            prop_assert_eq!(total.feature_bytes, want.feature_bytes);
            assert_shards_sum_to_total(&topo.shard_stats(), total, shards);
        }
    }

    #[test]
    fn owned_straddling_and_spread_requests_match_the_unsharded_store_of_each_tier(
        base_nodes in 2usize..8,
        seed_nodes in 2usize..4,
        seed in any::<u64>(),
        dim in 1usize..12,
        shard_pick in 0usize..5,
        page_pick in 0usize..6,
        cache_pages in 0usize..48,
        requests in proptest::collection::vec(
            (
                0usize..4,
                0usize..64,
                proptest::collection::vec((0u32..100_000, 0u64..100), 1..16),
            ),
            1..6,
        ),
    ) {
        let graph = Arc::new(kronecker(base_nodes, seed_nodes, seed));
        let num_nodes = graph.num_nodes();
        // One device, a few, and more devices than nodes.
        let shards = [1, 2, 3, 5, num_nodes + 2][shard_pick];
        let ranges = shard_ranges(num_nodes, shards);
        let table = FeatureTable::new(dim, 3, seed);
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let isp = IspGatherOptions::default;
        // Each routed store beside the unsharded store of its tier (the
        // 1-way partition's one file); every store opens its own files'
        // caches.
        let (parts, _p) = feature_shards(&table, num_nodes, shards, opts);
        let (isp_parts, _p) = feature_shards(&table, num_nodes, shards, opts);
        let (mut whole, _p) = feature_shards(&table, num_nodes, 1, opts);
        let (mut isp_whole, _p) = feature_shards(&table, num_nodes, 1, opts);
        let mut features: [(ShardedFeatureStore, Box<dyn FeatureStore>); 3] = [
            (
                ShardedFeatureStore::mem(table.clone(), num_nodes, shards),
                Box::new(InMemoryStore::new(table.clone(), num_nodes)),
            ),
            (
                ShardedFeatureStore::over_files(&parts).unwrap(),
                Box::new(StoreHandle::new(whole.remove(0))),
            ),
            (
                ShardedFeatureStore::over_isp(&isp_parts, isp()).unwrap(),
                Box::new(IspGatherStore::over(isp_whole.remove(0), isp())),
            ),
        ];
        let (parts, _p) = graph_shards(&graph, shards, opts);
        let (isp_parts, _p) = graph_shards(&graph, shards, opts);
        let (mut whole, _p) = graph_shards(&graph, 1, opts);
        let (mut isp_whole, _p) = graph_shards(&graph, 1, opts);
        let mut topologies: [(ShardedTopology, Box<dyn TopologyStore>); 3] = [
            (
                ShardedTopology::mem(Arc::clone(&graph), shards),
                Box::new(InMemoryTopology::from_arc(Arc::clone(&graph))),
            ),
            (
                ShardedTopology::over_files(&parts, &ranges).unwrap(),
                Box::new(FileTopology::new(whole.remove(0))),
            ),
            (
                ShardedTopology::over_isp(&isp_parts, &ranges, isp()).unwrap(),
                Box::new(IspSampleTopology::over(isp_whole.remove(0), isp())),
            ),
        ];

        for (shape, pick, raw) in &requests {
            let raw_nodes: Vec<u32> = raw.iter().map(|&(n, _)| n).collect();
            let (nodes, owner) = shaped_request(*shape, *pick, &raw_nodes, &ranges);
            for (routed, unsharded) in &mut features {
                let before = routed.shard_stats();
                prop_assert_eq!(
                    bits(&routed.gather(&nodes).unwrap()),
                    bits(&unsharded.gather(&nodes).unwrap()),
                    "rows diverged (shape={}, shards={}, owner={:?})", shape, shards, owner
                );
                assert_only_the_owner_was_asked(
                    &before, &routed.shard_stats(), owner, nodes.len(),
                );
            }
            for (routed, unsharded) in &mut topologies {
                let before = routed.shard_stats();
                let (mut got, mut want) = (vec![0u64; nodes.len()], vec![0u64; nodes.len()]);
                routed.degrees_into(&nodes, &mut got).unwrap();
                unsharded.degrees_into(&nodes, &mut want).unwrap();
                prop_assert_eq!(&got, &want, "degrees diverged (shards={})", shards);
                assert_only_the_owner_was_asked(
                    &before, &routed.shard_stats(), owner, nodes.len(),
                );
                // The picks of an owned request are owned by the same
                // member (and are an empty request when every degree
                // is zero).
                let picks: Vec<(NodeId, u64)> = nodes
                    .iter()
                    .zip(&want)
                    .zip(raw.iter().map(|&(_, k)| k).chain(0u64..))
                    .filter(|((_, &d), _)| d > 0)
                    .map(|((&n, &d), k)| (n, k % d))
                    .collect();
                let before = routed.shard_stats();
                let mut got = vec![NodeId::default(); picks.len()];
                let mut want = vec![NodeId::default(); picks.len()];
                routed.pick_neighbors_into(&picks, &mut got).unwrap();
                unsharded.pick_neighbors_into(&picks, &mut want).unwrap();
                prop_assert_eq!(&got, &want, "picks diverged (shards={})", shards);
                assert_only_the_owner_was_asked(
                    &before, &routed.shard_stats(), owner, picks.len(),
                );
            }
        }

        for (routed, unsharded) in &features {
            assert_merged_stats_match(
                routed.stats(), &routed.shard_stats(), unsharded.stats(), shards,
            );
        }
        for (routed, unsharded) in &topologies {
            assert_merged_stats_match(
                routed.stats(), &routed.shard_stats(), unsharded.stats(), shards,
            );
        }
    }
}

// ---------------------------------------------------------------------
// Negative paths: every malformed shard setup is a typed error naming
// the file — never a panic.
// ---------------------------------------------------------------------

#[test]
fn gapped_ranges_are_a_typed_layout_error_naming_file_and_shard() {
    // The registry's graph shards, routed over ranges in which shard 2
    // starts two nodes past where shard 1 ended.
    let graph = kronecker(4, 3, 8);
    let (files, _published) = graph_shards(&graph, 3, FileStoreOptions::default());
    let mut ranges = shard_ranges(graph.num_nodes(), 3);
    ranges[2].0 += 2;
    let err = ShardedTopology::over_files(&files, &ranges).unwrap_err();
    assert!(
        matches!(err, StoreError::ShardLayout { shard: 2, .. }),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains(files[2].path().to_str().unwrap()), "{msg}");
    assert!(msg.contains("shard 2"), "{msg}");
}

#[test]
fn shard_geometry_mismatch_is_a_typed_error_naming_the_file() {
    // Feature shards of different dim: shard 1 comes from a 5-wide
    // partition of the same node range.
    let opts = FileStoreOptions::default();
    let (narrow, _n) = feature_shards(&FeatureTable::new(4, 2, 9), 30, 3, opts);
    let (wide, _w) = feature_shards(&FeatureTable::new(5, 2, 9), 30, 3, opts);
    let mixed = [
        Arc::clone(&narrow[0]),
        Arc::clone(&wide[1]),
        Arc::clone(&narrow[2]),
    ];
    let err = ShardedFeatureStore::over_files(&mixed).unwrap_err();
    assert!(
        matches!(err, StoreError::ShardGeometry { shard: 1, .. }),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains(wide[1].path().to_str().unwrap()), "{msg}");
    assert!(msg.contains("dim 5"), "{msg}");

    // A graph shard whose global node count disagrees with the
    // partition: shard 0 comes from a smaller graph's partition.
    let graph = kronecker(4, 3, 2);
    let smaller = kronecker(3, 3, 2);
    let (files, _g) = graph_shards(&graph, 2, opts);
    let (small, _s) = graph_shards(&smaller, 2, opts);
    let mixed = [Arc::clone(&small[0]), Arc::clone(&files[1])];
    let err = ShardedTopology::over_files(&mixed, &shard_ranges(graph.num_nodes(), 2)).unwrap_err();
    assert!(
        matches!(err, StoreError::ShardGeometry { shard: 0, .. }),
        "{err}"
    );
    assert!(
        err.to_string().contains(small[0].path().to_str().unwrap()),
        "{}",
        err
    );
}

#[test]
fn feature_vs_graph_shard_count_mismatch_is_typed_and_names_both_files() {
    let graph = kronecker(4, 3, 3);
    let table = FeatureTable::new(4, 2, 3);
    let opts = FileStoreOptions::default();
    let (graphs, _g) = graph_shards(&graph, 2, opts);
    let (features, _f) = feature_shards(&table, graph.num_nodes(), 3, opts);
    let err = check_sharded_population(&graphs, &features).unwrap_err();
    assert!(
        matches!(
            err,
            StoreError::ShardCountMismatch {
                graph_shards: 2,
                feature_shards: 3,
                ..
            }
        ),
        "{err}"
    );
    let msg = err.to_string();
    assert!(msg.contains(graphs[0].path().to_str().unwrap()), "{msg}");
    assert!(msg.contains(features[0].path().to_str().unwrap()), "{msg}");

    // Same shard count but mismatched populations stays a typed
    // node-count error.
    let (small, _s) = feature_shards(&table, graph.num_nodes() - 1, 2, opts);
    let err = check_sharded_population(&graphs, &small).unwrap_err();
    assert!(matches!(err, StoreError::NodeCountMismatch { .. }), "{err}");
}

#[test]
fn empty_shards_resolve_nothing_but_stay_in_the_breakdown() {
    // 7 shards over 4 nodes: shards 4..7 hold no rows. They must open,
    // answer nothing, and appear (all-zero) in the per-shard stats.
    let table = FeatureTable::new(3, 2, 11);
    let (files, _published) = feature_shards(&table, 4, 7, FileStoreOptions::default());
    let mut reference = InMemoryStore::new(table.clone(), 4);
    let mut sharded = ShardedFeatureStore::over_files(&files).unwrap();
    let nodes: Vec<NodeId> = [3u32, 0, 1, 2, 3].map(NodeId::new).to_vec();
    let want = reference.gather(&nodes).unwrap();
    assert_eq!(bits(&sharded.gather(&nodes).unwrap()), bits(&want));
    let per_shard = sharded.shard_stats();
    assert_eq!(per_shard.len(), 7);
    assert_shards_sum_to_total(&per_shard, sharded.stats(), 7);
    for empty in &per_shard[4..] {
        assert_eq!(empty.nodes_gathered, 0, "an empty shard answers nothing");
    }
    // One row per populated shard, except node 3's shard (asked twice).
    assert_eq!(
        per_shard[..4]
            .iter()
            .map(|s| s.nodes_gathered)
            .collect::<Vec<_>>(),
        [1, 1, 1, 2]
    );
}

#[test]
fn manifest_paths_survive_in_every_error_message() {
    // The SSL001 contract behind the negative paths: errors carry the
    // offending path so operators can fix the layout, and nothing on
    // the way from a shard path to a routed store can panic on an
    // untrusted one — an unopenable shard file is a typed I/O error
    // naming it on either axis.
    let opts = FileStoreOptions::default();
    let feature = Path::new("/nonexistent/shard-0.fbin");
    let err = SharedFileStore::open_with(feature, opts, 1).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    assert!(
        err.to_string().contains("/nonexistent/shard-0.fbin"),
        "{err}"
    );
    let graph = Path::new("/nonexistent/shard-1.gbin");
    let err = SharedCsrFile::open_with(graph, opts, 1).unwrap_err();
    assert!(matches!(err, StoreError::Io { .. }), "{err}");
    assert!(
        err.to_string().contains("/nonexistent/shard-1.gbin"),
        "{err}"
    );
}
