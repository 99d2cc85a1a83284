//! Cross-backend feature-store conformance: the file tier
//! (`SharedFileStore` via a scoped `StoreHandle`, single-owner with a
//! one-stripe cache and shared with four), the in-storage-processing
//! `IspGatherStore`, and `InMemoryStore` must return **byte-identical**
//! gathers for random graphs, batch orders, and page sizes — the
//! determinism contract the trainer relies on — and every store's own
//! counters must be exact. The ISP tier must
//! additionally keep its transfer split honest: device bytes are its
//! page reads, host bytes are only the packed rows that crossed the
//! modeled link, strictly below the file store's page traffic for
//! scattered multi-node gathers.

use proptest::prelude::*;
use smartsage::graph::{FeatureTable, NodeId};
use smartsage::store::file::{write_feature_file, FileStoreOptions};
use smartsage::store::{
    FeatureStore, InMemoryStore, IspGatherOptions, IspGatherStore, ScratchFile, SharedFileStore,
    StoreError, StoreHandle,
};
use std::path::Path;
use std::sync::Arc;

/// A single-owner file store: one handle on a private shared store
/// with a one-stripe cache.
fn open_solo(path: &Path, opts: FileStoreOptions) -> Result<StoreHandle, StoreError> {
    let shared = SharedFileStore::open_with(path, opts, 1)?;
    Ok(StoreHandle::new(Arc::new(shared)))
}

/// A single-owner ISP tier: default device parameters over a private
/// shared store with a one-stripe cache.
fn open_isp(path: &Path, opts: FileStoreOptions) -> Result<IspGatherStore, StoreError> {
    let shared = SharedFileStore::open_with(path, opts, 1)?;
    Ok(IspGatherStore::over(
        Arc::new(shared),
        IspGatherOptions::default(),
    ))
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

const PAGE_SIZES: [u64; 6] = [512, 1024, 2048, 4096, 8192, 16384];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn feature_store_file_gathers_match_mem_bit_for_bit(
        num_nodes in 1usize..220,
        dim in 1usize..48,
        classes in 1usize..7,
        seed in any::<u64>(),
        page_pick in 0usize..6,
        cache_pages in 0usize..48,
        raw_batches in proptest::collection::vec(
            proptest::collection::vec(0u32..100_000, 0..40),
            1..5,
        ),
        hot in 0u32..5,
    ) {
        let table = FeatureTable::new(dim, classes, seed);
        let file = ScratchFile::new("gather");
        write_feature_file(file.path(), &table, num_nodes).unwrap();
        let opts = FileStoreOptions {
            page_bytes: PAGE_SIZES[page_pick],
            cache_pages,
        };
        let mut on_disk = open_solo(file.path(), opts).unwrap();
        let mut shared = StoreHandle::new(Arc::new(
            SharedFileStore::open_with(file.path(), opts, 4).unwrap(),
        ));
        let mut isp = open_isp(file.path(), opts).unwrap();
        let mut in_mem = InMemoryStore::new(table, num_nodes);

        let mut expect_gathers = 0u64;
        let mut expect_nodes = 0u64;
        for raw in &raw_batches {
            // Arbitrary batch order, ids wrapped into range. With
            // `hot > 0` two picks in three land on `hot` ids scattered
            // over the file — the duplicate-heavy shape of a sampled
            // hop, where a few high-degree nodes are named many times.
            let nodes: Vec<NodeId> = raw
                .iter()
                .map(|&r| {
                    let id = if hot > 0 && r % 3 != 0 { r % hot * 37 } else { r };
                    NodeId::new(id % num_nodes as u32)
                })
                .collect();
            let from_disk = on_disk.gather(&nodes).unwrap();
            let from_shared = shared.gather(&nodes).unwrap();
            let from_isp = isp.gather(&nodes).unwrap();
            let from_mem = in_mem.gather(&nodes).unwrap();
            prop_assert_eq!(
                bits(&from_disk),
                bits(&from_mem),
                "gather diverged (nodes={}, dim={}, page={}, cache={})",
                num_nodes, dim, opts.page_bytes, cache_pages
            );
            prop_assert_eq!(
                bits(&from_shared),
                bits(&from_mem),
                "shared gather diverged (nodes={}, dim={}, page={}, cache={})",
                num_nodes, dim, opts.page_bytes, cache_pages
            );
            prop_assert_eq!(
                bits(&from_isp),
                bits(&from_mem),
                "isp gather diverged (nodes={}, dim={}, page={}, cache={})",
                num_nodes, dim, opts.page_bytes, cache_pages
            );
            expect_gathers += 1;
            expect_nodes += nodes.len() as u64;
        }

        // Counters are exact on every store.
        for stats in [on_disk.stats(), shared.stats(), isp.stats(), in_mem.stats()] {
            prop_assert_eq!(stats.gathers, expect_gathers);
            prop_assert_eq!(stats.nodes_gathered, expect_nodes);
            prop_assert_eq!(stats.feature_bytes, expect_nodes * dim as u64 * 4);
        }

        // The ISP transfer split stays honest under any parameters:
        // device bytes are exactly its page reads, host bytes are only
        // packed rows (never page-amplified above the payload), and
        // device time moves iff media was read.
        let isp_stats = isp.stats();
        prop_assert_eq!(isp_stats.device_bytes_read, isp_stats.bytes_read);
        prop_assert!(isp_stats.host_bytes_transferred <= isp_stats.feature_bytes);
        prop_assert_eq!(isp_stats.host_bytes_transferred % (dim as u64 * 4), 0);
        // Device time moves exactly when something crossed the link (a
        // scratchpad-resident gather issues no device command at all).
        prop_assert_eq!(
            isp_stats.device_ns > 0,
            isp_stats.host_bytes_transferred > 0
        );
        // The host-path stores ship exactly what they read.
        for host in [on_disk.stats(), shared.stats()] {
            prop_assert_eq!(host.host_bytes_transferred, host.bytes_read);
            prop_assert_eq!(host.device_bytes_read, host.bytes_read);
            prop_assert_eq!(host.device_ns, 0);
        }
        // Disk accounting is consistent: misses are exactly the pages
        // read, every read is page-granular, memory does no I/O. The
        // single-owner and shared stores agree exactly when driven
        // serially (same plan, same exact-LRU discipline per page).
        for disk in [on_disk.stats(), shared.stats()] {
            prop_assert_eq!(disk.page_misses, disk.pages_read);
            prop_assert!(disk.bytes_read <= disk.pages_read * opts.page_bytes);
            if expect_nodes > 0 {
                prop_assert!(disk.pages_read > 0);
            }
        }
        prop_assert_eq!(
            on_disk.stats().page_hits + on_disk.stats().page_misses,
            shared.stats().page_hits + shared.stats().page_misses
        );
        let mem = in_mem.stats();
        prop_assert_eq!(mem.pages_read + mem.bytes_read + mem.page_hits + mem.page_misses, 0);
    }

    #[test]
    fn feature_store_labels_agree_across_backends(
        num_nodes in 1usize..150,
        dim in 1usize..16,
        classes in 1usize..9,
        seed in any::<u64>(),
    ) {
        let table = FeatureTable::new(dim, classes, seed);
        let file = ScratchFile::new("labels");
        write_feature_file(file.path(), &table, num_nodes).unwrap();
        let disk = open_solo(file.path(), FileStoreOptions::default()).unwrap();
        let mem = InMemoryStore::new(table, num_nodes);
        for i in 0..num_nodes {
            let node = NodeId::new(i as u32);
            prop_assert_eq!(disk.label(node), mem.label(node));
        }
        prop_assert_eq!(disk.dim(), mem.dim());
        prop_assert_eq!(disk.num_classes(), mem.num_classes());
        prop_assert_eq!(disk.num_nodes(), mem.num_nodes());
    }
}

#[test]
fn feature_store_gathers_are_independent_of_batch_split() {
    // The same node set gathered as one batch, per-node, or in chunks
    // must resolve identically — cache state cannot leak into values.
    let table = FeatureTable::new(10, 4, 99);
    let file = ScratchFile::new("split");
    write_feature_file(file.path(), &table, 64).unwrap();
    let opts = FileStoreOptions {
        page_bytes: 512,
        cache_pages: 4, // deliberately tiny: constant eviction pressure
    };
    let nodes: Vec<NodeId> = (0..64u32).rev().map(NodeId::new).collect();
    let mut whole = open_solo(file.path(), opts).unwrap();
    let want = whole.gather(&nodes).unwrap();
    let mut chunked = open_solo(file.path(), opts).unwrap();
    let mut got = Vec::new();
    for chunk in nodes.chunks(7) {
        got.extend(chunked.gather(chunk).unwrap());
    }
    assert_eq!(bits(&want), bits(&got));
}

#[test]
fn feature_store_isp_host_bytes_strictly_undercut_the_file_store() {
    // Scattered multi-node gathers: 32-byte rows, 128 per 4 KiB page,
    // one requested row per page. The file store ships every touched
    // page whole; the ISP tier ships only the packed rows — the
    // Fig 10(a)-vs-10(b) split, measured on identical bytes.
    let table = FeatureTable::new(8, 4, 0x10B);
    let file = ScratchFile::new("isp-reduction");
    write_feature_file(file.path(), &table, 2048).unwrap();
    let nodes: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 128)).collect();
    let mut disk = open_solo(file.path(), FileStoreOptions::default()).unwrap();
    let mut isp = open_isp(file.path(), FileStoreOptions::default()).unwrap();
    let want = disk.gather(&nodes).unwrap();
    assert_eq!(bits(&isp.gather(&nodes).unwrap()), bits(&want));
    let (d, i) = (disk.stats(), isp.stats());
    assert_eq!(d.host_bytes_transferred, d.bytes_read, "file ships pages");
    assert_eq!(
        i.host_bytes_transferred,
        16 * 8 * 4,
        "isp ships packed rows"
    );
    assert!(
        i.host_bytes_transferred < d.host_bytes_transferred,
        "isp host bytes {} must be strictly below the file store's {}",
        i.host_bytes_transferred,
        d.host_bytes_transferred
    );
    assert_eq!(
        i.device_bytes_read, d.device_bytes_read,
        "both tiers read the same pages from media"
    );
    assert!(i.transfer_reduction() > 100.0, "one row per 4 KiB page");
    assert!(i.device_ns > 0, "the isp gather costs modeled device time");
    // Re-gathering the same rows is free on the ISP host path (the
    // scratchpad holds them) while the file store re-ships nothing
    // either (page cache) — the split stays consistent.
    isp.gather(&nodes).unwrap();
    assert_eq!(isp.stats().host_bytes_transferred, i.host_bytes_transferred);
}

#[test]
fn feature_store_truncated_file_reports_path_and_expected_length() {
    let table = FeatureTable::new(8, 2, 1);
    let file = ScratchFile::new("truncated");
    write_feature_file(file.path(), &table, 32).unwrap();
    let expected = std::fs::metadata(file.path()).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(file.path())
        .unwrap()
        .set_len(expected - 100)
        .unwrap();
    let err = open_solo(file.path(), FileStoreOptions::default()).unwrap_err();
    assert!(matches!(err, StoreError::Truncated { .. }));
    let msg = err.to_string();
    assert!(msg.contains(file.path().to_str().unwrap()), "{msg}");
    assert!(msg.contains(&expected.to_string()), "{msg}");
}
