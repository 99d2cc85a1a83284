//! Golden counters of the ISP tiers: the modeled device time and the
//! device model's flash / page-buffer traffic of one fixed, seeded
//! request sequence, pinned digit for digit.
//!
//! `device_ns` is a pure function of the page plan each read hands
//! [`IspGatherStore`] / [`IspSampleTopology`]'s device model, in order.
//! Every other suite only checks it is positive; this one fails when a
//! change to the paged read path alters which pages a read reports, or
//! the order it reports them in. Page size 8192 does not divide the
//! graph file's 4096-byte array alignment, so there the last offset
//! page is also the first edge page and a pick batch must count it
//! once.
//!
//! A second table pins the same sequence through the file tiers
//! ([`FileTopology`] + [`StoreHandle`]) on a private engine: every
//! counter of both tiers and the engine's jobs and bytes, under a cache
//! that churns (hit/miss splits then depend on the order hits are
//! promoted in) and under one that holds both files (the replayed
//! round then is the hit path and must submit no read).

use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{FeatureTable, NodeId};
use smartsage::hostio::ReadEngine;
use smartsage::sim::Xoshiro256;
use smartsage::store::{
    write_feature_file, write_graph_file, FeatureStore, FileStoreOptions, FileTopology,
    IspGatherOptions, IspGatherStore, IspSampleTopology, ScratchFile, SharedCsrFile,
    SharedFileStore, StoreHandle, StoreStats, TopologyStore,
};
use std::sync::Arc;

const NODES: usize = 900;
const DIM: usize = 24;
/// Cache pages that hold the graph and the feature file whole at every
/// page size below (the larger is 177 pages of 512 bytes).
const HOLDS_BOTH_FILES: usize = 256;

/// `[flash pages read, flash bytes read, page-buffer hits, page-buffer
/// misses]` of a tier's device model.
type SsdCounters = [u64; 4];

/// The fixed dataset: a 900-node power-law graph file and its
/// 24-wide feature file.
fn dataset() -> (ScratchFile, ScratchFile) {
    let graph = generate_power_law(&PowerLawConfig {
        nodes: NODES,
        avg_degree: 6.0,
        seed: 0x601D,
        ..PowerLawConfig::default()
    });
    let graph_file = ScratchFile::new("isp-golden-graph");
    write_graph_file(graph_file.path(), &graph).unwrap();
    let feature_file = ScratchFile::new("isp-golden-feat");
    write_feature_file(
        feature_file.path(),
        &FeatureTable::new(DIM, 5, 0x601D),
        NODES,
    )
    .unwrap();
    (graph_file, feature_file)
}

/// The fixed, seeded request sequence: three rounds of degrees → picks
/// → gather of what was picked, `after_round` called at the end of
/// each. With `repeat_round_two`, the third round replays the second's
/// requests instead of drawing fresh ones.
fn run_rounds(
    topology: &mut dyn TopologyStore,
    features: &mut dyn FeatureStore,
    repeat_round_two: bool,
    mut after_round: impl FnMut(usize),
) {
    let mut rng = Xoshiro256::seed_from_u64(0x601D_5EED);
    for round in 0..3 {
        let at_start = rng.clone();
        // The first and last node always take part: their offset pairs
        // sit on the first and last offset page.
        let mut nodes = vec![NodeId::new(0), NodeId::new(NODES as u32 - 1)];
        nodes.extend((0..40).map(|_| NodeId::new(rng.range_usize(NODES) as u32)));
        let mut degrees = vec![0u64; nodes.len()];
        topology.degrees_into(&nodes, &mut degrees).unwrap();
        let picks: Vec<(NodeId, u64)> = nodes
            .iter()
            .zip(&degrees)
            .filter(|&(_, &d)| d > 0)
            .map(|(&n, &d)| (n, rng.range_u64(d)))
            .collect();
        let mut neighbors = vec![NodeId::default(); picks.len()];
        topology
            .pick_neighbors_into(&picks, &mut neighbors)
            .unwrap();
        nodes.extend(neighbors);
        features.gather(&nodes).unwrap();
        if repeat_round_two && round == 1 {
            rng = at_start;
        }
        after_round(round);
    }
}

/// Runs the fixed sequence at one page size through the ISP tiers over
/// privately opened files. The cache is far smaller than either file,
/// so pages and scratchpad rows are evicted and re-read along the way.
fn replay(page_bytes: u64) -> [(StoreStats, SsdCounters); 2] {
    let (graph_file, feature_file) = dataset();
    let file_opts = FileStoreOptions {
        page_bytes,
        cache_pages: 6,
    };
    let isp = IspGatherOptions::default;
    let mut topology = IspSampleTopology::over(
        Arc::new(SharedCsrFile::open_with(graph_file.path(), file_opts, 1).unwrap()),
        isp(),
    );
    let mut features = IspGatherStore::over(
        Arc::new(SharedFileStore::open_with(feature_file.path(), file_opts, 1).unwrap()),
        isp(),
    );
    run_rounds(&mut topology, &mut features, false, |_| {});
    let counters = |ssd: &smartsage::storage::Ssd| {
        [
            ssd.flash.pages_read(),
            ssd.flash.bytes_read(),
            ssd.buffer.hits(),
            ssd.buffer.misses(),
        ]
    };
    assert_eq!(
        topology.device_time().as_nanos(),
        topology.stats().device_ns
    );
    assert_eq!(
        features.device_time().as_nanos(),
        features.stats().device_ns
    );
    [
        (topology.stats(), counters(topology.ssd())),
        (features.stats(), counters(features.ssd())),
    ]
}

/// Runs the fixed sequence through the file tiers — a [`FileTopology`]
/// and a [`StoreHandle`] over files opened on a private one-worker
/// engine — with the third round replaying the second. Returns both
/// tiers' counters and the engine's `[jobs, bytes read]`.
fn replay_file(page_bytes: u64, cache_pages: usize) -> ([StoreStats; 2], [u64; 2]) {
    let (graph_file, feature_file) = dataset();
    let opts = FileStoreOptions {
        page_bytes,
        cache_pages,
    };
    let engine = Arc::new(ReadEngine::new(1));
    let mut topology = FileTopology::new(Arc::new(
        SharedCsrFile::open_with_engine(graph_file.path(), opts, 2, Arc::clone(&engine)).unwrap(),
    ));
    let mut features = StoreHandle::new(Arc::new(
        SharedFileStore::open_with_engine(feature_file.path(), opts, 2, Arc::clone(&engine))
            .unwrap(),
    ));
    let mut jobs_after = [0u64; 3];
    run_rounds(&mut topology, &mut features, true, |round| {
        jobs_after[round] = engine.stats().jobs;
    });
    // A cache that holds both files makes the replayed round the hit
    // path: every page resident, not one read submitted.
    if cache_pages == HOLDS_BOTH_FILES {
        assert_eq!(jobs_after[2], jobs_after[1], "page size {page_bytes}");
    }
    let engine = engine.stats();
    (
        [topology.stats(), features.stats()],
        [engine.jobs, engine.bytes_read],
    )
}

/// A [`StoreStats`] from its ten fields in declaration order.
fn stats(f: [u64; 10]) -> StoreStats {
    StoreStats {
        gathers: f[0],
        nodes_gathered: f[1],
        feature_bytes: f[2],
        pages_read: f[3],
        bytes_read: f[4],
        page_hits: f[5],
        page_misses: f[6],
        device_bytes_read: f[7],
        host_bytes_transferred: f[8],
        device_ns: f[9],
    }
}

#[test]
fn isp_stats_and_device_counters_of_a_fixed_sequence_are_pinned() {
    // (page size, topology tier, feature tier); each tier is its ten
    // stats fields and its device counters.
    type Tier = ([u64; 10], SsdCounters);
    #[rustfmt::skip]
    let golden: [(u64, Tier, Tier); 3] = [
        (512,
         ([6, 252, 2016, 161, 81016, 18, 161, 81016, 2016, 418530], [179, 91648, 0, 179]),
         ([3, 252, 24192, 200, 102144, 3, 200, 102144, 21408, 444710], [203, 103936, 0, 203])),
        (4096,
         ([6, 252, 2016, 31, 122960, 14, 31, 122960, 2016, 260790], [39, 159744, 6, 39]),
         ([3, 252, 24192, 52, 209280, 12, 52, 209280, 19776, 235920], [64, 262144, 0, 64])),
        (8192,
         ([6, 252, 2016, 11, 88104, 19, 11, 88104, 2016, 288810], [21, 172032, 6, 21]),
         ([3, 252, 24192, 23, 180608, 12, 23, 180608, 19776, 163020], [35, 286720, 0, 35])),
    ];
    for (page_bytes, topology, features) in golden {
        let want = [topology, features].map(|(fields, ssd)| (stats(fields), ssd));
        assert_eq!(replay(page_bytes), want, "page size {page_bytes}");
    }
}

#[test]
fn file_tier_stats_and_engine_reads_of_a_fixed_sequence_are_pinned() {
    // (page size, cache pages, topology tier, feature tier, engine
    // [jobs, bytes read]). Cache 6 churns — the counters then depend on
    // the order hits are promoted in; `HOLDS_BOTH_FILES` never evicts.
    type Row = (u64, usize, [u64; 10], [u64; 10], [u64; 2]);
    #[rustfmt::skip]
    let golden: [Row; 6] = [
        (512, 6, [6, 252, 2016, 162, 81528, 18, 162, 81528, 81528, 0], [3, 252, 24192, 213, 108800, 8, 213, 108800, 108800, 0], [186, 190328]),
        (512, 256, [6, 252, 2016, 59, 29736, 121, 59, 29736, 29736, 0], [3, 252, 24192, 108, 55168, 113, 108, 55168, 55168, 0], [100, 84904]),
        (4096, 6, [6, 252, 2016, 31, 122960, 14, 31, 122960, 122960, 0], [3, 252, 24192, 54, 213760, 12, 54, 213760, 213760, 0], [11, 336720]),
        (4096, 256, [6, 252, 2016, 13, 51240, 32, 13, 51240, 51240, 0], [3, 252, 24192, 22, 86400, 44, 22, 86400, 86400, 0], [3, 137640]),
        (8192, 6, [6, 252, 2016, 11, 88104, 19, 11, 88104, 88104, 0], [3, 252, 24192, 24, 180992, 12, 24, 180992, 180992, 0], [9, 269096]),
        (8192, 256, [6, 252, 2016, 7, 55336, 23, 7, 55336, 55336, 0], [3, 252, 24192, 12, 90496, 24, 12, 90496, 90496, 0], [3, 145832]),
    ];
    for (page_bytes, cache_pages, topology, features, engine) in golden {
        let want = ([stats(topology), stats(features)], engine);
        assert_eq!(
            replay_file(page_bytes, cache_pages),
            want,
            "page size {page_bytes}, cache {cache_pages}"
        );
    }
}
