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

use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{FeatureTable, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::{
    write_feature_file, write_graph_file, FeatureStore, FileStoreOptions, IspGatherOptions,
    IspGatherStore, IspSampleTopology, ScratchFile, StoreStats, TopologyStore,
};

const NODES: usize = 900;
const DIM: usize = 24;

/// `[flash pages read, flash bytes read, page-buffer hits, page-buffer
/// misses]` of a tier's device model.
type SsdCounters = [u64; 4];

/// Runs the fixed sequence at one page size over privately opened
/// files: three rounds of degrees → picks → gather of what was picked.
/// The cache is far smaller than either file, so pages and scratchpad
/// rows are evicted and re-read along the way.
fn replay(page_bytes: u64) -> [(StoreStats, SsdCounters); 2] {
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
    let file_opts = FileStoreOptions {
        page_bytes,
        cache_pages: 6,
    };
    let mut topology =
        IspSampleTopology::open_with(graph_file.path(), file_opts, IspGatherOptions::default())
            .unwrap();
    let mut features =
        IspGatherStore::open_with(feature_file.path(), file_opts, IspGatherOptions::default())
            .unwrap();

    let mut rng = Xoshiro256::seed_from_u64(0x601D_5EED);
    for _ in 0..3 {
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
    }
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
