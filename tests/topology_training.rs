//! End-to-end training with BOTH halves of the dataset on storage:
//! sampling through a `FileTopology` over the on-disk `SSGRPH01` graph
//! and gathering through a `StoreHandle` over the on-disk `SSFEAT01`
//! features must produce a **bit-identical** loss trajectory to the
//! all-in-memory run, evaluation must sample through the same tier
//! (and report its I/O), and a full pipeline configured with
//! `--graph file --store file` must report nonzero topology I/O and a
//! nonzero topology page-cache hit rate.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::core::{RunContext, StoreKind, TopologyKind};
use smartsage::gnn::model::ModelDims;
use smartsage::gnn::trainer::{TrainConfig, Trainer};
use smartsage::gnn::Fanouts;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{CsrGraph, Dataset, DatasetProfile, FeatureTable, GraphScale, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::{
    write_feature_file, write_graph_file, FeatureStore, FileStoreOptions, FileTopology,
    InMemoryStore, InMemoryTopology, IspGatherOptions, IspSampleTopology, ScratchFile,
    SharedCsrFile, SharedFileStore, StoreHandle, TopologyStore,
};
use std::sync::Arc;

const DIM: usize = 10;
const CLASSES: usize = 4;
const NODES: usize = 500;

fn setup() -> (CsrGraph, FeatureTable) {
    let graph = generate_power_law(&PowerLawConfig {
        nodes: NODES,
        avg_degree: 9.0,
        communities: CLASSES,
        homophily: 0.9,
        seed: 0x7A0,
        ..PowerLawConfig::default()
    });
    (graph, FeatureTable::new(DIM, CLASSES, 0x7A1))
}

fn trainer(rng: &mut Xoshiro256) -> Trainer {
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
    Trainer::new(dims, config, rng)
}

/// Trains 3 workers × 4 steps through the given stores and returns
/// every loss, bit-cast.
fn losses(topo: &mut dyn TopologyStore, store: &mut dyn FeatureStore) -> Vec<u32> {
    let targets: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
    let mut out = Vec::new();
    for w in 0..3u64 {
        let mut rng = Xoshiro256::seed_from_u64(w);
        let mut trainer = trainer(&mut rng);
        for _ in 0..4 {
            let loss = trainer
                .train_step_via(topo, store, &targets, &mut rng)
                .unwrap();
            out.push(loss.to_bits());
        }
    }
    out
}

#[test]
fn topology_training_loss_trajectory_is_bit_identical_to_memory() {
    let (graph, table) = setup();
    let gfile = ScratchFile::new("topo-train-g");
    write_graph_file(gfile.path(), &graph).unwrap();
    let ffile = ScratchFile::new("topo-train-f");
    write_feature_file(ffile.path(), &table, NODES).unwrap();

    // All-in-memory reference.
    let mut mem_topo = InMemoryTopology::new(graph.clone());
    let mut mem_store = InMemoryStore::new(table.clone(), NODES);
    let want = losses(&mut mem_topo, &mut mem_store);

    // Both halves on disk: graph file + feature file.
    let mut disk_topo = FileTopology::new(Arc::new(SharedCsrFile::open(gfile.path()).unwrap()));
    let mut disk_store = StoreHandle::new(Arc::new(SharedFileStore::open(ffile.path()).unwrap()));
    let got = losses(&mut disk_topo, &mut disk_store);
    assert_eq!(
        got, want,
        "training through file topology + file store must be bit-identical"
    );
    assert!(
        disk_topo.stats().bytes_read > 0,
        "sampling really read the graph from disk"
    );
    assert!(
        disk_store.stats().bytes_read > 0,
        "gathers really read features from disk"
    );
    assert!(disk_topo.stats().hit_rate() > 0.0);

    // The ISP sampling tier trains to the same trajectory too.
    let shared = SharedCsrFile::open_with(gfile.path(), FileStoreOptions::default()).unwrap();
    let mut isp_topo = IspSampleTopology::over(Arc::new(shared), IspGatherOptions::default());
    let mut disk_store2 = StoreHandle::new(Arc::new(SharedFileStore::open(ffile.path()).unwrap()));
    assert_eq!(losses(&mut isp_topo, &mut disk_store2), want);
    assert!(isp_topo.stats().device_ns > 0);
    // (No host-byte comparison here: on a small, cache-warm graph the
    // host page path re-ships almost nothing, so the ISP advantage
    // only appears for scattered/cold hops — asserted where it holds,
    // in tests/topology_store_conformance.rs and the pipeline test
    // below.)
    assert_eq!(
        isp_topo.stats().host_bytes_transferred,
        isp_topo.stats().feature_bytes,
        "isp ships exactly the packed answers"
    );
}

#[test]
fn evaluation_samples_through_the_topology_tier() {
    let (graph, table) = setup();
    let gfile = ScratchFile::new("topo-eval-g");
    write_graph_file(gfile.path(), &graph).unwrap();
    let ffile = ScratchFile::new("topo-eval-f");
    write_feature_file(ffile.path(), &table, NODES).unwrap();
    let eval: Vec<NodeId> = (100..300u32).map(NodeId::new).collect();
    // Accuracy of the untrained model, then again after a few steps —
    // every sample drawn through `topo`.
    let accuracies = |topo: &mut dyn TopologyStore, store: &mut dyn FeatureStore| {
        let mut rng = Xoshiro256::seed_from_u64(0xE7A1);
        let mut t = trainer(&mut rng);
        let before = t.accuracy_via(topo, store, &eval, &mut rng).unwrap();
        let evaluation_io = topo.stats();
        for _ in 0..4 {
            t.train_step_via(topo, store, &eval[..64], &mut rng)
                .unwrap();
        }
        let after = t.accuracy_via(topo, store, &eval, &mut rng).unwrap();
        ([before.to_bits(), after.to_bits()], evaluation_io)
    };

    let mut mem_topo = InMemoryTopology::new(graph.clone());
    let mut mem_store = InMemoryStore::new(table.clone(), NODES);
    let (want, mem_io) = accuracies(&mut mem_topo, &mut mem_store);

    let mut disk_topo = FileTopology::new(Arc::new(SharedCsrFile::open(gfile.path()).unwrap()));
    let mut disk_store = StoreHandle::new(Arc::new(SharedFileStore::open(ffile.path()).unwrap()));
    let (got, disk_io) = accuracies(&mut disk_topo, &mut disk_store);
    assert_eq!(got, want, "accuracy must be bit-identical across tiers");
    // One evaluation = one sampling pass through the tier it was given.
    assert_eq!(disk_io.gathers, 4, "a degree read and a pick batch per hop");
    assert_eq!(disk_io.nodes_gathered, mem_io.nodes_gathered);
    assert!(
        disk_io.bytes_read > 0,
        "evaluation really read the graph from disk"
    );
    assert_eq!(mem_io.bytes_read, 0);

    // A failing tier surfaces as a typed error, not a wrong number: a
    // target outside the graph is caught by the store.
    let mut rng = Xoshiro256::seed_from_u64(1);
    let t = trainer(&mut rng);
    let outside = [NodeId::new(NODES as u32)];
    assert!(t
        .accuracy_via(&mut disk_topo, &mut disk_store, &outside, &mut rng)
        .is_err());
}

#[test]
fn pipeline_with_graph_file_and_store_file_reports_topology_io() {
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 5);
    let ctx = Arc::new(RunContext::new(data, SystemConfig::new(SystemKind::Dram)));
    let cfg = PipelineConfig {
        workers: 3,
        total_batches: 6,
        batch_size: 32,
        fanouts: Fanouts::new(vec![5, 4]),
        store: StoreKind::File,
        topology: TopologyKind::File,
        ..PipelineConfig::default()
    };
    let report = run_pipeline(&ctx, &cfg);
    let topo = report.topology_stats;
    assert!(topo.bytes_read > 0, "pipeline sampling read the graph file");
    assert!(topo.hit_rate() > 0.0, "repeat reads hit the shared cache");
    assert_eq!(topo.pages_read, topo.page_misses);
    assert!(topo.gathers > 0);
    let store = report.store_stats;
    assert!(store.bytes_read > 0);

    // Timing and results are identical to the in-memory-tier run — the
    // determinism contract: tiers change I/O accounting, never time.
    let plain = run_pipeline(
        &ctx,
        &PipelineConfig {
            store: StoreKind::Mem,
            topology: TopologyKind::Mem,
            ..cfg.clone()
        },
    );
    assert_eq!(plain.makespan, report.makespan);
    assert_eq!(plain.batches, report.batches);
    // The mem tier still counts gathers — it reads no file bytes.
    assert!(plain.topology_stats.gathers > 0);
    assert_eq!(plain.topology_stats.bytes_read, 0);

    // The isp graph tier: same timing, device-side resolution, host
    // bytes strictly below the file tier's.
    let isp = run_pipeline(
        &ctx,
        &PipelineConfig {
            topology: TopologyKind::Isp,
            ..cfg.clone()
        },
    );
    assert_eq!(isp.makespan, report.makespan);
    let isp_topo = isp.topology_stats;
    assert!(isp_topo.device_ns > 0, "modeled device time accumulates");
    assert!(
        isp_topo.host_bytes_transferred < topo.host_bytes_transferred,
        "isp host bytes {} must undercut the file tier's {}",
        isp_topo.host_bytes_transferred,
        topo.host_bytes_transferred
    );
}
