//! End-to-end: training through real storage. A `Trainer` run against a
//! file-backed `StoreHandle` in a temp directory must reach a **bit-identical** loss
//! trajectory to the same run against `InMemoryStore` — the storage
//! path records I/O but cannot perturb learning — and a pipeline run
//! with `--store file` must report nonzero page-cache hits and bytes
//! read without changing any simulated timing.

use smartsage::core::config::SystemKind;
use smartsage::core::experiments::{run_system, ExperimentScale};
use smartsage::core::{StoreKind, TopologyKind};
use smartsage::gnn::model::ModelDims;
use smartsage::gnn::trainer::{TrainConfig, Trainer};
use smartsage::gnn::Fanouts;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{CsrGraph, Dataset, FeatureTable, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::file::{write_feature_file, FileStoreOptions};
use smartsage::store::{
    CsrView, FeatureStore, InMemoryStore, IspGatherOptions, IspGatherStore, ScratchFile,
    SharedFileStore, StoreHandle,
};
use std::sync::Arc;

fn graph() -> CsrGraph {
    generate_power_law(&PowerLawConfig {
        nodes: 500,
        avg_degree: 9.0,
        communities: 4,
        homophily: 0.9,
        seed: 31,
        ..PowerLawConfig::default()
    })
}

fn trainer(rng: &mut Xoshiro256) -> Trainer {
    Trainer::new(
        ModelDims {
            features: 12,
            hidden1: 16,
            hidden2: 16,
            classes: 4,
        },
        TrainConfig {
            batch_size: 64,
            fanouts: Fanouts::new(vec![5, 3]),
            learning_rate: 0.3,
        },
        rng,
    )
}

/// Trains `epochs` epochs through `store`; returns the per-epoch mean
/// losses as bit patterns plus a final accuracy.
fn run_training(store: &mut dyn FeatureStore, epochs: u64) -> (Vec<u32>, f64) {
    let g = graph();
    let mut topo = CsrView::new(&g);
    let mut rng = Xoshiro256::seed_from_u64(5);
    let mut t = trainer(&mut rng);
    let mut losses = Vec::new();
    for e in 0..epochs {
        let loss = t.train_epoch_via(&mut topo, store, e, &mut rng).unwrap();
        losses.push(loss.to_bits());
    }
    let eval: Vec<NodeId> = (0..200u32).map(NodeId::new).collect();
    let acc = t.accuracy_via(&mut topo, store, &eval, &mut rng).unwrap();
    (losses, acc)
}

#[test]
fn feature_store_training_through_disk_is_bit_identical_to_memory() {
    let table = FeatureTable::new(12, 4, 7);
    let file = ScratchFile::new("equiv");
    write_feature_file(file.path(), &table, 500).unwrap();
    let mut disk = StoreHandle::new(Arc::new(
        SharedFileStore::open_with(
            file.path(),
            FileStoreOptions {
                page_bytes: 4096,
                cache_pages: 16, // smaller than the file: hits AND misses
            },
            1,
        )
        .unwrap(),
    ));
    let mut mem = InMemoryStore::new(table, 500);

    let (disk_losses, disk_acc) = run_training(&mut disk, 4);
    let (mem_losses, mem_acc) = run_training(&mut mem, 4);
    assert_eq!(
        disk_losses, mem_losses,
        "loss trajectory must be bit-identical across stores"
    );
    assert_eq!(disk_acc.to_bits(), mem_acc.to_bits());
    // Training actually learned (sanity that the comparison is not
    // between two degenerate runs).
    assert!(
        f32::from_bits(*disk_losses.last().unwrap()) < f32::from_bits(disk_losses[0]) * 0.7,
        "loss should drop"
    );
    assert!(
        disk_acc > 0.5,
        "accuracy {disk_acc} should beat 0.25 chance"
    );

    // Identical access patterns, different I/O: both stores saw the
    // same gathers, only the disk store did page I/O — with reuse.
    let d = disk.stats();
    let m = mem.stats();
    assert_eq!(d.gathers, m.gathers);
    assert_eq!(d.nodes_gathered, m.nodes_gathered);
    assert!(d.bytes_read > 0);
    assert!(d.page_hits > 0, "page cache never hit");
    assert!(d.page_misses > 0, "16-page cache cannot hold the file");
    assert_eq!(m.bytes_read, 0);
}

#[test]
fn feature_store_training_through_isp_is_bit_identical_to_memory() {
    // The in-storage-processing tier sits under the same Trainer: the
    // loss trajectory cannot know that gathers resolved device-side.
    let table = FeatureTable::new(12, 4, 7);
    let file = ScratchFile::new("isp-equiv");
    write_feature_file(file.path(), &table, 500).unwrap();
    let shared = SharedFileStore::open_with(file.path(), FileStoreOptions::default(), 1).unwrap();
    let mut isp = IspGatherStore::over(Arc::new(shared), IspGatherOptions::default());
    let mut mem = InMemoryStore::new(table, 500);

    let (isp_losses, isp_acc) = run_training(&mut isp, 4);
    let (mem_losses, mem_acc) = run_training(&mut mem, 4);
    assert_eq!(
        isp_losses, mem_losses,
        "loss trajectory must be bit-identical through the ISP tier"
    );
    assert_eq!(isp_acc.to_bits(), mem_acc.to_bits());

    let s = isp.stats();
    assert_eq!(s.gathers, mem.stats().gathers);
    assert!(s.device_bytes_read > 0, "training read pages device-side");
    assert!(
        s.host_bytes_transferred < s.feature_bytes,
        "the scratchpad must absorb repeat rows across epochs"
    );
    assert!(s.device_ns > 0, "device time accumulates across the run");
    assert!(!isp.device_time().is_zero());
}

#[test]
fn feature_store_pipeline_run_reports_nonzero_io_without_timing_drift() {
    let scale = ExperimentScale {
        edge_budget: 25_000,
        batch_size: 16,
        batches: 4,
        workers: 2,
        seed: 11,
        store: StoreKind::Mem,
        topology: TopologyKind::Mem,
        shards: 1,
    };
    let plain = run_system(Dataset::Amazon, SystemKind::Dram, &scale, 2, true);
    assert_eq!(plain.store_stats.bytes_read, 0, "mem tier does no disk I/O");
    let mem = run_system(
        Dataset::Amazon,
        SystemKind::Dram,
        &scale.with_store(StoreKind::Mem),
        2,
        true,
    );
    let file = run_system(
        Dataset::Amazon,
        SystemKind::Dram,
        &scale.with_store(StoreKind::File),
        2,
        true,
    );
    let isp = run_system(
        Dataset::Amazon,
        SystemKind::Dram,
        &scale.with_store(StoreKind::Isp),
        2,
        true,
    );

    // The determinism contract: the store changes reporting, never
    // simulated time.
    assert_eq!(plain.makespan, mem.makespan);
    assert_eq!(plain.makespan, file.makespan);
    assert_eq!(plain.makespan, isp.makespan);

    let ms = mem.store_stats;
    let fs = file.store_stats;
    let is = isp.store_stats;
    assert_eq!(ms.gathers, 4, "one gather per produced batch");
    assert_eq!(fs.gathers, 4);
    assert_eq!(is.gathers, 4);
    assert_eq!(ms.nodes_gathered, fs.nodes_gathered);
    assert_eq!(ms.nodes_gathered, is.nodes_gathered);
    assert_eq!(ms.bytes_read, 0);
    assert!(fs.bytes_read > 0, "file store must read from disk");
    assert!(fs.hit_rate() > 0.0, "page-cache hit rate must be nonzero");
    assert!(fs.page_misses > 0);
    // The transfer split: the file tier ships what it reads; the ISP
    // tier reads device-side and ships only packed rows. (These ad-hoc
    // runs share the global registry, so the ISP run may ride the file
    // run's warm payload cache — its media reads can legitimately be
    // zero, its shipped rows cannot.)
    assert_eq!(fs.host_bytes_transferred, fs.bytes_read);
    assert_eq!(is.device_bytes_read, is.bytes_read);
    assert!(is.host_bytes_transferred > 0);
    assert!(is.host_bytes_transferred <= is.feature_bytes);
    assert!(is.device_ns > 0, "isp reports modeled device time");
    assert_eq!(fs.device_ns, 0, "the host path has no device model");
}

#[test]
fn feature_store_works_under_every_cost_policy() {
    // The store sits on the one real storage path: every system's
    // producer gathers the same features for the same plans, and the
    // cost policy only prices the resulting byte trace.
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 3,
        store: StoreKind::File,
        topology: TopologyKind::Mem,
        shards: 1,
    };
    let mut reference = None;
    let mut total = smartsage::store::StoreStats::default();
    for kind in [
        SystemKind::Dram,
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::FpgaCsd,
    ] {
        let report = run_system(Dataset::ProteinPi, kind, &scale, 1, true);
        let stats = report.store_stats;
        // Ad-hoc runs share the process-wide registry store: the first
        // system pays the disk reads, later ones may ride its warm
        // shared page cache — but every run resolves its pages.
        assert!(
            stats.page_hits + stats.page_misses > 0,
            "{kind}: no page lookups"
        );
        assert_eq!(stats.gathers, 2, "{kind}: one gather per batch");
        total.accumulate(&stats);
        match &reference {
            None => reference = Some(stats.nodes_gathered),
            Some(want) => assert_eq!(
                stats.nodes_gathered, *want,
                "{kind}: gathered a different subgraph"
            ),
        }
    }
    assert!(total.bytes_read > 0, "someone must have read from disk");
    assert!(
        total.page_hits > 0,
        "the shared cache must serve repeat gathers"
    );
}
