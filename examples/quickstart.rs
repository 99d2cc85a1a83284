//! Quickstart: train a GraphSAGE model functionally, then compare the
//! paper's storage designs on the same workload.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::gnn::model::ModelDims;
use smartsage::gnn::trainer::{TrainConfig, Trainer};
use smartsage::gnn::Fanouts;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{Dataset, DatasetProfile, FeatureTable, GraphScale, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::{CsrView, InMemoryStore};
use std::sync::Arc;

fn main() {
    // ------------------------------------------------------------------
    // 1. Functional training: a real 2-layer GraphSAGE on a synthetic
    //    community graph. Loss goes down; accuracy beats chance.
    // ------------------------------------------------------------------
    println!("== Part 1: functional GraphSAGE training ==");
    let graph = generate_power_law(&PowerLawConfig {
        nodes: 2_000,
        avg_degree: 12.0,
        communities: 4,
        homophily: 0.9,
        seed: 42,
        ..PowerLawConfig::default()
    });
    // Both halves of the dataset sit behind stores; swap in
    // `FileTopology` / `StoreHandle` to train through real storage I/O.
    let mut topology = CsrView::new(&graph);
    let mut features = InMemoryStore::unbounded(FeatureTable::new(16, 4, 7));
    let mut rng = Xoshiro256::seed_from_u64(1);
    let mut trainer = Trainer::new(
        ModelDims {
            features: 16,
            hidden1: 32,
            hidden2: 32,
            classes: 4,
        },
        TrainConfig {
            batch_size: 128,
            fanouts: Fanouts::new(vec![10, 5]),
            learning_rate: 0.3,
        },
        &mut rng,
    );
    for epoch in 0..4 {
        let loss = trainer
            .train_epoch_via(&mut topology, &mut features, epoch, &mut rng)
            .expect("in-memory stores cannot fail");
        println!("  epoch {epoch}: mean batch loss {loss:.4}");
    }
    let eval: Vec<NodeId> = (0..400u32).map(NodeId::new).collect();
    let acc = trainer
        .accuracy_via(&mut topology, &mut features, &eval, &mut rng)
        .expect("in-memory stores cannot fail");
    println!(
        "  accuracy on 400 nodes: {:.1}% (chance 25%)\n",
        acc * 100.0
    );

    // ------------------------------------------------------------------
    // 2. System comparison: the same sampling workload on the paper's
    //    design points, timed by the device simulators.
    // ------------------------------------------------------------------
    println!("== Part 2: storage design points on Reddit-large ==");
    let mut mmap_time = None;
    for kind in [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::Dram,
    ] {
        let data =
            DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::LargeScale, 150_000, 3);
        let ctx = Arc::new(RunContext::new(data, SystemConfig::new(kind)));
        let report = run_pipeline(
            &ctx,
            &PipelineConfig {
                workers: 4,
                total_batches: 8,
                batch_size: 64,
                fanouts: Fanouts::paper_default(),
                queue_depth: 4,
                hidden_dim: 256,
                classes: 16,
                seed: 11,
                train: true,
                ..PipelineConfig::default()
            },
        );
        let base = *mmap_time.get_or_insert(report.makespan);
        println!(
            "  {:<20} makespan {:>12}  speedup vs mmap {:>6.2}x  GPU idle {:>5.1}%",
            kind.label(),
            report.makespan.to_string(),
            base.ratio(report.makespan),
            report.gpu_idle_frac * 100.0
        );
    }
    println!("\nSee `cargo run --release --bin reproduce` for the full paper reproduction.");
}
