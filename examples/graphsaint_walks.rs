//! GraphSAINT random-walk sampling on SmartSAGE (paper §VI-F, Fig 20).
//!
//! Demonstrates that the ISP generalizes across sampling algorithms: a
//! random walk is the GraphSAGE hop loop at fan-out 1 per step, whose
//! serial per-walk access pattern stresses latency even harder than
//! fan-out sampling.
//!
//! Run with `cargo run --release --example graphsaint_walks`.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::gnn::sampler::sample_on;
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::CsrView;
use std::sync::Arc;

fn main() {
    let data =
        DatasetProfile::of(Dataset::ProteinPi).materialize(GraphScale::LargeScale, 150_000, 21);
    let graph = &data.graph;
    // Four steps per walk: one neighbor per hop.
    let walk = Fanouts::new(vec![1; 4]);

    // ------------------------------------------------------------------
    // 1. Walk mechanics: sample a batch of walks and inspect them.
    // ------------------------------------------------------------------
    let roots: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(99);
    let batch = sample_on(&mut CsrView::new(graph), &roots, &walk, &mut rng)
        .expect("in-memory topology cannot fail");
    println!("== Random walks from {} roots ==", roots.len());
    for (i, &root) in roots.iter().enumerate() {
        let mut path = vec![root];
        for hop in &batch.hops {
            path.push(hop.neighbors[i]);
        }
        let ids: Vec<String> = path.iter().map(|n| n.to_string()).collect();
        println!("  walk {i}: {}", ids.join(" -> "));
    }
    let trace = batch.into_trace();
    println!(
        "  plan: {} edge-list accesses, {} sampled ids\n",
        trace.num_accesses(),
        trace.num_sampled()
    );

    // ------------------------------------------------------------------
    // 2. System comparison under the walk workload (Fig 20's setup).
    // ------------------------------------------------------------------
    println!("== GraphSAINT pipeline on each system (4 workers) ==");
    let mut base = None;
    for kind in [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
    ] {
        let ctx = Arc::new(RunContext::new(data.clone(), SystemConfig::new(kind)));
        let report = run_pipeline(
            &ctx,
            &PipelineConfig {
                workers: 4,
                total_batches: 8,
                batch_size: 128,
                fanouts: walk.clone(),
                queue_depth: 4,
                hidden_dim: 256,
                classes: 16,
                seed: 17,
                train: true,
                ..PipelineConfig::default()
            },
        );
        let b = *base.get_or_insert(report.makespan);
        println!(
            "  {:<20} makespan {:>12}  speedup vs mmap {:>6.2}x",
            kind.label(),
            report.makespan.to_string(),
            b.ratio(report.makespan)
        );
    }
}
