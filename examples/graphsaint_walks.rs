//! GraphSAINT random-walk sampling on SmartSAGE (paper §VI-F, Fig 20).
//!
//! Demonstrates that the ISP generalizes across sampling algorithms: the
//! same `SamplePlan` machinery drives random walks, whose serial
//! per-walk access pattern stresses latency even harder than fan-out
//! sampling.
//!
//! Run with `cargo run --release --example graphsaint_walks`.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig, SamplerKind};
use smartsage::gnn::saint::{plan_random_walk, WalkConfig};
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage::sim::Xoshiro256;
use smartsage::store::CsrView;
use std::sync::Arc;

fn main() {
    let data =
        DatasetProfile::of(Dataset::ProteinPi).materialize(GraphScale::LargeScale, 150_000, 21);
    let graph = &data.graph;

    // ------------------------------------------------------------------
    // 1. Walk mechanics: plan a batch of walks and inspect them.
    // ------------------------------------------------------------------
    let cfg = WalkConfig {
        roots: 8,
        length: 4,
    };
    let roots: Vec<NodeId> = (0..cfg.roots as u32).map(NodeId::new).collect();
    let mut rng = Xoshiro256::seed_from_u64(99);
    let plan = plan_random_walk(graph, &roots, cfg.length, &mut rng);
    let batch = plan
        .resolve_on(&mut CsrView::new(graph))
        .expect("in-memory topology cannot fail");
    println!("== Random walks from {} roots ==", cfg.roots);
    for (i, &root) in roots.iter().enumerate() {
        let mut path = vec![root];
        for hop in &batch.hops {
            path.push(hop.neighbors[i]);
        }
        let ids: Vec<String> = path.iter().map(|n| n.to_string()).collect();
        println!("  walk {i}: {}", ids.join(" -> "));
    }
    println!(
        "  plan: {} edge-list accesses, {} sampled ids\n",
        plan.trace.num_accesses(),
        plan.trace.num_sampled()
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
                fanouts: Fanouts::paper_default(), // unused by walks
                queue_depth: 4,
                hidden_dim: 256,
                classes: 16,
                seed: 17,
                sampler: SamplerKind::SaintWalk { length: 4 },
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
