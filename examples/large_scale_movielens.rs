//! The paper's motivating scenario end-to-end: Movielens at
//! beyond-memory scale (442 GB of edge-list array, 1 K features).
//!
//! This example walks the whole SmartSAGE story on one dataset:
//! capacity analysis (why DRAM can't hold it), the Kronecker-expanded
//! working set, the data-movement argument (Fig 10), and the end-to-end
//! comparison of every system.
//!
//! Run with `cargo run --release --example large_scale_movielens`.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::{LocalityRates, RunContext};
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale};
use std::sync::Arc;

fn main() {
    let profile = DatasetProfile::of(Dataset::Movielens);

    println!("== Capacity analysis (Table I, Movielens) ==");
    println!(
        "  in-memory variant : {:>12} nodes, {:>13} edges, {:>6.1} GB edge array",
        profile.in_memory.nodes,
        profile.in_memory.edges,
        profile.in_memory.edge_array_bytes() as f64 / 1e9
    );
    println!(
        "  large-scale variant: {:>12} nodes, {:>13} edges, {:>6.1} GB edge array",
        profile.large_scale.nodes,
        profile.large_scale.edges,
        profile.large_scale.edge_array_bytes() as f64 / 1e9
    );
    println!(
        "  feature table      : {:>6.1} GB at {} features/node",
        profile.feature_bytes(GraphScale::LargeScale) as f64 / 1e9,
        profile.feature_dim
    );
    println!(
        "  => the edge array alone is {:.1}x a 192 GB host's DRAM; the\n     in-memory processing model cannot hold it (paper SIII-A).",
        profile.large_scale.edge_array_bytes() as f64 / (192.0 * 1e9)
    );

    let data = profile.materialize(GraphScale::LargeScale, 200_000, 77);
    println!(
        "\n== Scaled working set ==\n  materialized {} nodes / {} edges (avg degree {:.0}, true avg {:.0})",
        data.graph.num_nodes(),
        data.graph.num_edges(),
        data.graph.avg_degree(),
        profile.large_scale.avg_degree()
    );
    let rates = LocalityRates::compute(&data, &SystemConfig::new(SystemKind::SsdMmap).devices);
    println!(
        "  full-scale locality: page cache {:.1}%, scratchpad {:.1}%, SSD buffer {:.1}%",
        rates.page_cache_hit * 100.0,
        rates.scratchpad_hit * 100.0,
        rates.ssd_buffer_hit * 100.0
    );

    println!("\n== End-to-end training comparison (8 workers) ==");
    let mut base = None;
    for kind in [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::SmartSageOracle,
        SystemKind::Pmem,
        SystemKind::Dram,
    ] {
        let ctx = Arc::new(RunContext::new(data.clone(), SystemConfig::new(kind)));
        let report = run_pipeline(
            &ctx,
            &PipelineConfig {
                workers: 8,
                total_batches: 16,
                batch_size: 64,
                fanouts: Fanouts::paper_default(),
                queue_depth: 4,
                hidden_dim: 256,
                classes: 16,
                seed: 3,
                train: true,
                ..PipelineConfig::default()
            },
        );
        let b = *base.get_or_insert(report.makespan);
        println!(
            "  {:<20} {:>12}  speedup {:>6.2}x  SSD->host {:>9.2} MB  GPU idle {:>5.1}%",
            kind.label(),
            report.makespan.to_string(),
            b.ratio(report.makespan),
            report.transfers.ssd_to_host_bytes as f64 / 1e6,
            report.gpu_idle_frac * 100.0
        );
    }
    println!("\n  Note how the ISP rows move two orders of magnitude fewer bytes\n  over PCIe — the Fig 10 effect — while the oracle CSD recovers most\n  of the remaining gap to DRAM.");
}
