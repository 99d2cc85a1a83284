//! Design-space exploration: sweep the knobs the paper holds fixed and
//! see how SmartSAGE's advantage moves.
//!
//! Three custom sweeps on a Movielens-like large-scale graph:
//!
//! 1. **Embedded-core count** — how much ISP compute does the CSD need
//!    before flash bandwidth becomes the binding constraint?
//! 2. **Flash channels** — the internal-bandwidth lever the ISP taps.
//! 3. **SSD page-buffer size** — how sensitive is in-storage sampling to
//!    device DRAM?
//!
//! …followed by the registered `ablation-*` experiments, executed in
//! parallel through the [`Runner`] sweep API and rendered as CSV — the
//! same machinery the `reproduce` binary uses.
//!
//! Run with `cargo run --release --example design_space`.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::experiments::{registry, ExperimentScale};
use smartsage::core::pipeline::{run_pipeline, PipelineConfig};
use smartsage::core::runner::{OutputFormat, Runner};
use smartsage::gnn::Fanouts;
use smartsage::graph::{Dataset, DatasetProfile, GraphScale};
use std::sync::Arc;

fn sampling_throughput(mut cfg: SystemConfig, workers: usize) -> f64 {
    let data =
        DatasetProfile::of(Dataset::Movielens).materialize(GraphScale::LargeScale, 150_000, 9);
    cfg.kind = SystemKind::SmartSageHwSw;
    let ctx = Arc::new(RunContext::new(data, cfg));
    let report = run_pipeline(
        &ctx,
        &PipelineConfig {
            workers,
            total_batches: 2 * workers,
            batch_size: 64,
            fanouts: Fanouts::paper_default(),
            queue_depth: 4,
            hidden_dim: 256,
            classes: 16,
            seed: 5,
            train: false,
            ..PipelineConfig::default()
        },
    );
    report.sampling_throughput
}

fn main() {
    println!("== Ablation 1: embedded-core count (12 workers) ==");
    for cores in [1usize, 2, 4, 8] {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
        cfg.devices.ssd.cores.cores = cores;
        let thr = sampling_throughput(cfg, 12);
        println!("  {cores} cores: {thr:>8.1} batches/s");
    }

    println!("\n== Ablation 2: flash channels (12 workers) ==");
    for channels in [4usize, 8, 16, 32] {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
        cfg.devices.ssd.flash.channels = channels;
        let thr = sampling_throughput(cfg, 12);
        println!("  {channels} channels: {thr:>8.1} batches/s");
    }

    println!("\n== Ablation 3: SSD page-buffer capacity (single worker) ==");
    for gib in [0u64, 1, 2, 8, 32] {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
        cfg.devices.ssd.buffer_pages = ((gib << 30) / cfg.devices.ssd.flash.page_bytes) as usize;
        let thr = sampling_throughput(cfg, 1);
        println!("  {gib:>2} GiB buffer: {thr:>8.1} batches/s");
    }

    println!("\n== Ablation 4: ISP flash queue depth (single worker) ==");
    for depth in [1usize, 2, 4, 8, 16, 32] {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
        cfg.devices.ssd.isp.queue_depth = depth;
        let thr = sampling_throughput(cfg, 1);
        println!("  depth {depth:>2}: {thr:>8.1} batches/s");
    }

    // The registered ablations, through the same sweep API the
    // `reproduce` CLI uses: parallel execution, progress on stderr,
    // machine-readable CSV on stdout.
    println!("\n== Registered ablations (Runner, CSV) ==");
    let runner = Runner {
        scale: ExperimentScale::tiny(),
        selection: registry()
            .iter()
            .filter(|e| e.name.starts_with("ablation-"))
            .collect(),
        jobs: 0,
    };
    let sweep = runner.sweep(|o| {
        eprintln!(
            "[{} finished in {:.1}s]",
            o.experiment.name,
            o.wall.as_secs_f64()
        )
    });
    print!("{}", OutputFormat::Csv.render(&sweep.outcomes));
}
