//! Integration: conservation and ordering invariants of the
//! producer/consumer pipeline simulator across cost policies.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig, PipelineReport, SamplerKind};
use smartsage::core::store_metrics::{self, SweepScope};
use smartsage::core::{StoreKind, TopologyKind};
use smartsage::gnn::sampler::{epoch_targets, plan_sample_on};
use smartsage::gnn::{Fanouts, SamplePlan};
use smartsage::graph::{Dataset, DatasetProfile, GraphScale};
use smartsage::sim::{SimDuration, Xoshiro256};
use smartsage::store::CsrView;
use std::sync::Arc;

fn run(kind: SystemKind, workers: usize, train: bool, seed: u64) -> PipelineReport {
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 8);
    let ctx = Arc::new(RunContext::new(data, SystemConfig::new(kind)));
    run_pipeline(
        &ctx,
        &PipelineConfig {
            workers,
            total_batches: 8,
            batch_size: 24,
            fanouts: Fanouts::new(vec![5, 4]),
            queue_depth: 3,
            hidden_dim: 64,
            classes: 16,
            seed,
            sampler: SamplerKind::GraphSage,
            train,
            ..PipelineConfig::default()
        },
    )
}

#[test]
fn all_batches_are_consumed_on_every_system() {
    for kind in SystemKind::ALL {
        let report = run(kind, 3, true, 1);
        assert_eq!(report.batches, 8, "{kind} lost batches");
        assert!(!report.makespan.is_zero(), "{kind} zero makespan");
    }
}

#[test]
fn gpu_accounting_is_conserved() {
    for kind in [
        SystemKind::Dram,
        SystemKind::SsdMmap,
        SystemKind::SmartSageHwSw,
    ] {
        let report = run(kind, 3, true, 2);
        assert!(
            report.gpu_busy <= report.makespan,
            "{kind}: GPU busy {} exceeds makespan {}",
            report.gpu_busy,
            report.makespan
        );
        assert!((0.0..=1.0).contains(&report.gpu_idle_frac), "{kind}");
        // Transfer + train stage totals equal GPU busy time.
        let gpu_stage = report.breakdown.cpu_to_gpu + report.breakdown.gnn_train;
        let diff = if gpu_stage > report.gpu_busy {
            gpu_stage - report.gpu_busy
        } else {
            report.gpu_busy - gpu_stage
        };
        assert!(
            diff < SimDuration::from_micros(1),
            "{kind}: stage sum {gpu_stage} vs busy {}",
            report.gpu_busy
        );
    }
}

#[test]
fn runs_are_deterministic_per_seed() {
    let a = run(SystemKind::SmartSageHwSw, 3, true, 42);
    let b = run(SystemKind::SmartSageHwSw, 3, true, 42);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.transfers, b.transfers);
    let c = run(SystemKind::SmartSageHwSw, 3, true, 43);
    assert_ne!(a.makespan, c.makespan, "different seed should differ");
}

#[test]
fn end_to_end_ordering_matches_the_paper() {
    // Fig 18's ordering: DRAM fastest, then PMEM, oracle, HW/SW, SW,
    // mmap slowest.
    let systems = [
        SystemKind::Dram,
        SystemKind::Pmem,
        SystemKind::SmartSageOracle,
        SystemKind::SmartSageHwSw,
        SystemKind::SmartSageSw,
        SystemKind::SsdMmap,
    ];
    let times: Vec<(SystemKind, SimDuration)> = systems
        .iter()
        .map(|&k| (k, run(k, 3, true, 5).makespan))
        .collect();
    for pair in times.windows(2) {
        assert!(
            pair[0].1 <= pair[1].1,
            "{} ({}) should be <= {} ({})",
            pair[0].0,
            pair[0].1,
            pair[1].0,
            pair[1].1
        );
    }
}

#[test]
fn sampling_only_mode_runs_faster_than_training() {
    let with_gpu = run(SystemKind::SmartSageHwSw, 3, true, 6);
    let sampling = run(SystemKind::SmartSageHwSw, 3, false, 6);
    assert!(sampling.gpu_busy.is_zero());
    assert!(sampling.makespan <= with_gpu.makespan);
}

#[test]
fn bounded_queue_blocks_producers_not_correctness() {
    // A depth-1 queue forces producer stalls; everything still completes
    // and the makespan can only grow.
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 8);
    let mk = |depth: usize| {
        let ctx = Arc::new(RunContext::new(
            data.clone(),
            SystemConfig::new(SystemKind::Dram),
        ));
        run_pipeline(
            &ctx,
            &PipelineConfig {
                workers: 4,
                total_batches: 12,
                batch_size: 24,
                fanouts: Fanouts::new(vec![5, 4]),
                queue_depth: depth,
                hidden_dim: 64,
                classes: 16,
                seed: 9,
                sampler: SamplerKind::GraphSage,
                train: true,
                ..PipelineConfig::default()
            },
        )
    };
    let narrow = mk(1);
    let wide = mk(8);
    assert_eq!(narrow.batches, 12);
    assert_eq!(wide.batches, 12);
    assert!(
        narrow.makespan >= wide.makespan,
        "narrow queue {} should not beat wide queue {}",
        narrow.makespan,
        wide.makespan
    );
}

#[test]
fn saint_walks_complete_on_ssd_systems() {
    let data = DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::LargeScale, 30_000, 8);
    let ctx = Arc::new(RunContext::new(
        data,
        SystemConfig::new(SystemKind::SmartSageHwSw),
    ));
    let report = run_pipeline(
        &ctx,
        &PipelineConfig {
            workers: 2,
            total_batches: 4,
            batch_size: 32,
            fanouts: Fanouts::paper_default(),
            queue_depth: 2,
            hidden_dim: 64,
            classes: 16,
            seed: 3,
            sampler: SamplerKind::SaintWalk { length: 4 },
            train: true,
            ..PipelineConfig::default()
        },
    );
    assert_eq!(report.batches, 4);
    assert!(report.transfers.ssd_to_host_bytes > 0);
}

#[test]
fn transfer_accounting_is_consistent() {
    let mmap = run(SystemKind::SsdMmap, 2, false, 11);
    let isp = run(SystemKind::SmartSageHwSw, 2, false, 11);
    // Useful bytes identical (same subgraphs), moved bytes wildly different.
    assert_eq!(mmap.transfers.useful_bytes, isp.transfers.useful_bytes);
    assert!(mmap.transfers.ssd_to_host_bytes > isp.transfers.ssd_to_host_bytes);
    assert_eq!(mmap.transfers.host_to_ssd_bytes, 0);
    assert!(isp.transfers.host_to_ssd_bytes > 0, "NSconfig bytes");
    // ISP moves exactly the dense subgraph.
    assert_eq!(isp.transfers.ssd_to_host_bytes, isp.transfers.useful_bytes);
}

fn one_pass_ctx() -> Arc<RunContext> {
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 8);
    Arc::new(RunContext::new(data, SystemConfig::new(SystemKind::Dram)))
}

fn one_pass_cfg(sampler: SamplerKind) -> PipelineConfig {
    PipelineConfig {
        workers: 3,
        total_batches: 8,
        batch_size: 24,
        fanouts: Fanouts::new(vec![5, 4]),
        seed: 21,
        sampler,
        train: false,
        ..PipelineConfig::default()
    }
}

/// Batch `index` of `cfg`'s epoch, drawn independently of the pipeline
/// on a borrowed view of the graph.
fn reference_plan(ctx: &RunContext, cfg: &PipelineConfig, index: usize) -> SamplePlan {
    let graph = ctx.graph();
    let targets = epoch_targets(graph.num_nodes(), cfg.batch_size, index, cfg.seed);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
    plan_sample_on(&mut CsrView::new(graph), &targets, &cfg.fanouts, &mut rng).unwrap()
}

#[test]
fn graphsage_batches_are_sampled_through_the_topology_store_exactly_once() {
    let ctx = one_pass_ctx();
    let cfg = one_pass_cfg(SamplerKind::GraphSage);
    let report = run_pipeline(&ctx, &cfg);
    let topo = report.topology_stats;
    // One degree read and one pick batch per hop per batch...
    let hops = cfg.fanouts.hops() as u64;
    assert_eq!(topo.gathers, 2 * hops * cfg.total_batches as u64);
    // ...answering each frontier degree and each drawn pick once.
    let answers: u64 = (0..cfg.total_batches)
        .map(|index| {
            let plan = reference_plan(&ctx, &cfg, index);
            let picks: usize = plan.positions.iter().map(Vec::len).sum();
            plan.trace.num_accesses() + picks as u64
        })
        .sum();
    assert_eq!(topo.nodes_gathered, answers);
}

#[test]
fn saint_walk_batches_resolve_with_one_pick_call_per_step() {
    let ctx = one_pass_ctx();
    let length = 4;
    let cfg = one_pass_cfg(SamplerKind::SaintWalk { length });
    let report = run_pipeline(&ctx, &cfg);
    // Walk plans are drawn on the in-memory CSR (no degree reads); the
    // store only resolves them, once.
    assert_eq!(
        report.topology_stats.gathers,
        (length * cfg.total_batches) as u64
    );
}

#[test]
fn a_one_batch_run_is_batch_zero_of_the_epoch() {
    let ctx = one_pass_ctx();
    let cfg = PipelineConfig {
        workers: 1,
        total_batches: 1,
        ..one_pass_cfg(SamplerKind::GraphSage)
    };
    let report = run_pipeline(&ctx, &cfg);
    assert_eq!(report.batches, 1);
    // The same subgraph the independent plan-then-resolve path builds:
    // its dense id list is the run's useful bytes, its distinct nodes
    // are the one gather the feature store answered.
    let plan = reference_plan(&ctx, &cfg, 0);
    let batch = plan.resolve_on(&mut CsrView::new(ctx.graph())).unwrap();
    assert_eq!(report.transfers.useful_bytes, batch.subgraph_bytes());
    assert_eq!(report.store_stats.gathers, 1);
    assert_eq!(
        report.store_stats.nodes_gathered,
        batch.all_nodes().len() as u64
    );
    // One batch: the mean sampling time is that batch's, and the run
    // ends when it does.
    assert_eq!(report.avg_sampling_time, report.makespan);
}

#[test]
fn the_inert_readahead_field_changes_nothing_in_the_report() {
    // `PipelineConfig::readahead` is read by nothing: with cold caches
    // (a private registry per run) the whole report — the exact I/O
    // counters of both file-backed halves included — is the same with
    // the field on and off, unsharded and across three devices.
    let ctx = one_pass_ctx();
    for shards in [1usize, 3] {
        let report = |readahead: bool| {
            let _cold = store_metrics::install_scope(SweepScope::new());
            let cfg = PipelineConfig {
                store: StoreKind::File,
                topology: TopologyKind::File,
                shards,
                readahead,
                ..one_pass_cfg(SamplerKind::GraphSage)
            };
            run_pipeline(&ctx, &cfg)
        };
        let (off, on) = (report(false), report(true));
        assert!(off.store_stats.bytes_read > 0 && off.topology_stats.bytes_read > 0);
        assert_eq!(off.store_stats, on.store_stats, "x{shards}");
        assert_eq!(off.topology_stats, on.topology_stats, "x{shards}");
        assert_eq!(format!("{off:?}"), format!("{on:?}"), "x{shards}");
    }
}
