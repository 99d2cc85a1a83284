//! Integration: conservation and ordering invariants of the
//! producer/consumer pipeline simulator across cost policies.

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::RunContext;
use smartsage::core::pipeline::{run_pipeline, PipelineConfig, PipelineReport};
use smartsage::core::store_metrics::{self, SweepScope};
use smartsage::core::{StoreKind, TopologyKind};
use smartsage::gnn::sampler::{epoch_targets, sample_on};
use smartsage::gnn::{Fanouts, SampledBatch};
use smartsage::graph::{Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage::sim::{SimDuration, Xoshiro256};
use smartsage::store::file::HEADER_BYTES;
use smartsage::store::{CsrView, FileStoreOptions, TierSpec};
use std::collections::BTreeSet;
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
            fanouts: Fanouts::new(vec![1; 4]),
            queue_depth: 2,
            hidden_dim: 64,
            classes: 16,
            seed: 3,
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

fn one_pass_cfg() -> PipelineConfig {
    PipelineConfig {
        workers: 3,
        total_batches: 8,
        batch_size: 24,
        fanouts: Fanouts::new(vec![5, 4]),
        seed: 21,
        train: false,
        ..PipelineConfig::default()
    }
}

/// Batch `index` of `cfg`'s epoch, sampled independently of the
/// pipeline on a borrowed view of the graph.
fn reference_batch(ctx: &RunContext, cfg: &PipelineConfig, index: usize) -> SampledBatch {
    let graph = ctx.graph();
    let targets = epoch_targets(graph.num_nodes(), cfg.batch_size, index, cfg.seed);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
    sample_on(&mut CsrView::new(graph), &targets, &cfg.fanouts, &mut rng).unwrap()
}

#[test]
fn graphsage_batches_are_sampled_through_the_topology_store_exactly_once() {
    let ctx = one_pass_ctx();
    // A fan-out tree and a 4-step random walk take the same path.
    for fanouts in [Fanouts::new(vec![5, 4]), Fanouts::new(vec![1; 4])] {
        let cfg = PipelineConfig {
            fanouts,
            ..one_pass_cfg()
        };
        let report = run_pipeline(&ctx, &cfg);
        let topo = report.topology_stats;
        // One degree read and one pick batch per hop per window of
        // `queue_depth` batches (one group sampled together)...
        let hops = cfg.fanouts.hops() as u64;
        let windows = cfg.total_batches.div_ceil(cfg.queue_depth) as u64;
        assert_eq!(topo.gathers, 2 * hops * windows);
        // ...answering each frontier degree and each drawn pick once.
        let answers: u64 = (0..cfg.total_batches)
            .map(|index| {
                let trace = reference_batch(&ctx, &cfg, index).into_trace();
                let picks = trace
                    .hops
                    .iter()
                    .flat_map(|h| (0..h.nodes.len()).map(|i| h.picks(i)));
                trace.num_accesses() + picks.sum::<usize>() as u64
            })
            .sum();
        assert_eq!(topo.nodes_gathered, answers, "{:?}", cfg.fanouts);
    }
}

#[test]
fn a_one_batch_run_is_batch_zero_of_the_epoch() {
    let ctx = one_pass_ctx();
    let cfg = PipelineConfig {
        workers: 1,
        total_batches: 1,
        ..one_pass_cfg()
    };
    let report = run_pipeline(&ctx, &cfg);
    assert_eq!(report.batches, 1);
    // The same subgraph an independent pass builds: its dense id list
    // is the run's useful bytes, its distinct nodes are the one gather
    // the feature store answered.
    let batch = reference_batch(&ctx, &cfg, 0);
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
                ..one_pass_cfg()
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

#[test]
fn features_are_gathered_once_per_window_of_queue_depth_batches() {
    // Seven batches on cold file tiers: at depths 2 and 4 the last
    // window is short. Each window's sorted union is read in one slice
    // per batch, so the gathers still count the batches, the rows count
    // each window's distinct nodes once, and no page is read twice in a
    // window.
    let ctx = one_pass_ctx();
    let total = 7;
    let page = FileStoreOptions::default().page_bytes;
    let row = ctx.data.features.bytes_per_node();
    let pages_of = |n: NodeId| {
        let start = HEADER_BYTES + u64::from(n.raw()) * row;
        start / page..=(start + row - 1) / page
    };
    let batches: Vec<Vec<NodeId>> = (0..total)
        .map(|i| reference_batch(&ctx, &one_pass_cfg(), i).all_nodes())
        .collect();
    for queue_depth in [1usize, 2, 4] {
        let cfg = PipelineConfig {
            total_batches: total,
            queue_depth,
            store: StoreKind::File,
            topology: TopologyKind::File,
            ..one_pass_cfg()
        };
        let stats = {
            let _cold = store_metrics::install_scope(SweepScope::new());
            run_pipeline(&ctx, &cfg).store_stats
        };
        let unions: Vec<BTreeSet<NodeId>> = batches
            .chunks(queue_depth)
            .map(|window| window.iter().flatten().copied().collect())
            .collect();
        let rows: usize = unions.iter().map(BTreeSet::len).sum();
        let pages: usize = unions
            .iter()
            .map(|union| {
                union
                    .iter()
                    .flat_map(|&n| pages_of(n))
                    .collect::<BTreeSet<u64>>()
                    .len()
            })
            .sum();
        assert_eq!(stats.gathers, total as u64, "depth {queue_depth}");
        assert_eq!(stats.nodes_gathered, rows as u64, "depth {queue_depth}");
        assert!(stats.pages_read > 0, "depth {queue_depth}: cold tiers read");
        assert!(
            stats.pages_read <= pages as u64,
            "depth {queue_depth}: {} pages read, the windows span {pages}",
            stats.pages_read
        );
        if queue_depth == 1 {
            // A one-batch window is the batch: the same counters as
            // gathering each batch's nodes by hand, in index order.
            let scope = SweepScope::new();
            let spec = TierSpec {
                store: StoreKind::File,
                topology: TopologyKind::Mem,
                shards: 1,
                // The page cache `run_pipeline` gives a file tier.
                file: FileStoreOptions {
                    cache_pages: 1024,
                    ..FileStoreOptions::default()
                },
            };
            let graph = &ctx.data.graph;
            let mut tiers = scope
                .registry
                .open_tiers(graph, &ctx.data.features, graph.num_nodes(), &spec)
                .unwrap();
            let mut out = Vec::new();
            for nodes in &batches {
                out.resize(nodes.len() * tiers.features.dim(), 0.0);
                tiers.features.gather_into(nodes, &mut out).unwrap();
            }
            assert_eq!(stats, tiers.features.stats());
        }
    }
}

#[test]
fn feature_io_does_not_depend_on_the_system() {
    // Three workers finish their batches in a different order on every
    // design point, but the real pass gathers each window in index
    // order, so the tiers' exact counters are the same for every system
    // — on both file-backed tiers, unsharded and across three devices.
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 8);
    for (store, topology) in [
        (StoreKind::File, TopologyKind::File),
        (StoreKind::Isp, TopologyKind::Isp),
    ] {
        for shards in [1usize, 3] {
            let stats: Vec<_> = SystemKind::ALL
                .into_iter()
                .map(|kind| {
                    let ctx = Arc::new(RunContext::new(data.clone(), SystemConfig::new(kind)));
                    let cfg = PipelineConfig {
                        store,
                        topology,
                        shards,
                        ..one_pass_cfg()
                    };
                    let _cold = store_metrics::install_scope(SweepScope::new());
                    let report = run_pipeline(&ctx, &cfg);
                    (kind, report.store_stats, report.topology_stats)
                })
                .collect();
            let (_, store_stats, topology_stats) = stats[0];
            assert!(store_stats.pages_read > 0, "{store:?} x{shards}");
            for (kind, features, graph) in &stats[1..] {
                assert_eq!(*features, store_stats, "{kind} {store:?} x{shards}");
                assert_eq!(*graph, topology_stats, "{kind} {topology:?} x{shards}");
            }
        }
    }
}
