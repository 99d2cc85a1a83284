//! Producer/consumer training-pipeline simulator (paper Fig 4).
//!
//! CPU-side producer workers sample and gather every mini-batch through
//! the **one real storage path** (the run's topology and feature store
//! tiers); the system under test only decides what that access stream
//! *costs*. Each planned batch's byte trace
//! ([`smartsage_store::SampleTrace`]) is handed to the run's
//! [`CostPolicy`], which replays it against the design point's device
//! models in virtual time. Finished mini-batches (subgraph shape +
//! modeled cost; the gathered rows stay in the producer's one buffer)
//! enter a bounded work queue; the GPU consumer pops them, pays the
//! CPU→GPU transfer, and trains. The simulation is
//! event-driven at the policy's step granularity, so concurrent workers
//! contend for shared devices in global time order, and GPU idle time
//! (Fig 7) falls out of the queue dynamics exactly as in the paper:
//! when producers cannot keep up, the GPU starves.

use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::cost::{make_policy, BatchCost, CostPolicy, StepOutcome};
use crate::metrics::{FpgaPhases, StageBreakdown, TransferStats};
use crate::store_metrics;
use smartsage_gnn::gpu::BatchDims;
use smartsage_gnn::saint::plan_random_walk;
use smartsage_gnn::sampler::{epoch_targets, sample_on};
use smartsage_gnn::{Fanouts, SampledBatch};
use smartsage_graph::NodeId;
use smartsage_sim::{EventQueue, SimDuration, SimTime, Xoshiro256};
use smartsage_store::{
    FeatureStore, FileStoreOptions, OpenTiers, SampleTrace, StoreKind, StoreRegistry, StoreStats,
    TierSpec, TopologyKind, TopologyStore,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// Which sampling algorithm drives the pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerKind {
    /// GraphSAGE fan-out sampling (the paper's default).
    GraphSage,
    /// GraphSAINT random walks (Fig 20).
    SaintWalk {
        /// Steps per walk.
        length: usize,
    },
}

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Number of CPU-side producer workers.
    pub workers: usize,
    /// Mini-batches to train (across all workers).
    pub total_batches: usize,
    /// Targets per mini-batch.
    pub batch_size: usize,
    /// Sampling fan-outs.
    pub fanouts: Fanouts,
    /// Work-queue depth (mini-batches buffered ahead of the GPU).
    pub queue_depth: usize,
    /// GNN hidden width (GPU cost model).
    pub hidden_dim: u64,
    /// Output classes (GPU cost model).
    pub classes: u64,
    /// Base RNG seed.
    pub seed: u64,
    /// Sampling algorithm.
    pub sampler: SamplerKind,
    /// `false` measures data preparation only (Figs 14-17): batches are
    /// consumed instantly and the GPU plays no part.
    pub train: bool,
    /// Feature-store tier the producers gather through
    /// ([`StoreRegistry::open_tiers`] describes what each tier opens).
    /// Every run gathers its batches' features functionally, and
    /// [`PipelineReport::store_stats`] records the exact I/O: zero for
    /// [`StoreKind::Mem`] (default), whole pages for
    /// [`StoreKind::File`], and a `device_bytes_read` /
    /// `host_bytes_transferred` split for [`StoreKind::Isp`]. Simulated
    /// pipeline time is never perturbed by the tier choice — the store
    /// determinism contract guarantees identical results, so only the
    /// report's I/O section changes.
    pub store: StoreKind,
    /// Topology-store tier neighbor sampling reads the graph through;
    /// [`PipelineReport::topology_stats`] records the exact I/O.
    /// GraphSAGE batches are sampled through the store in one pass
    /// (plan and subgraph together); the GraphSAINT walk planner stays
    /// on the in-memory CSR (walks are control-flow-dependent per
    /// step), and its plans resolve through the store. Like
    /// [`PipelineConfig::store`], the tier never perturbs simulated
    /// time.
    pub topology: TopologyKind,
    // Read-ahead is gone: accepted, read by nothing. The field leaves
    // with its last caller (`benchmark/`, frozen for one PR) in the
    // next `benchmark` PR.
    #[doc(hidden)]
    pub readahead: bool,
    /// Number of modeled storage devices the dataset is partitioned
    /// across (default `1`; `open_tiers` reads `0` as `1`). Both axes
    /// open a `shards`-way contiguous node-range partition — one
    /// per-shard file, page-cache budget slice, and (on the ISP tiers)
    /// SSD timing model per device; one device is the 1-way case of
    /// that same construction.
    /// Gathered values, sampled plans, and modeled costs are
    /// bit-identical at every shard count (the store determinism
    /// contract; costs price the merged trace); above one device the
    /// I/O accounting gains a per-shard breakdown.
    pub shards: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            workers: 12,
            total_batches: 24,
            batch_size: 1024,
            fanouts: Fanouts::paper_default(),
            queue_depth: 4,
            hidden_dim: 256,
            classes: 16,
            seed: 0xC0FFEE,
            sampler: SamplerKind::GraphSage,
            train: true,
            store: StoreKind::Mem,
            topology: TopologyKind::Mem,
            readahead: false,
            shards: 1,
        }
    }
}

/// Results of one pipeline run.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    /// The design point measured.
    pub kind: SystemKind,
    /// End-to-end wall time.
    pub makespan: SimDuration,
    /// Batches completed.
    pub batches: usize,
    /// Per-stage time totals (summed across workers/GPU).
    pub breakdown: StageBreakdown,
    /// Time the GPU spent transferring + training.
    pub gpu_busy: SimDuration,
    /// Fraction of the makespan the GPU sat idle (Fig 7).
    pub gpu_idle_frac: f64,
    /// Aggregate data movement.
    pub transfers: TransferStats,
    /// Mean per-batch neighbor-sampling time.
    pub avg_sampling_time: SimDuration,
    /// Data-preparation throughput in batches/second.
    pub sampling_throughput: f64,
    /// Feature-store counters of the run's gathers (exact, per run).
    pub store_stats: StoreStats,
    /// Graph-topology store counters of the run's sampling and batch
    /// resolution (exact, per run).
    pub topology_stats: StoreStats,
    /// The FPGA-CSD policy's phase detail summed over the run's batches
    /// (Fig 19's bars); `None` under every other policy.
    pub fpga: Option<FpgaPhases>,
}

impl PipelineReport {
    /// Makespan ratio `other / self` (how much faster `self` is).
    ///
    /// Guarded for degenerate zero-time reports at tiny scales: both
    /// makespans are floored at one nanosecond before dividing, so the
    /// result is always finite (two empty runs compare as `1.0`, and a
    /// zero-time `self` yields a large-but-finite speedup) — a
    /// [`Cell::Speedup`](crate::report::Cell) can never receive NaN or
    /// infinity from here.
    pub fn speedup_over(&self, other: &PipelineReport) -> f64 {
        let floor = SimDuration::from_nanos(1);
        other.makespan.max(floor).ratio(self.makespan.max(floor))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Worker(usize),
    Gpu,
}

/// Page-cache capacity of the pipeline's file-backed store: 4 MiB of
/// 4 KiB pages — big enough to show reuse, small enough that scaled
/// feature files do not fit, so runs report both hits and misses.
const FILE_STORE_CACHE_PAGES: usize = 1024;

/// Opens the run's tier pair through the one store-crate entry point
/// ([`StoreRegistry::open_tiers`]), against the registry of the sweep
/// this run belongs to (installed by
/// [`Runner::sweep`](crate::runner::Runner::sweep) via
/// [`store_metrics::install_scope`]) or the process-wide
/// [`StoreRegistry::global`] for ad-hoc runs — so every concurrent run
/// of a sweep shares one file descriptor and one page cache per content
/// key while keeping exact per-run counters in its own handles.
///
/// # Panics
///
/// Panics if a store file cannot be written or opened, or if the two
/// halves' populations disagree — the pipeline has no error channel,
/// so this is its one up-front failure site, carrying the typed
/// [`StoreError`](smartsage_store::StoreError) message that names the
/// files.
fn open_tiers(ctx: &Arc<RunContext>, cfg: &PipelineConfig) -> OpenTiers {
    let scope_registry = store_metrics::current_registry();
    let registry: &StoreRegistry = scope_registry
        .as_deref()
        .unwrap_or_else(|| StoreRegistry::global());
    let spec = TierSpec {
        store: cfg.store,
        topology: cfg.topology,
        shards: cfg.shards,
        file: FileStoreOptions {
            cache_pages: FILE_STORE_CACHE_PAGES,
            ..FileStoreOptions::default()
        },
    };
    registry
        .open_tiers(
            &ctx.data.graph,
            &ctx.data.features,
            ctx.graph().num_nodes(),
            &spec,
        )
        .unwrap_or_else(|e| panic!("opening the {spec:?} store tiers failed: {e}"))
}

/// One mini-batch as sampled at plan time: the subgraph and its sorted
/// distinct node list (what the feature gather fetches). Parked per
/// worker from the moment its trace is handed to the cost policy until
/// [`finish_batch`].
struct PlannedBatch {
    batch: SampledBatch,
    nodes: Vec<NodeId>,
}

/// Samples batch `index` of the epoch through the topology store, once:
/// GraphSAGE hop expansion draws the plan and resolves the subgraph in
/// one [`sample_on`] pass — both bit-identical across tiers by the
/// determinism contract, only the I/O accounting differs — while
/// GraphSAINT walk plans, drawn on the in-memory CSR, resolve through
/// the store. Returns the byte trace the pass recorded (the
/// modeled-cost input), moved out of the plan, with the batch.
///
/// # Panics
///
/// Panics if the topology store fails (a real I/O error on the
/// file-backed tiers) — producers have no recovery path mid-simulation.
fn plan_batch(
    ctx: &RunContext,
    cfg: &PipelineConfig,
    topology: &mut dyn TopologyStore,
    index: usize,
) -> (SampleTrace, PlannedBatch) {
    let graph = ctx.graph();
    let targets = epoch_targets(graph.num_nodes(), cfg.batch_size, index, cfg.seed);
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
    let (plan, batch) = match &cfg.sampler {
        SamplerKind::GraphSage => sample_on(topology, &targets, &cfg.fanouts, &mut rng)
            .unwrap_or_else(|e| panic!("producer topology sampling failed: {e}")),
        SamplerKind::SaintWalk { length } => {
            let plan = plan_random_walk(graph, &targets, *length, &mut rng);
            let batch = plan
                .resolve_on(topology)
                .unwrap_or_else(|e| panic!("producer topology resolve failed: {e}"));
            (plan, batch)
        }
    };
    let nodes = batch.all_nodes();
    (plan.trace, PlannedBatch { batch, nodes })
}

/// Finishes `worker`'s batch: takes its modeled [`BatchCost`] from the
/// policy and gathers the batch's distinct nodes' features through the
/// feature store into `rows`, the one buffer the producer keeps for the
/// run (resized, never reallocated once it has seen the largest batch).
///
/// # Panics
///
/// Panics if the store fails (a real I/O error on the file-backed
/// tiers) — producers have no recovery path mid-simulation.
fn finish_batch(
    policy: &mut dyn CostPolicy,
    store: &mut dyn FeatureStore,
    rows: &mut Vec<f32>,
    worker: usize,
    nodes: &[NodeId],
) -> BatchCost {
    let cost = policy.take_result(worker);
    rows.resize(nodes.len() * store.dim(), 0.0);
    store
        .gather_into(nodes, rows)
        .unwrap_or_else(|e| panic!("producer feature gather failed: {e}"));
    cost
}

struct ReadyBatch {
    ready: SimTime,
    transfer_bytes: u64,
    compute: SimDuration,
}

/// Runs the pipeline for `ctx` and returns its report.
///
/// # Panics
///
/// Panics if `cfg.workers` or `cfg.total_batches` is zero.
pub fn run_pipeline(ctx: &Arc<RunContext>, cfg: &PipelineConfig) -> PipelineReport {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.total_batches > 0, "need at least one batch");
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(ctx, cfg.workers);
    // The one real storage path: every batch is sampled once through
    // the topology store and its features gather through the feature
    // store (real I/O for the File tier, device-side resolution for
    // Isp). The event loop is single-threaded, so it owns both.
    let OpenTiers {
        features: mut store,
        mut topology,
    } = open_tiers(ctx, cfg);
    let gpu_params = ctx.config.devices.gpu.clone();
    let feat_dim = ctx.data.features.dim() as u64;
    let feat_bytes = ctx.data.features.bytes_per_node();

    let mut events: EventQueue<Event> = EventQueue::new();
    let mut next_batch = 0usize;
    let mut produced_done = 0usize;
    let mut consumed = 0usize;
    let mut queue: VecDeque<ReadyBatch> = VecDeque::new();
    let mut blocked: VecDeque<(usize, ReadyBatch)> = VecDeque::new();
    let mut gpu_next_free = SimTime::ZERO;
    let mut gpu_scheduled = false;
    let mut gpu_busy = SimDuration::ZERO;
    let mut breakdown = StageBreakdown::default();
    let mut transfers = TransferStats::default();
    let mut sampling_total = SimDuration::ZERO;
    let mut fpga: Option<FpgaPhases> = None;
    let mut makespan_end = SimTime::ZERO;
    let mut rows: Vec<f32> = Vec::new();
    // The in-flight batch of each worker, parked between begin (where
    // its plan's trace is priced) and finish (where its features
    // gather).
    let mut parked: Vec<Option<PlannedBatch>> = (0..cfg.workers).map(|_| None).collect();

    // Hands `worker` the epoch's next batch, if any remain: sample it
    // through the topology store, give its byte trace to the policy at
    // `at`, park the batch until the worker finishes stepping it, and
    // schedule the worker's first step.
    let mut start_next = |policy: &mut dyn CostPolicy,
                          parked: &mut [Option<PlannedBatch>],
                          events: &mut EventQueue<Event>,
                          worker: usize,
                          at: SimTime| {
        if next_batch < cfg.total_batches {
            let (trace, planned) = plan_batch(ctx, cfg, topology.as_mut(), next_batch);
            next_batch += 1;
            policy.begin(worker, at, trace);
            parked[worker] = Some(planned);
            events.schedule(at, Event::Worker(worker));
        }
    };

    // Seed each worker with its first batch.
    for w in 0..cfg.workers {
        start_next(policy.as_mut(), &mut parked, &mut events, w, SimTime::ZERO);
    }

    while let Some((now, event)) = events.pop() {
        match event {
            Event::Worker(w) => match policy.step(w, &mut devices, now) {
                StepOutcome::Running { next } => {
                    events.schedule(next.max(now), Event::Worker(w));
                }
                StepOutcome::Finished => {
                    let PlannedBatch { batch, nodes } =
                        parked[w].take().expect("finished worker has a batch");
                    let cost = finish_batch(policy.as_mut(), store.as_mut(), &mut rows, w, &nodes);
                    sampling_total += cost.sampling_time;
                    breakdown.sampling += cost.sampling_time.saturating_sub(cost.overhead_time);
                    breakdown.other += cost.overhead_time;
                    transfers.ssd_to_host_bytes += cost.ssd_to_host_bytes;
                    transfers.host_to_ssd_bytes += cost.host_to_ssd_bytes;
                    transfers.useful_bytes += batch.subgraph_bytes();
                    if let Some(phases) = &cost.fpga {
                        fpga.get_or_insert_with(FpgaPhases::default)
                            .accumulate(phases);
                    }
                    produced_done += 1;

                    let mut t = cost.done;
                    if cfg.train {
                        // Feature table lookup (always host DRAM) over
                        // the batch's sorted-distinct nodes.
                        let distinct = nodes.len() as u64;
                        let f_done = devices.host_dram.random_access(t, distinct, feat_bytes);
                        breakdown.feature_lookup += f_done.saturating_elapsed_since(t);
                        t = f_done;
                        let dims =
                            BatchDims::of_batch(&batch, feat_dim, cfg.hidden_dim, cfg.classes);
                        let cost = gpu_params.batch_cost(&dims);
                        let ready = ReadyBatch {
                            ready: t,
                            transfer_bytes: cost.transfer_bytes,
                            compute: cost.compute,
                        };
                        if queue.len() >= cfg.queue_depth {
                            // Worker stalls holding its batch.
                            blocked.push_back((w, ready));
                        } else {
                            queue.push_back(ready);
                            if !gpu_scheduled {
                                gpu_scheduled = true;
                                events.schedule(t, Event::Gpu);
                            }
                            start_next(policy.as_mut(), &mut parked, &mut events, w, t);
                        }
                    } else {
                        makespan_end = makespan_end.max(t);
                        consumed += 1;
                        start_next(policy.as_mut(), &mut parked, &mut events, w, t);
                    }
                }
            },
            Event::Gpu => {
                gpu_scheduled = false;
                if let Some(head) = queue.front() {
                    let start = now.max(head.ready).max(gpu_next_free);
                    if start > now {
                        gpu_scheduled = true;
                        events.schedule(start, Event::Gpu);
                        continue;
                    }
                    let batch = queue.pop_front().expect("non-empty");
                    let transferred = devices.gpu_link.transfer(start, batch.transfer_bytes);
                    let (_, end) = devices.gpu.schedule(transferred, batch.compute);
                    breakdown.cpu_to_gpu += transferred.saturating_elapsed_since(start);
                    breakdown.gnn_train += end.saturating_elapsed_since(transferred);
                    gpu_busy += end.saturating_elapsed_since(start);
                    gpu_next_free = end;
                    consumed += 1;
                    makespan_end = makespan_end.max(end);
                    // Queue space opened: admit a blocked worker.
                    if let Some((bw, payload)) = blocked.pop_front() {
                        queue.push_back(payload);
                        start_next(policy.as_mut(), &mut parked, &mut events, bw, now);
                    }
                    if !queue.is_empty() {
                        gpu_scheduled = true;
                        events.schedule(gpu_next_free, Event::Gpu);
                    }
                }
            }
        }
        if consumed >= cfg.total_batches {
            break;
        }
    }

    let store_stats = store.stats();
    store_metrics::record(&store_stats);
    let topology_stats = topology.stats();
    store_metrics::record_topology(&topology_stats);
    // The one count-dependent rule: at one device the breakdown would
    // repeat the totals, so a sweep records (and prints) none.
    if cfg.shards > 1 {
        store_metrics::record_shards(&store.shard_stats());
        store_metrics::record_topology_shards(&topology.shard_stats());
    }

    let makespan = makespan_end.since_epoch();
    let batches = consumed.max(produced_done);
    let gpu_idle_frac = if cfg.train && !makespan.is_zero() {
        1.0 - gpu_busy.ratio(makespan)
    } else {
        0.0
    };
    PipelineReport {
        kind: ctx.config.kind,
        makespan,
        batches,
        breakdown,
        gpu_busy,
        gpu_idle_frac: gpu_idle_frac.clamp(0.0, 1.0),
        transfers,
        avg_sampling_time: if produced_done > 0 {
            sampling_total / produced_done as u64
        } else {
            SimDuration::ZERO
        },
        sampling_throughput: if makespan.is_zero() {
            0.0
        } else {
            batches as f64 / makespan.as_secs_f64()
        },
        store_stats,
        topology_stats,
        fpga,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale};

    fn ctx(kind: SystemKind) -> Arc<RunContext> {
        let data =
            DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 5);
        Arc::new(RunContext::new(data, SystemConfig::new(kind)))
    }

    fn small_cfg(train: bool) -> PipelineConfig {
        PipelineConfig {
            workers: 3,
            total_batches: 6,
            batch_size: 32,
            fanouts: Fanouts::new(vec![5, 4]),
            queue_depth: 2,
            train,
            ..PipelineConfig::default()
        }
    }

    #[test]
    fn trains_all_batches_and_accounts_time() {
        let ctx = ctx(SystemKind::Dram);
        let report = run_pipeline(&ctx, &small_cfg(true));
        assert_eq!(report.batches, 6);
        assert!(!report.makespan.is_zero());
        assert!(report.breakdown.gnn_train > SimDuration::ZERO);
        assert!(report.breakdown.feature_lookup > SimDuration::ZERO);
        assert!(report.gpu_busy <= report.makespan);
        assert!((0.0..=1.0).contains(&report.gpu_idle_frac));
    }

    #[test]
    fn sampling_only_mode_skips_gpu() {
        let ctx = ctx(SystemKind::SmartSageHwSw);
        let report = run_pipeline(&ctx, &small_cfg(false));
        assert_eq!(report.batches, 6);
        assert!(report.gpu_busy.is_zero());
        assert!(report.breakdown.gnn_train.is_zero());
        assert!(report.sampling_throughput > 0.0);
    }

    #[test]
    fn every_run_reports_exact_store_counters() {
        // The unified path always gathers functionally — even the
        // default in-memory tiers report the run's exact I/O counters.
        let ctx = ctx(SystemKind::Dram);
        let report = run_pipeline(&ctx, &small_cfg(false));
        assert_eq!(report.store_stats.gathers, 6);
        assert!(report.store_stats.nodes_gathered > 0);
        assert!(report.store_stats.feature_bytes > 0);
        assert!(report.topology_stats.gathers > 0);
    }

    #[test]
    fn mmap_idles_the_gpu_more_than_dram() {
        let dram = run_pipeline(&ctx(SystemKind::Dram), &small_cfg(true));
        let mmap = run_pipeline(&ctx(SystemKind::SsdMmap), &small_cfg(true));
        assert!(
            mmap.gpu_idle_frac > dram.gpu_idle_frac,
            "mmap idle {} should exceed dram idle {}",
            mmap.gpu_idle_frac,
            dram.gpu_idle_frac
        );
        assert!(mmap.makespan > dram.makespan);
    }

    #[test]
    fn more_workers_do_not_slow_sampling_throughput() {
        let ctx1 = ctx(SystemKind::SsdMmap);
        let one = run_pipeline(
            &ctx1,
            &PipelineConfig {
                workers: 1,
                total_batches: 4,
                batch_size: 32,
                fanouts: Fanouts::new(vec![5, 4]),
                train: false,
                ..PipelineConfig::default()
            },
        );
        let ctx4 = ctx(SystemKind::SsdMmap);
        let four = run_pipeline(
            &ctx4,
            &PipelineConfig {
                workers: 4,
                total_batches: 8,
                batch_size: 32,
                fanouts: Fanouts::new(vec![5, 4]),
                train: false,
                ..PipelineConfig::default()
            },
        );
        assert!(
            four.sampling_throughput > one.sampling_throughput,
            "4 workers {} <= 1 worker {}",
            four.sampling_throughput,
            one.sampling_throughput
        );
    }

    #[test]
    fn speedup_over_is_always_finite() {
        let ctx = ctx(SystemKind::Dram);
        let real = run_pipeline(&ctx, &small_cfg(true));
        let mut zero = real.clone();
        zero.makespan = SimDuration::ZERO;
        // Every combination of zero/nonzero makespans stays finite and
        // positive — a Cell::Speedup can never receive NaN or infinity.
        for (a, b) in [
            (&real, &zero),
            (&zero, &real),
            (&zero, &zero),
            (&real, &real),
        ] {
            let s = a.speedup_over(b);
            assert!(s.is_finite() && s > 0.0, "speedup {s} not finite-positive");
        }
        assert_eq!(zero.speedup_over(&zero), 1.0, "two empty runs are equal");
        assert!(zero.speedup_over(&real) > 1.0, "zero-time self is 'faster'");
        assert!(real.speedup_over(&zero) < 1.0);
        let round_trip = real.speedup_over(&zero) * zero.speedup_over(&real);
        assert!((round_trip - 1.0).abs() < 1e-12);
    }

    #[test]
    fn saint_walks_run_end_to_end() {
        let ctx = ctx(SystemKind::SmartSageHwSw);
        let mut cfg = small_cfg(false);
        cfg.sampler = SamplerKind::SaintWalk { length: 3 };
        let report = run_pipeline(&ctx, &cfg);
        assert_eq!(report.batches, 6);
    }

    #[test]
    fn plan_batch_is_all_the_topology_traffic_of_a_batch() {
        // `run_pipeline` touches the topology store only through
        // `plan_batch`: one degree read and one pick batch
        // per GraphSAGE hop, one pick batch per walk step.
        let ctx = ctx(SystemKind::Dram);
        let mut cfg = small_cfg(false);
        let mut topo = smartsage_store::CsrView::new(ctx.graph());
        let (trace, planned) = plan_batch(&ctx, &cfg, &mut topo, 0);
        assert_eq!(topo.stats().gathers, 2 * cfg.fanouts.hops() as u64);
        assert_eq!(trace.num_sampled(), planned.batch.num_sampled());
        assert_eq!(planned.nodes, planned.batch.all_nodes());
        cfg.sampler = SamplerKind::SaintWalk { length: 3 };
        let mut topo = smartsage_store::CsrView::new(ctx.graph());
        plan_batch(&ctx, &cfg, &mut topo, 0);
        assert_eq!(topo.stats().gathers, 3);
    }
}
