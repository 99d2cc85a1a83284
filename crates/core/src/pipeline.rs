//! Producer/consumer training-pipeline simulator (paper Fig 4), in two
//! halves: the producers' real work, and what it costs on the system
//! under test.
//!
//! The **real pass** (`sample_epoch`) samples and gathers every
//! mini-batch of an epoch through the **one real storage path** (the
//! run's topology and feature store tiers), one **window** of
//! `queue_depth` consecutive batches at a time, in index order. A
//! window is sampled as one group — the paper's one `NSconfig` per
//! command group (Fig 11) — and each batch in it on its own targets and
//! seed, so its record is the one it gets alone; then the sorted union
//! of the window's nodes is read in one slice per batch. Either way a
//! page the window's batches share is read once (the gathered rows stay
//! in the pass's one buffer). It returns an `Epoch`: each batch's byte trace
//! ([`smartsage_store::SampleTrace`]: the sampled batch itself, moved,
//! once its shape is read off it) and shape, and the tiers' exact I/O
//! counters. Nothing in it depends on the system.
//!
//! The **pricing loop** (`price`) holds no store. It hands each
//! batch's trace to the run's [`CostPolicy`], which replays it against
//! the design point's device models in virtual time. Finished
//! mini-batches (subgraph shape + modeled cost) enter a bounded work
//! queue; the GPU consumer pops them, pays the CPU→GPU transfer, and
//! trains. The simulation is event-driven at the policy's step
//! granularity, so concurrent workers contend for shared devices in
//! global time order, and GPU idle time (Fig 7) falls out of the queue
//! dynamics exactly as in the paper: when producers cannot keep up, the
//! GPU starves.
//!
//! [`run_pipeline`] is the two halves in sequence. The experiment
//! drivers price every cell that shares an epoch over one real pass
//! ([`Prepared`](crate::experiments::Prepared) keeps the driver's
//! epochs).

use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::cost::{make_policy, CostPolicy, StepOutcome};
use crate::metrics::{FpgaPhases, StageBreakdown, TransferStats};
use crate::store_metrics::{self, AxisIo, RunIo};
use smartsage_gnn::gpu::BatchDims;
use smartsage_gnn::sampler::{epoch_targets, gather_union, sample_group_on, SampleSpec};
use smartsage_gnn::Fanouts;
use smartsage_graph::NodeId;
use smartsage_sim::{EventQueue, SimDuration, SimTime};
use smartsage_store::{
    FileStoreOptions, OpenTiers, SampleTrace, StoreError, StoreKind, StoreRegistry, StoreStats,
    TierSpec, TopologyKind,
};
use std::collections::VecDeque;
use std::sync::Arc;

// Every sampler is a fan-out spec now (`PipelineConfig::fanouts`), so
// this is accepted and read by nothing. The enum and
// `PipelineConfig::sampler` stay only while `benchmark/` spells them.
#[doc(hidden)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SamplerKind {
    GraphSage,
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
    /// Sampling fan-outs, the run's one hop spec: `[25, 10]` is the
    /// paper's GraphSAGE tree, and `[1; L]` is a GraphSAINT random walk
    /// of `L` steps (Fig 20).
    pub fanouts: Fanouts,
    /// Work-queue depth (mini-batches buffered ahead of the GPU).
    pub queue_depth: usize,
    /// GNN hidden width (GPU cost model).
    pub hidden_dim: u64,
    /// Output classes (GPU cost model).
    pub classes: u64,
    /// Base RNG seed.
    pub seed: u64,
    #[doc(hidden)]
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
    /// [`PipelineReport::topology_stats`] records the exact I/O. Every
    /// batch, fan-out tree or walk, is sampled through the store in one
    /// pass (its degrees and subgraph together). Like
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
    /// Gathered values, sampled batches, and modeled costs are
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
    /// Feature-store counters of the gathers of the epoch's real pass
    /// (exact). Every cell priced over one memoized epoch (see
    /// [`Prepared`](crate::experiments::Prepared)) carries that epoch's
    /// counters.
    pub store_stats: StoreStats,
    /// Graph-topology store counters of the epoch's sampling (exact;
    /// shared by the cells of a memoized epoch like
    /// [`PipelineReport::store_stats`]).
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

/// A worker's event carries a reference to its in-flight batch's
/// record in the epoch, from the moment the batch's trace is handed to
/// the cost policy until the policy reports it finished.
enum Event<'e> {
    Worker(usize, &'e PlannedBatch),
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
/// key while keeping exact per-run counters in its own handles. Fails
/// if a store file cannot be written or opened, or if the two halves'
/// populations disagree (the typed error names the files).
fn open_tiers(ctx: &RunContext, cfg: &PipelineConfig) -> Result<OpenTiers, StoreError> {
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
    registry.open_tiers(
        &ctx.data.graph,
        &ctx.data.features,
        ctx.graph().num_nodes(),
        &spec,
    )
}

/// One mini-batch's record as sampled by the real pass: the byte trace
/// the cost policy prices (the sampled batch, moved:
/// `SampledBatch::into_trace`), and what the modeled pipeline reads of
/// the batch once the policy has priced it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PlannedBatch {
    trace: SampleTrace,
    /// Distinct nodes (the feature lookup's row count).
    distinct: u64,
    dims: BatchDims,
    subgraph_bytes: u64,
}

/// One epoch's real pass ([`sample_epoch`]): every batch's record in
/// index order, and the exact I/O of the tiers that sampled and
/// gathered it. Nothing in it depends on the system under test, so one
/// epoch prices every [`SystemKind`].
#[derive(Debug, Clone)]
pub(crate) struct Epoch {
    batches: Vec<PlannedBatch>,
    io: RunIo,
}

/// Refuses the configurations no epoch can run. Both halves call it
/// first, so a bad `cfg` is rejected before any tier is opened or
/// published.
///
/// # Panics
///
/// Panics if `cfg.workers`, `cfg.total_batches` or `cfg.queue_depth`
/// is zero (a queue that can never admit would block every worker and
/// drain the event queue into a short, zero-makespan report).
fn check_config(cfg: &PipelineConfig) {
    assert!(cfg.workers > 0, "need at least one worker");
    assert!(cfg.total_batches > 0, "need at least one batch");
    assert!(cfg.queue_depth > 0, "need a non-empty work queue");
}

/// The real pass: samples and gathers the epoch one window of
/// `cfg.queue_depth` consecutive batches at a time (the last may be
/// shorter), in index order. A window is sampled as one group through
/// the run's topology tier ([`sample_group_on`]: `2 × hops` calls, so a
/// topology page the window's batches share is read once), each batch
/// on its own targets ([`epoch_targets`]) and seed, so its record is
/// the one it gets sampled alone. The window's features are then
/// gathered through the feature tier: their union read in one
/// ascending slice per batch ([`gather_union`]), so no slice is longer
/// than the window's largest batch, and a page two slices share is the
/// last the first slice read, still cached for the second. The gathered
/// rows go to one buffer nothing reads: the pass exists for its I/O,
/// which it records into the sweep's scope (once per epoch) and into
/// the returned [`Epoch`].
///
/// # Panics
///
/// Panics if `cfg.workers`, `cfg.total_batches` or `cfg.queue_depth`
/// is zero, before any tier is opened.
pub(crate) fn sample_epoch(ctx: &RunContext, cfg: &PipelineConfig) -> Result<Epoch, StoreError> {
    check_config(cfg);
    let mut tiers = open_tiers(ctx, cfg)?;
    let feat_dim = ctx.data.features.dim() as u64;
    let mut batches = Vec::with_capacity(cfg.total_batches);
    let mut rows: Vec<f32> = Vec::new();
    for first in (0..cfg.total_batches).step_by(cfg.queue_depth) {
        let window = first..cfg.total_batches.min(first + cfg.queue_depth);
        let targets: Vec<Vec<NodeId>> = window
            .clone()
            .map(|index| epoch_targets(ctx.graph().num_nodes(), cfg.batch_size, index, cfg.seed))
            .collect();
        let seeds = window.map(|index| cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
        let specs: Vec<SampleSpec> = (targets.iter().zip(seeds))
            .map(|(targets, seed)| SampleSpec { targets, seed })
            .collect();
        let sampled = sample_group_on(tiers.topology.as_mut(), &specs, &cfg.fanouts)?;
        let mut nodes = Vec::with_capacity(sampled.len());
        for batch in sampled {
            let distinct = batch.all_nodes();
            batches.push(PlannedBatch {
                distinct: distinct.len() as u64,
                dims: BatchDims::of_batch(&batch, feat_dim, cfg.hidden_dim, cfg.classes),
                subgraph_bytes: batch.subgraph_bytes(),
                trace: batch.into_trace(),
            });
            nodes.push(distinct);
        }
        let lists = nodes.iter().map(Vec::as_slice);
        gather_union(tiers.features.as_mut(), lists, nodes.len(), &mut rows)?;
    }
    // The one count-dependent rule: at one device the breakdown would
    // repeat the totals, so a run records (and a sweep prints) none.
    let axis = |total, shards| AxisIo {
        total,
        shards: if cfg.shards > 1 { shards } else { Vec::new() },
    };
    let io = RunIo {
        features: axis(tiers.features.stats(), tiers.features.shard_stats()),
        topology: axis(tiers.topology.stats(), tiers.topology.shard_stats()),
    };
    store_metrics::record(&io);
    Ok(Epoch { batches, io })
}

/// [`sample_epoch`] for the callers with no error channel
/// ([`run_pipeline`] and [`Prepared`](crate::experiments::Prepared)'s
/// epoch memo).
///
/// # Panics
///
/// Panics if the real pass fails: a store file cannot be written or
/// opened, the two halves' populations disagree, or a tier hits a real
/// I/O error mid-pass. The message carries the typed
/// [`StoreError`], which names the files. Also panics, before any
/// tier is opened, on a configuration [`sample_epoch`] refuses.
pub(crate) fn sample_epoch_or_panic(ctx: &RunContext, cfg: &PipelineConfig) -> Epoch {
    sample_epoch(ctx, cfg).unwrap_or_else(|e| panic!("the pipeline's real pass failed: {e}"))
}

/// Runs the pipeline for `ctx` and returns its report: the real pass
/// (`sample_epoch`) and then the modeled event loop over its record
/// (`price`).
///
/// # Panics
///
/// Panics if the real pass fails, or if `cfg.workers`,
/// `cfg.total_batches` or `cfg.queue_depth` is zero.
pub fn run_pipeline(ctx: &Arc<RunContext>, cfg: &PipelineConfig) -> PipelineReport {
    price(ctx, cfg, &sample_epoch_or_panic(ctx, cfg))
}

/// The modeled event loop: prices `epoch` for `ctx`'s system under the
/// worker count, queue depth and mode (`cfg.train`) of `cfg`. It holds
/// no store: workers take the epoch's batches in index order, each
/// batch's trace is handed to the cost policy, and the report carries
/// the epoch's I/O counters.
///
/// # Panics
///
/// Panics if `cfg.workers`, `cfg.total_batches` or `cfg.queue_depth`
/// is zero.
pub(crate) fn price(ctx: &Arc<RunContext>, cfg: &PipelineConfig, epoch: &Epoch) -> PipelineReport {
    check_config(cfg);
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(ctx, cfg.workers);
    let feat_bytes = ctx.data.features.bytes_per_node();

    let mut events: EventQueue<Event> = EventQueue::new();
    let mut consumed = 0usize;
    // Finished batches wait for the GPU with the time they are ready.
    let mut queue: VecDeque<(SimTime, &PlannedBatch)> = VecDeque::new();
    let mut blocked: VecDeque<(usize, (SimTime, &PlannedBatch))> = VecDeque::new();
    let mut gpu_next_free = SimTime::ZERO;
    let mut gpu_scheduled = false;
    let mut gpu_busy = SimDuration::ZERO;
    let mut breakdown = StageBreakdown::default();
    let mut transfers = TransferStats::default();
    let mut sampling_total = SimDuration::ZERO;
    let mut fpga: Option<FpgaPhases> = None;
    let mut makespan_end = SimTime::ZERO;

    // Hands `worker` the epoch's next batch, if any remain: give its
    // byte trace to the policy at `at`, and schedule the worker's first
    // step, carrying the batch's record.
    let mut unstarted = epoch.batches.iter();
    let mut start_next =
        |policy: &mut CostPolicy, events: &mut EventQueue<_>, worker: usize, at: SimTime| {
            if let Some(planned) = unstarted.next() {
                policy.begin(worker, at, planned.trace.clone());
                events.schedule(at, Event::Worker(worker, planned));
            }
        };

    // Seed each worker with its first batch.
    for w in 0..cfg.workers {
        start_next(&mut policy, &mut events, w, SimTime::ZERO);
    }

    while let Some((now, event)) = events.pop() {
        match event {
            Event::Worker(w, planned) => match policy.step(w, &mut devices, now) {
                StepOutcome::Running { next } => {
                    events.schedule(next.max(now), Event::Worker(w, planned));
                }
                StepOutcome::Finished => {
                    let cost = policy.take_result(w);
                    sampling_total += cost.sampling_time;
                    breakdown.sampling += cost.sampling_time.saturating_sub(cost.overhead_time);
                    breakdown.other += cost.overhead_time;
                    transfers.ssd_to_host_bytes += cost.ssd_to_host_bytes;
                    transfers.host_to_ssd_bytes += cost.host_to_ssd_bytes;
                    transfers.useful_bytes += planned.subgraph_bytes;
                    if let Some(phases) = &cost.fpga {
                        fpga.get_or_insert_with(FpgaPhases::default)
                            .accumulate(phases);
                    }

                    let mut t = cost.done;
                    if cfg.train {
                        // Feature table lookup (always host DRAM) over
                        // the batch's sorted-distinct nodes.
                        let dram = &mut devices.host_dram;
                        let f_done = dram.random_access(t, planned.distinct, feat_bytes);
                        breakdown.feature_lookup += f_done.saturating_elapsed_since(t);
                        t = f_done;
                        if queue.len() >= cfg.queue_depth {
                            // Worker stalls holding its batch.
                            blocked.push_back((w, (t, planned)));
                        } else {
                            queue.push_back((t, planned));
                            if !gpu_scheduled {
                                gpu_scheduled = true;
                                events.schedule(t, Event::Gpu);
                            }
                            start_next(&mut policy, &mut events, w, t);
                        }
                    } else {
                        makespan_end = makespan_end.max(t);
                        consumed += 1;
                        start_next(&mut policy, &mut events, w, t);
                    }
                }
            },
            Event::Gpu => {
                gpu_scheduled = false;
                let Some(&(ready, head)) = queue.front() else {
                    continue;
                };
                let start = now.max(ready).max(gpu_next_free);
                if start > now {
                    gpu_scheduled = true;
                    events.schedule(start, Event::Gpu);
                    continue;
                }
                queue.pop_front();
                let cost = ctx.config.devices.gpu.batch_cost(&head.dims);
                let transferred = devices.gpu_link.transfer(start, cost.transfer_bytes);
                let (_, end) = devices.gpu.schedule(transferred, cost.compute);
                breakdown.cpu_to_gpu += transferred.saturating_elapsed_since(start);
                breakdown.gnn_train += end.saturating_elapsed_since(transferred);
                gpu_busy += end.saturating_elapsed_since(start);
                gpu_next_free = end;
                consumed += 1;
                makespan_end = makespan_end.max(end);
                // Queue space opened: admit a blocked worker.
                if let Some((bw, payload)) = blocked.pop_front() {
                    queue.push_back(payload);
                    start_next(&mut policy, &mut events, bw, now);
                }
                if !queue.is_empty() {
                    gpu_scheduled = true;
                    events.schedule(gpu_next_free, Event::Gpu);
                }
            }
        }
        if consumed >= cfg.total_batches {
            break;
        }
    }

    let makespan = makespan_end.since_epoch();
    let gpu_idle_frac = if cfg.train && !makespan.is_zero() {
        1.0 - gpu_busy.ratio(makespan)
    } else {
        0.0
    };
    PipelineReport {
        kind: ctx.config.kind,
        makespan,
        batches: consumed,
        breakdown,
        gpu_busy,
        gpu_idle_frac: gpu_idle_frac.clamp(0.0, 1.0),
        transfers,
        avg_sampling_time: sampling_total / consumed as u64,
        sampling_throughput: if makespan.is_zero() {
            0.0
        } else {
            consumed as f64 / makespan.as_secs_f64()
        },
        store_stats: epoch.io.features.total,
        topology_stats: epoch.io.topology.total,
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
        cfg.fanouts = Fanouts::new(vec![1; 3]);
        let report = run_pipeline(&ctx, &cfg);
        assert_eq!(report.batches, 6);
    }

    #[test]
    fn a_window_is_all_the_topology_traffic_of_its_batches() {
        // The real pass touches the topology store only through one
        // group per window of `queue_depth` batches: one degree read and
        // one pick batch per hop, a walk's steps included. Each batch's
        // record is the one it gets sampled alone.
        let ctx = ctx(SystemKind::Dram);
        let mut cfg = small_cfg(false);
        for fanouts in [Fanouts::new(vec![5, 4]), Fanouts::new(vec![1; 3])] {
            cfg.fanouts = fanouts;
            let epoch = sample_epoch(&ctx, &cfg).unwrap();
            let windows = cfg.total_batches.div_ceil(cfg.queue_depth) as u64;
            let hops = cfg.fanouts.hops() as u64;
            assert_eq!(epoch.io.topology.total.gathers, 2 * hops * windows);
            let entry = smartsage_graph::csr::NEIGHBOR_ENTRY_BYTES;
            for (index, planned) in epoch.batches.iter().enumerate() {
                let targets =
                    epoch_targets(ctx.graph().num_nodes(), cfg.batch_size, index, cfg.seed);
                let seed = cfg.seed ^ (index as u64).wrapping_mul(0x9E37);
                let mut rng = smartsage_sim::Xoshiro256::seed_from_u64(seed);
                let mut topo = smartsage_store::CsrView::new(ctx.graph());
                let batch =
                    smartsage_gnn::sampler::sample_on(&mut topo, &targets, &cfg.fanouts, &mut rng)
                        .unwrap();
                assert_eq!(planned.distinct, batch.all_nodes().len() as u64);
                assert_eq!(planned.trace, batch.into_trace(), "batch {index}");
                assert_eq!(planned.trace.num_sampled() * entry, planned.subgraph_bytes);
            }
        }
    }

    #[test]
    fn an_epoch_does_not_depend_on_its_window_size() {
        // Seven batches: no depth from 2 to 5 divides them, so every
        // epoch ends on a short window.
        let ctx = ctx(SystemKind::Dram);
        let tiers = [
            (StoreKind::Mem, TopologyKind::Mem),
            (StoreKind::File, TopologyKind::File),
            (StoreKind::Isp, TopologyKind::Isp),
        ];
        for ((store, topology), shards) in tiers.into_iter().flat_map(|t| [(t, 1), (t, 3)]) {
            let cfg = |queue_depth| PipelineConfig {
                total_batches: 7,
                queue_depth,
                store,
                topology,
                shards,
                ..small_cfg(false)
            };
            let solo = sample_epoch(&ctx, &cfg(1)).unwrap();
            for queue_depth in 1..=5 {
                let cfg = cfg(queue_depth);
                let what = format!("{topology:?} x{shards} depth {queue_depth}");
                let epoch = sample_epoch(&ctx, &cfg).unwrap();
                assert_eq!(epoch.batches, solo.batches, "{what}");
                let windows = cfg.total_batches.div_ceil(queue_depth) as u64;
                let calls = 2 * cfg.fanouts.hops() as u64 * windows;
                assert_eq!(epoch.io.topology.total.gathers, calls, "{what}");
            }
        }
    }

    #[test]
    fn one_epoch_prices_every_system_as_its_own_run_does() {
        // The real pass reads no system: one sampled epoch, priced under
        // each kind, is that kind's own `run_pipeline` field for field
        // (the I/O counters aside — an own run's file tiers may ride
        // caches an earlier run warmed).
        let cfg = PipelineConfig {
            store: StoreKind::File,
            topology: TopologyKind::File,
            ..small_cfg(true)
        };
        let epoch = sample_epoch(&ctx(SystemKind::Dram), &cfg).unwrap();
        assert_eq!(epoch.batches.len(), cfg.total_batches);
        assert_eq!(epoch.io.features.total.gathers, cfg.total_batches as u64);
        let without_io = |mut r: PipelineReport| {
            (r.store_stats, r.topology_stats) = Default::default();
            format!("{r:?}")
        };
        for kind in SystemKind::ALL {
            let ctx = ctx(kind);
            let priced = price(&ctx, &cfg, &epoch);
            assert_eq!(priced.store_stats, epoch.io.features.total, "{kind}");
            assert_eq!(priced.topology_stats, epoch.io.topology.total, "{kind}");
            let own = run_pipeline(&ctx, &cfg);
            assert_eq!(without_io(priced), without_io(own), "{kind}");
        }
    }

    #[test]
    #[should_panic(expected = "work queue")]
    fn the_real_pass_rejects_a_zero_queue_depth_before_it_samples() {
        // A zero depth never closes a window: without the check the
        // pass would sample the whole epoch and gather it as one.
        let cfg = PipelineConfig {
            queue_depth: 0,
            ..small_cfg(true)
        };
        let _ = sample_epoch(&ctx(SystemKind::Dram), &cfg);
    }

    #[test]
    #[should_panic(expected = "work queue")]
    fn zero_queue_depth_is_rejected() {
        // A queue that can never admit would block every worker and
        // drain the event queue into a short, zero-makespan report.
        let cfg = PipelineConfig {
            queue_depth: 0,
            ..small_cfg(true)
        };
        run_pipeline(&ctx(SystemKind::Dram), &cfg);
    }
}
