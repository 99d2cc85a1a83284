//! The three `sweep_*` workloads: `run_pipeline` over file-backed tiers,
//! checked against the mem tiers, plus the traced replay of the same
//! batches through the layers' public functions.

use crate::catalog::{SWEEP_FILE_COLD, SWEEP_FILE_HOT, SWEEP_ISP_SHARDS4};
use crate::data::{self, Fnv, Shape, BATCH_SIZE, CACHE_PAGES, CLASSES};
use crate::probes;
use crate::report::{RunOpts, WorkloadResult};
use crate::stats::Summary;
use crate::trace::{
    self, layer_times, per_item_ms, self_ns, total_ns, Layers, Recorder, Span, TracedFeatures,
    TracedTopology,
};
use smartsage_core::config::{SystemConfig, SystemKind};
use smartsage_core::context::{Devices, RunContext};
use smartsage_core::cost::{make_policy, trace_of_plan, StepOutcome};
use smartsage_core::pipeline::{run_pipeline, PipelineConfig, PipelineReport, SamplerKind};
use smartsage_core::store_metrics::{self, SweepScope};
use smartsage_gnn::sampler::{epoch_targets, plan_sample_on};
use smartsage_gnn::Fanouts;
use smartsage_graph::datasets::MaterializedDataset;
use smartsage_graph::NodeId;
use smartsage_hostio::{EngineStats, ReadEngine};
use smartsage_sim::{SimTime, Xoshiro256};
use smartsage_store::{
    shard_ranges, FeatureStore, FileStoreOptions, FileTopology, InMemoryStore, InMemoryTopology,
    IspGatherOptions, IspGatherStore, IspSampleTopology, ShardedFeatureStore, ShardedTopology,
    SharedCsrFile, SharedFileStore, StoreError, StoreHandle, StoreKind, StoreRegistry, StoreStats,
    TopologyKind, TopologyStore,
};
use std::sync::Arc;
use std::time::Instant;

/// Which file-backed tier pair a sweep runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Host block path: every fetched page crosses the link whole.
    File,
    /// In-storage processing: device-side resolve, packed rows cross.
    Isp,
}

/// One sweep workload's fixed configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec {
    /// Catalogue name.
    pub name: &'static str,
    /// Dataset shape.
    pub shape: Shape,
    /// Design point whose cost policy prices the batches.
    pub system: SystemKind,
    /// Store tiers (feature and topology alike).
    pub tier: Tier,
    /// fig7-style (train) or fig14-style (sampling only).
    pub train: bool,
    /// Modeled SSDs the dataset is partitioned across.
    pub shards: usize,
    /// Batches per timed `run_pipeline` call at full scale.
    pub batches: usize,
    /// Start every repeat with cold caches.
    pub cold: bool,
}

impl SweepSpec {
    /// The spec of a catalogued sweep workload.
    pub fn named(name: &str) -> Option<SweepSpec> {
        let file = |name, shape, batches, cold| SweepSpec {
            name,
            shape,
            system: SystemKind::SsdMmap,
            tier: Tier::File,
            train: true,
            shards: 1,
            batches,
            cold,
        };
        // Calls are kept short (~0.2 s hot, ~0.5 s cold) and repeated
        // many times: the sandbox slows one vCPU or the other by up to
        // 2x for seconds at a stretch, and only a short call has a fair
        // chance of running start to finish between two such spells.
        match name {
            SWEEP_FILE_COLD => Some(file(SWEEP_FILE_COLD, Shape::Wide, 6, true)),
            SWEEP_FILE_HOT => Some(file(SWEEP_FILE_HOT, Shape::Small, 12, false)),
            SWEEP_ISP_SHARDS4 => Some(SweepSpec {
                name: SWEEP_ISP_SHARDS4,
                shape: Shape::Wide,
                system: SystemKind::SmartSageHwSw,
                tier: Tier::Isp,
                train: false,
                shards: 4,
                batches: 6,
                cold: true,
            }),
            _ => None,
        }
    }

    /// The `run_pipeline` configuration (four batches under `--quick`).
    pub fn pipeline_config(&self, seed: u64, quick: bool) -> PipelineConfig {
        let (store, topology) = match self.tier {
            Tier::File => (StoreKind::File, TopologyKind::File),
            Tier::Isp => (StoreKind::Isp, TopologyKind::Isp),
        };
        PipelineConfig {
            workers: 2,
            total_batches: if quick { 4 } else { self.batches },
            batch_size: BATCH_SIZE,
            fanouts: Fanouts::paper_default(),
            queue_depth: 4,
            hidden_dim: 64,
            classes: CLASSES as u64,
            seed,
            sampler: SamplerKind::GraphSage,
            train: self.train,
            store,
            topology,
            readahead: self.tier == Tier::File,
            shards: self.shards,
        }
    }
}

/// The same configuration on the in-memory tiers: the reference every
/// file-backed repeat must agree with.
fn mem_config(cfg: &PipelineConfig) -> PipelineConfig {
    PipelineConfig {
        store: StoreKind::Mem,
        topology: TopologyKind::Mem,
        readahead: false,
        shards: 1,
        ..cfg.clone()
    }
}

/// The pipeline's per-device store options: the fixed page budget is
/// sliced evenly across the shards.
fn file_opts(shards: usize) -> FileStoreOptions {
    FileStoreOptions {
        cache_pages: (CACHE_PAGES / shards.max(1)).max(1),
        ..FileStoreOptions::default()
    }
}

/// A feature store and a topology store of one tier, as the replay
/// takes them.
type Tiers = (Box<dyn FeatureStore>, Box<dyn TopologyStore>);

/// A registry with the dataset's shard files open in it. `run_pipeline`
/// resolves its stores through the same registry (installed as the
/// thread's sweep scope), so it finds these files — and their page
/// caches — already open.
#[derive(Debug)]
pub struct Opened {
    registry: Arc<StoreRegistry>,
    features: Vec<Arc<SharedFileStore>>,
    graphs: Vec<Arc<SharedCsrFile>>,
}

impl Opened {
    /// Opens (publishing first if the files are missing) through a
    /// fresh registry, so the page caches start cold.
    pub fn open(data: &MaterializedDataset, shards: usize) -> Result<Opened, StoreError> {
        let registry = Arc::new(StoreRegistry::new());
        let opts = file_opts(shards);
        let nodes = data.graph.num_nodes();
        let (features, graphs) = if shards > 1 {
            (
                registry.open_feature_shards(&data.features, nodes, shards, opts)?,
                registry.open_graph_shards(&data.graph, shards, opts)?,
            )
        } else {
            (
                vec![registry.open_feature_table(&data.features, nodes, opts)?],
                vec![registry.open_graph_csr(&data.graph, opts)?],
            )
        };
        Ok(Opened {
            registry,
            features,
            graphs,
        })
    }

    fn file_bytes(&self) -> u64 {
        self.features.iter().map(|f| f.file_len()).sum::<u64>()
            + self.graphs.iter().map(|g| g.file_len()).sum::<u64>()
    }

    fn feature_prefetch(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for f in &self.features {
            total.accumulate(&f.prefetch_stats());
        }
        total
    }

    fn graph_prefetch(&self) -> StoreStats {
        let mut total = StoreStats::default();
        for g in &self.graphs {
            total.accumulate(&g.prefetch_stats());
        }
        total
    }

    /// The tier stores over these files, built the way the pipeline
    /// builds its own.
    fn tiers(&self, tier: Tier, nodes: usize) -> Result<Tiers, StoreError> {
        let isp = IspGatherOptions::default;
        let ranges = shard_ranges(nodes, self.graphs.len());
        Ok(match (tier, self.features.len()) {
            (Tier::File, 1) => (
                Box::new(StoreHandle::new(Arc::clone(&self.features[0]))),
                Box::new(FileTopology::new(Arc::clone(&self.graphs[0]))),
            ),
            (Tier::File, _) => (
                Box::new(ShardedFeatureStore::over_files(&self.features)?),
                Box::new(ShardedTopology::over_files(&self.graphs, &ranges)?),
            ),
            (Tier::Isp, 1) => (
                Box::new(IspGatherStore::over(Arc::clone(&self.features[0]), isp())),
                Box::new(IspSampleTopology::over(Arc::clone(&self.graphs[0]), isp())),
            ),
            (Tier::Isp, _) => (
                Box::new(ShardedFeatureStore::over_isp(&self.features, isp())?),
                Box::new(ShardedTopology::over_isp(&self.graphs, &ranges, isp())?),
            ),
        })
    }
}

/// Wall-clock of the three set-up phases.
#[derive(Debug, Clone, Copy)]
struct SetupTimes {
    materialize_s: f64,
    publish_s: f64,
    open_s: f64,
}

impl SetupTimes {
    fn total(&self) -> f64 {
        self.materialize_s + self.publish_s + self.open_s
    }
}

/// Sets the workload up from nothing: generate the dataset, publish it
/// into the (emptied) TMPDIR through one registry, open it through a
/// second — the one the repeats then use.
fn setup(
    spec: &SweepSpec,
    seed: u64,
    quick: bool,
) -> Result<(Arc<RunContext>, Opened, SetupTimes), StoreError> {
    data::remove_published(&std::env::temp_dir());
    let t = Instant::now();
    let dataset = data::materialize(spec.shape, seed, quick);
    let ctx = Arc::new(RunContext::new(dataset, SystemConfig::new(spec.system)));
    let materialize_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    drop(Opened::open(&ctx.data, spec.shards)?);
    let publish_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let opened = Opened::open(&ctx.data, spec.shards)?;
    let open_s = t.elapsed().as_secs_f64();
    Ok((
        ctx,
        opened,
        SetupTimes {
            materialize_s,
            publish_s,
            open_s,
        },
    ))
}

/// One timed `run_pipeline` call with the counter deltas around it.
#[derive(Debug)]
struct Repeat {
    wall_s: f64,
    report: PipelineReport,
    feature_prefetch: StoreStats,
    graph_prefetch: StoreStats,
    engine_jobs: u64,
    engine_bytes: u64,
    engine_after: EngineStats,
    feature_shards: Vec<StoreStats>,
    graph_shards: Vec<StoreStats>,
}

impl Repeat {
    /// Feature + topology bytes over the host link, demand plus
    /// read-ahead, so shifting bytes into read-ahead is not a saving.
    fn link_bytes(&self) -> u64 {
        self.report.store_stats.host_bytes_transferred
            + self.report.topology_stats.host_bytes_transferred
            + self.feature_prefetch.host_bytes_transferred
            + self.graph_prefetch.host_bytes_transferred
    }

    /// Link bytes plus the payload the stores delivered into the
    /// batches' buffers (which a hot cache still has to copy).
    fn moved_bytes(&self) -> u64 {
        self.link_bytes()
            + self.report.store_stats.feature_bytes
            + self.report.topology_stats.feature_bytes
    }
}

fn delta(after: &StoreStats, before: &StoreStats) -> StoreStats {
    StoreStats {
        gathers: after.gathers - before.gathers,
        nodes_gathered: after.nodes_gathered - before.nodes_gathered,
        feature_bytes: after.feature_bytes - before.feature_bytes,
        pages_read: after.pages_read - before.pages_read,
        bytes_read: after.bytes_read - before.bytes_read,
        page_hits: after.page_hits - before.page_hits,
        page_misses: after.page_misses - before.page_misses,
        device_bytes_read: after.device_bytes_read - before.device_bytes_read,
        host_bytes_transferred: after.host_bytes_transferred - before.host_bytes_transferred,
        device_ns: after.device_ns - before.device_ns,
    }
}

fn run_repeat(ctx: &Arc<RunContext>, cfg: &PipelineConfig, opened: &Opened) -> Repeat {
    let scope = SweepScope {
        registry: Arc::clone(&opened.registry),
        ..SweepScope::new()
    };
    let _guard = store_metrics::install_scope(scope.clone());
    let (fp, gp) = (opened.feature_prefetch(), opened.graph_prefetch());
    let engine = ReadEngine::global().stats();
    let start = Instant::now();
    let report = run_pipeline(ctx, cfg);
    let wall_s = start.elapsed().as_secs_f64();
    let engine_after = ReadEngine::global().stats();
    Repeat {
        wall_s,
        report,
        feature_prefetch: delta(&opened.feature_prefetch(), &fp),
        graph_prefetch: delta(&opened.graph_prefetch(), &gp),
        engine_jobs: engine_after.jobs - engine.jobs,
        engine_bytes: engine_after.bytes_read - engine.bytes_read,
        engine_after,
        feature_shards: scope.store_shards_snapshot(),
        graph_shards: scope.topology_shards_snapshot(),
    }
}

/// Compares a repeat's modeled results with the mem-tier reference;
/// returns the mismatches.
fn verify(report: &PipelineReport, reference: &PipelineReport) -> Vec<String> {
    let mut wrong = Vec::new();
    if report.makespan != reference.makespan {
        wrong.push(format!(
            "modeled makespan {:?} differs from the mem tiers' {:?}",
            report.makespan, reference.makespan
        ));
    }
    if report.batches != reference.batches {
        wrong.push(format!(
            "{} batches completed, the mem tiers completed {}",
            report.batches, reference.batches
        ));
    }
    if report.transfers != reference.transfers {
        wrong.push(format!(
            "modeled transfers {:?} differ from the mem tiers' {:?}",
            report.transfers, reference.transfers
        ));
    }
    wrong
}

/// Whether the timed loop that began at `since` and has `done` repeats
/// behind it runs another: while at least half of a repeat of the mean
/// length so far still fits `opts.seconds`, and three repeats at least;
/// one repeat under `--quick`. The work per repeat never changes.
pub fn another_repeat(opts: &RunOpts, since: &Instant, done: usize) -> bool {
    if opts.quick {
        return done < 1;
    }
    let elapsed = since.elapsed().as_secs_f64();
    done < 3 || elapsed + 0.5 * elapsed / done as f64 <= opts.seconds
}

/// The untraced pass: end-to-end metrics over timed `run_pipeline`
/// repeats.
pub fn run_end_to_end(spec: &SweepSpec, opts: &RunOpts) -> Result<WorkloadResult, StoreError> {
    let mut result = WorkloadResult::new(opts);
    let cfg = spec.pipeline_config(opts.seed, opts.quick);
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..data::setups(opts.quick) {
        // Drop the previous set-up first so peak RSS holds one dataset.
        drop(last.take());
        let (ctx, opened, times) = setup(spec, opts.seed, opts.quick)?;
        setup_s.push(times.total());
        last = Some((ctx, opened));
    }
    let (ctx, mut opened) = last.expect("at least one set-up ran");
    let mut reference = run_pipeline(&ctx, &mem_config(&cfg));
    if opts.corrupt_expected {
        reference.transfers.useful_bytes += 1;
    }

    // Discarded warm-up: lazy initialisation (read-engine pool, OS page
    // cache) and, on the hot workload, the page caches themselves.
    run_repeat(&ctx, &cfg, &opened);
    let (mut per_s, mut ms, mut host_mb) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<Repeat> = None;
    let measuring = Instant::now();
    while another_repeat(opts, &measuring, per_s.len()) {
        if spec.cold {
            // A fresh registry over the published files: cold page
            // caches and a cold ISP row scratchpad, outside the timing.
            opened = Opened::open(&ctx.data, spec.shards)?;
        }
        let repeat = run_repeat(&ctx, &cfg, &opened);
        let batches = cfg.total_batches as u64;
        result.attempted += batches;
        let wrong = verify(&repeat.report, &reference);
        if !wrong.is_empty() {
            result.failed += batches;
            for why in wrong {
                result.fail(why);
            }
        }
        eprintln!("sagebench: {} repeat: {:.3} s", spec.name, repeat.wall_s);
        per_s.push(batches as f64 / repeat.wall_s);
        ms.push(repeat.wall_s * 1e3 / batches as f64);
        host_mb.push(repeat.moved_bytes() as f64 / 1e6 / batches as f64);
        first.get_or_insert(repeat);
    }
    result.set("items_per_s", Summary::best_of(&per_s, true));
    result.set("latency_p50_ms", Summary::best_of(&ms, false));
    result.set("host_mb_per_item", Summary::of(&host_mb));
    result.set("setup_s", Summary::of(&setup_s));
    result.set_value("peak_rss_mb", data::peak_rss_mb());

    let first = first.expect("at least one repeat ran");
    let report = &first.report;
    result.set_exact("modeled_makespan_ns", report.makespan.as_nanos());
    result.set_exact("batches", report.batches);
    result.set_exact(
        "modeled_ssd_to_host_bytes",
        report.transfers.ssd_to_host_bytes,
    );
    result.set_exact("modeled_useful_bytes", report.transfers.useful_bytes);
    result.set_exact("feature_rows_gathered", report.store_stats.nodes_gathered);
    result.set_exact("topology_answers", report.topology_stats.nodes_gathered);
    if spec.tier == Tier::Isp {
        // No read-ahead races on this tier: its byte split repeats.
        result.set_exact("host_bytes", first.link_bytes());
        result.set_exact(
            "device_bytes",
            report.store_stats.device_bytes_read + report.topology_stats.device_bytes_read,
        );
    }
    Ok(result)
}

/// What one replay of the workload's batches produced.
#[derive(Debug)]
struct Replay {
    wall_s: f64,
    checksum: u64,
    sampled_nodes: u64,
    rows_gathered: u64,
    cost_steps: u64,
    spans: Vec<Span>,
    /// Distinct nodes of batch 0, kept as probe input.
    first_batch_nodes: Vec<NodeId>,
}

/// Replays the pipeline's batches one at a time through the layers'
/// public functions — the same targets, RNG streams, plans and gathers
/// `run_pipeline` produces — recording a span per layer call.
fn replay(
    ctx: &Arc<RunContext>,
    cfg: &PipelineConfig,
    features: Box<dyn FeatureStore>,
    topology: Box<dyn TopologyStore>,
    rec: &Recorder,
) -> Result<Replay, StoreError> {
    let mut topology = TracedTopology::new(topology, rec.clone());
    let mut features = TracedFeatures::new(features, rec.clone());
    let graph = ctx.graph();
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(ctx, 1);
    let mut now = SimTime::ZERO;
    let mut fnv = Fnv::default();
    let mut out = Replay {
        wall_s: 0.0,
        checksum: 0,
        sampled_nodes: 0,
        rows_gathered: 0,
        cost_steps: 0,
        spans: Vec::new(),
        first_batch_nodes: Vec::new(),
    };
    let start = Instant::now();
    for index in 0..cfg.total_batches {
        rec.set_batch(index as u64);
        rec.span("bench.batch", || -> Result<(), StoreError> {
            let targets = rec.span("gnn.sampler.epoch_targets", || {
                epoch_targets(graph.num_nodes(), cfg.batch_size, index, cfg.seed)
            });
            let mut rng = Xoshiro256::seed_from_u64(cfg.seed ^ (index as u64).wrapping_mul(0x9E37));
            let plan = rec.span("gnn.sampler.plan", || {
                plan_sample_on(&mut topology, &targets, &cfg.fanouts, &mut rng)
            })?;
            rec.span("core.cost.price", || {
                policy.begin(0, now, trace_of_plan(&plan, graph));
                loop {
                    out.cost_steps += 1;
                    match policy.step(0, &mut devices, now) {
                        StepOutcome::Running { next } => now = next.max(now),
                        StepOutcome::Finished => break,
                    }
                }
                now = now.max(policy.take_result(0).done);
            });
            let batch = rec.span("gnn.sampler.resolve", || plan.resolve_on(&mut topology))?;
            let nodes = rec.span("gnn.sampler.all_nodes", || batch.all_nodes());
            let rows = features.gather(&nodes)?;
            rec.span("bench.checksum", || {
                for hop in &batch.hops {
                    for id in &hop.neighbors {
                        fnv.write(&id.raw().to_le_bytes());
                    }
                }
                fnv.write_f32s(&rows);
            });
            out.sampled_nodes += batch.num_sampled();
            out.rows_gathered += nodes.len() as u64;
            if index == 0 {
                out.first_batch_nodes = nodes;
            }
            Ok(())
        })?;
    }
    out.wall_s = start.elapsed().as_secs_f64();
    out.checksum = fnv.finish();
    out.spans = rec.take_spans();
    Ok(out)
}

/// The traced pass: counters around one untraced `run_pipeline`
/// repeat, alternating traced/untraced replays, and the layer probes.
pub fn run_traced(spec: &SweepSpec, opts: &RunOpts) -> Result<WorkloadResult, StoreError> {
    let mut result = WorkloadResult::new(opts);
    let cfg = spec.pipeline_config(opts.seed, opts.quick);
    let batches = cfg.total_batches as f64;
    let (ctx, mut opened, times) = setup(spec, opts.seed, opts.quick)?;
    let nodes = ctx.graph().num_nodes();
    result.set_value("graph.materialize_s", times.materialize_s);
    result.set_value("store.registry.publish_s", times.publish_s);
    result.set_value("store.registry.open_s", times.open_s);
    result.set_value("store.registry.file_mb", opened.file_bytes() as f64 / 1e6);

    // Expected outputs: the same batches through the in-memory tiers.
    let mem_tiers = || -> Tiers {
        (
            Box::new(InMemoryStore::new(ctx.data.features.clone(), nodes)),
            Box::new(InMemoryTopology::from_arc(Arc::clone(&ctx.data.graph))),
        )
    };
    let (f, t) = mem_tiers();
    let expected = replay(&ctx, &cfg, f, t, &Recorder::off())?;
    let expected_checksum = expected.checksum ^ u64::from(opts.corrupt_expected);
    let reference = run_pipeline(&ctx, &mem_config(&cfg));

    // Counters: deltas around one untraced repeat, where they cost
    // nothing. The hot workload warms its caches first.
    if !spec.cold {
        run_repeat(&ctx, &cfg, &opened);
    }
    let counted = run_repeat(&ctx, &cfg, &opened);
    result.attempted = cfg.total_batches as u64;
    for why in verify(&counted.report, &reference) {
        result.failed = result.attempted;
        result.fail(why);
    }
    let pipeline_ms = counted.wall_s * 1e3 / batches;
    let (fs, ts) = (&counted.report.store_stats, &counted.report.topology_stats);
    let (fp, gp) = (&counted.feature_prefetch, &counted.graph_prefetch);
    result.set_value("store.topology.page_hit_rate", ts.hit_rate());
    result.set_value("store.topology.pages_read", ts.pages_read as f64 / batches);
    result.set_value(
        "store.topology.host_bytes",
        (ts.host_bytes_transferred + gp.host_bytes_transferred) as f64 / batches,
    );
    result.set_value(
        "store.topology.device_bytes",
        (ts.device_bytes_read + gp.device_bytes_read) as f64 / batches,
    );
    result.set_value("store.feature.page_hit_rate", fs.hit_rate());
    result.set_value("store.feature.pages_read", fs.pages_read as f64 / batches);
    result.set_value(
        "store.feature.host_bytes",
        (fs.host_bytes_transferred + fp.host_bytes_transferred) as f64 / batches,
    );
    result.set_value(
        "store.feature.device_bytes",
        (fs.device_bytes_read + fp.device_bytes_read) as f64 / batches,
    );
    result.set_value(
        "store.feature.read_amplification",
        (fs.bytes_read + fp.bytes_read) as f64 / fs.feature_bytes.max(1) as f64,
    );
    result.set_value("hostio.engine.jobs", counted.engine_jobs as f64 / batches);
    result.set_value(
        "hostio.engine.mean_read_kib",
        counted.engine_bytes as f64 / 1024.0 / counted.engine_jobs.max(1) as f64,
    );
    result.set_value(
        "hostio.engine.max_inflight",
        counted.engine_after.max_inflight as f64,
    );
    result.set_value(
        "hostio.engine.max_queue_depth",
        counted.engine_after.max_queue_depth as f64,
    );
    let prefetch_bytes = fp.bytes_read + gp.bytes_read;
    result.set_value(
        "hostio.prefetch.warm_pages",
        (fp.pages_read + gp.pages_read) as f64 / batches,
    );
    result.set_value(
        "hostio.prefetch.bytes_share",
        prefetch_bytes as f64 / (prefetch_bytes + fs.bytes_read + ts.bytes_read).max(1) as f64,
    );
    result.set_value(
        "core.cost.modeled_makespan_ms",
        counted.report.makespan.as_millis_f64(),
    );
    result.set_exact("modeled_makespan_ns", counted.report.makespan.as_nanos());
    if spec.tier == Tier::Isp {
        let device_ns = fs.device_ns + ts.device_ns;
        let device = fs.device_bytes_read + ts.device_bytes_read;
        let host = fs.host_bytes_transferred + ts.host_bytes_transferred;
        result.set_value("store.isp.device_ms", device_ns as f64 / 1e6 / batches);
        result.set_value(
            "store.isp.transfer_reduction",
            device.max(1) as f64 / host.max(1) as f64,
        );
        result.set_exact("isp_device_ns", device_ns);
        result.set_exact("isp_device_bytes", device);
        result.set_exact("isp_host_bytes", host);
        let shard_host: Vec<u64> = counted
            .feature_shards
            .iter()
            .zip(&counted.graph_shards)
            .map(|(f, g)| f.host_bytes_transferred + g.host_bytes_transferred)
            .collect();
        let mean = shard_host.iter().sum::<u64>() as f64 / shard_host.len().max(1) as f64;
        let max = shard_host.iter().copied().max().unwrap_or(0) as f64;
        result.set_value("store.sharded.shard_imbalance", max / mean.max(1.0));
        if shard_host.len() != spec.shards || shard_host.contains(&0) {
            result.notes.push(format!(
                "INVALID WORKLOAD: per-shard host bytes {shard_host:?}, want {} non-zero shards",
                spec.shards
            ));
        }
    }

    // Replays, alternating traced and untraced so drift hits both.
    let budget = Instant::now();
    let (mut traced_s, mut untraced_s) = (Vec::new(), Vec::new());
    let mut traced: Vec<Replay> = Vec::new();
    let mut recorded_nodes = Vec::new();
    loop {
        for rec in [Recorder::on(Instant::now()), Recorder::off()] {
            if spec.cold {
                opened = Opened::open(&ctx.data, spec.shards)?;
            }
            let (f, t) = opened.tiers(spec.tier, nodes)?;
            let run = replay(&ctx, &cfg, f, t, &rec)?;
            result.check(run.checksum == expected_checksum, || {
                format!(
                    "checksum {:016x} over sampled ids and gathered rows differs from the mem \
                     tiers' {expected_checksum:016x}",
                    run.checksum
                )
            });
            if run.spans.is_empty() {
                untraced_s.push(run.wall_s);
                recorded_nodes = run.first_batch_nodes;
            } else {
                traced_s.push(run.wall_s);
                traced.push(run);
            }
        }
        if !another_pair_fits(opts, &budget, traced_s.len()) {
            break;
        }
    }
    result.set_value(
        "bench.trace_overhead_pct",
        trace_overhead_pct(&traced_s, &untraced_s),
    );
    result.set_exact("checksum", format!("{:016x}", expected.checksum));
    result.set_exact("sampled_nodes", expected.sampled_nodes);
    result.set_exact("cost_steps", expected.cost_steps);
    result.set_value(
        "gnn.sampler.sampled_nodes",
        expected.sampled_nodes as f64 / batches,
    );
    result.set_value("core.cost.steps", expected.cost_steps as f64 / batches);

    // Span metrics: one value per traced replay, per batch.
    let runs: Vec<Layers> = traced.iter().map(|r| layer_times(&r.spans)).collect();
    result.set(
        "gnn.sampler.plan_self_ms",
        per_item_ms(&runs, batches, |l| {
            self_ns(l, "gnn.sampler.plan") + self_ns(l, "gnn.sampler.epoch_targets")
        }),
    );
    result.set(
        "gnn.sampler.resolve_self_ms",
        per_item_ms(&runs, batches, |l| {
            self_ns(l, "gnn.sampler.resolve") + self_ns(l, "gnn.sampler.all_nodes")
        }),
    );
    for (metric, span) in [
        ("store.topology.degrees_ms", "store.topology.degrees"),
        ("store.topology.picks_ms", "store.topology.picks"),
        ("store.feature.gather_ms", "store.feature.gather"),
        ("core.cost.step_ms", "core.cost.price"),
    ] {
        result.set(metric, per_item_ms(&runs, batches, |l| total_ns(l, span)));
    }
    let calls = |name: &str| runs[0].get(name).map_or(0, |l| l.calls);
    result.set_value(
        "store.topology.calls",
        (calls("store.topology.degrees") + calls("store.topology.picks")) as f64 / batches,
    );
    let gather_ms = result.metrics["store.feature.gather_ms"].value;
    let rows_per_batch = expected.rows_gathered as f64 / batches;
    result.set_value(
        "store.feature.rows_per_s",
        rows_per_batch / (gather_ms / 1e3),
    );
    result.set_value(
        "store.feature.payload_mb_per_s",
        rows_per_batch * ctx.data.features.bytes_per_node() as f64 / 1e6 / (gather_ms / 1e3),
    );
    // What the replayed layers cost in sequence; the rest of the real
    // call is the pipeline's own event loop and locking — or, when
    // read-ahead hides I/O the replay pays in line, a negative number.
    let replayed = per_item_ms(&runs, batches, |l| {
        total_ns(l, "bench.batch") - total_ns(l, "bench.checksum")
    });
    result.set_value("core.pipeline.residual_ms", pipeline_ms - replayed.value);
    result.slowest = trace::slowest(&runs, batches);

    // Workload validity, judged on counts (see README).
    let store_ms = result.metrics["store.topology.degrees_ms"].value
        + result.metrics["store.topology.picks_ms"].value
        + gather_ms;
    let residual = result.metrics["core.pipeline.residual_ms"].value;
    match spec.name {
        SWEEP_FILE_COLD if !opts.quick => {
            if fs.hit_rate() > 0.2 {
                result.notes.push(format!(
                    "INVALID WORKLOAD: feature hit rate {:.3} > 0.2 — the miss path is not \
                     dominant; grow the dataset",
                    fs.hit_rate()
                ));
            }
            if store_ms + residual < 0.6 * pipeline_ms {
                result.notes.push(format!(
                    "INVALID WORKLOAD: store spans + residual {:.1} ms < 60% of the {:.1} ms batch",
                    store_ms + residual,
                    pipeline_ms
                ));
            }
        }
        SWEEP_FILE_HOT if !opts.quick => {
            if fs.hit_rate() < 0.98 || ts.hit_rate() < 0.98 {
                result.notes.push(format!(
                    "INVALID WORKLOAD: hit rates {:.3}/{:.3} < 0.98 — the dataset no longer \
                     fits its caches; shrink it",
                    fs.hit_rate(),
                    ts.hit_rate()
                ));
            }
            if counted.engine_jobs as f64 / batches >= 1.0 {
                result.notes.push(format!(
                    "INVALID WORKLOAD: {} read-engine jobs over {} batches on the hot path",
                    counted.engine_jobs, cfg.total_batches
                ));
            }
        }
        _ => {}
    }

    // Probes on layers the replay cannot time in place.
    if spec.tier == Tier::File {
        probes::cache_probes(&mut result, &ctx.data.features, &recorded_nodes);
    }
    if spec.cold {
        probes::engine_probe(&mut result, opened.features[0].path(), opts.seed);
    }
    if spec.shards > 1 {
        probes::sharded_probe(&mut result, &ctx, &cfg, spec.shards)?;
    }
    if let Some(dir) = &opts.trace_out {
        write_trace(dir, spec.name, &traced[0].spans);
    }
    result.fill_missing_layers();
    Ok(result)
}

/// Whether the traced pass has time for one more traced + untraced
/// pair: pairs so far took `elapsed / pairs` each, and the next must
/// end inside `opts.seconds`.
pub fn another_pair_fits(opts: &RunOpts, budget: &Instant, pairs: usize) -> bool {
    let elapsed = budget.elapsed().as_secs_f64();
    !opts.quick && elapsed + elapsed / pairs.max(1) as f64 <= opts.seconds
}

/// Wall-clock of the traced replay loop over the untraced one, as a
/// percentage on top — each side's least disturbed run.
pub fn trace_overhead_pct(traced_s: &[f64], untraced_s: &[f64]) -> f64 {
    let best = |runs: &[f64]| Summary::best_of(runs, false).value;
    (best(traced_s) / best(untraced_s) - 1.0) * 100.0
}

/// Writes one workload's Chrome trace into `dir`.
pub fn write_trace(dir: &std::path::Path, workload: &str, spans: &[Span]) {
    let path = dir.join(format!("{workload}.trace.json"));
    let written = std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace::chrome_trace_json(workload, spans)));
    match written {
        Ok(()) => eprintln!("sagebench: wrote {}", path.display()),
        Err(e) => eprintln!("sagebench: could not write {}: {e}", path.display()),
    }
}
