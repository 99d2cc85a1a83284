//! The experiment registry and its drivers: one entry per paper artifact.
//!
//! Every table/figure reproduction is registered as an [`Experiment`]
//! descriptor — name, paper artifact, description, and a driver
//! `fn(&ExperimentScale) -> Table` — in the single [`registry`]. All
//! consumers (the `reproduce` CLI, the sweep [`Runner`](crate::runner),
//! benches, tests) enumerate or look up experiments through the
//! registry ([`Experiment::find`]), so experiment lists can never drift
//! apart.
//!
//! A sweep cell is run one way. A driver prepares each dataset once
//! ([`Prepared::of`]) and runs its cells — systems, worker counts,
//! granularities, rates — through [`Prepared::run`] /
//! [`Prepared::run_with`], the only code here or in
//! [`crate::ablations`] that materializes a dataset (Fig 13's
//! custom-budget base graph aside), builds a [`RunContext`] or spells a
//! [`PipelineConfig`]. The per-batch figures (Fig 19, the transfer
//! table) are one-batch cells of the same path
//! ([`Prepared::one_batch`]), so they record their I/O into the sweep's
//! scope like every other run.
//!
//! Drivers return typed [`Table`]s (see [`crate::report`]) whose rows
//! mirror the paper's series and render as text, CSV, or JSON. To sweep
//! several experiments — optionally in parallel — use
//! [`Runner`](crate::runner::Runner) instead of calling drivers
//! directly.

use crate::ablations;
use crate::config::{SystemConfig, SystemKind};
use crate::context::RunContext;
use crate::pipeline::{price, sample_epoch_or_panic, Epoch, PipelineConfig, PipelineReport};
use crate::report::{num, pct, speedup, Cell, Table};
use smartsage_gnn::sampler::{epoch_targets, sample_on};
use smartsage_gnn::Fanouts;
use smartsage_graph::datasets::MaterializedDataset;
use smartsage_graph::degree::DegreeStats;
use smartsage_graph::kronecker::{expand, KroneckerConfig};
use smartsage_graph::{Dataset, DatasetProfile, GraphScale};
use smartsage_memsim::{BandwidthMeter, CacheParams, SetAssocCache};
use smartsage_sim::Xoshiro256;
use smartsage_store::{CsrView, StoreKind, TopologyKind, TracingTopology};
use std::cell::RefCell;
use std::sync::Arc;

/// How big the scaled experiments are. Defaults favour fast iteration;
/// [`ExperimentScale::paper`] uses larger instances for the final
/// reproduction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Edge budget per materialized dataset.
    pub edge_budget: u64,
    /// Targets per mini-batch.
    pub batch_size: usize,
    /// Batches per measurement.
    pub batches: usize,
    /// Producer workers for multi-worker experiments.
    pub workers: usize,
    /// Base seed.
    pub seed: u64,
    /// Feature store pipeline producers gather through. Results are
    /// identical across tiers — only the I/O counters differ (see
    /// [`PipelineConfig::store`]).
    pub store: StoreKind,
    /// Topology store neighbor sampling reads the graph through.
    /// Results are identical across tiers — only the topology I/O
    /// counters differ (see [`PipelineConfig::topology`]).
    pub topology: TopologyKind,
    /// Modeled storage devices the file-backed dataset is partitioned
    /// across (see [`PipelineConfig::shards`]). Results are identical
    /// at every shard count — only the I/O accounting gains a
    /// per-shard breakdown.
    pub shards: usize,
}

impl Default for ExperimentScale {
    fn default() -> Self {
        ExperimentScale {
            edge_budget: 200_000,
            batch_size: 96,
            batches: 24,
            workers: 12,
            seed: 2022,
            store: StoreKind::Mem,
            topology: TopologyKind::Mem,
            shards: 1,
        }
    }
}

impl ExperimentScale {
    /// A minimal scale for unit tests.
    pub fn tiny() -> Self {
        ExperimentScale {
            edge_budget: 40_000,
            batch_size: 24,
            batches: 6,
            workers: 3,
            seed: 7,
            ..ExperimentScale::default()
        }
    }

    /// The heavier configuration used for the recorded reproduction.
    pub fn paper() -> Self {
        ExperimentScale {
            edge_budget: 600_000,
            batch_size: 192,
            batches: 36,
            ..ExperimentScale::default()
        }
    }

    /// Parses a `--scale` flag value: `tiny`, `default` or `paper`.
    pub fn parse(s: &str) -> Option<ExperimentScale> {
        match s {
            "tiny" => Some(ExperimentScale::tiny()),
            "default" => Some(ExperimentScale::default()),
            "paper" => Some(ExperimentScale::paper()),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

/// A registered experiment: one paper table/figure (or ablation) with
/// its driver. All instances live in the static [`registry`].
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// CLI / API name, e.g. `"fig14"`.
    pub name: &'static str,
    /// The paper artifact it reproduces, e.g. `"Fig. 14"`.
    pub artifact: &'static str,
    /// One-line description of what the driver measures.
    pub description: &'static str,
    driver: fn(&ExperimentScale) -> Table,
}

impl Experiment {
    /// Runs the driver at `scale`. Drivers are deterministic in `scale`
    /// and shared-state free, so runs may execute on any thread.
    pub fn run(&self, scale: &ExperimentScale) -> Table {
        (self.driver)(scale)
    }

    /// Looks an experiment up by `name`.
    pub fn find(name: &str) -> Option<&'static Experiment> {
        registry().iter().find(|e| e.name == name)
    }
}

const fn entry(
    name: &'static str,
    artifact: &'static str,
    description: &'static str,
    driver: fn(&ExperimentScale) -> Table,
) -> Experiment {
    Experiment {
        name,
        artifact,
        description,
        driver,
    }
}

static REGISTRY: [Experiment; 18] = [
    entry(
        "table1",
        "Table I",
        "Graph dataset statistics (paper values, by construction)",
        table1_driver,
    ),
    entry(
        "fig5",
        "Fig. 5",
        "LLC miss rate and DRAM bandwidth utilization of in-memory sampling",
        fig5_driver,
    ),
    entry(
        "fig6",
        "Fig. 6",
        "End-to-end per-stage breakdown, DRAM vs SSD(mmap)",
        fig6_driver,
    ),
    entry(
        "fig7",
        "Fig. 7",
        "GPU idle fraction under DRAM vs SSD(mmap)",
        fig7_driver,
    ),
    entry(
        "fig13",
        "Fig. 13",
        "Degree distributions before/after Kronecker fractal expansion",
        fig13_driver,
    ),
    entry(
        "fig14",
        "Fig. 14",
        "Single-worker neighbor-sampling speedup vs SSD(mmap)",
        fig14_driver,
    ),
    entry(
        "fig15",
        "Fig. 15",
        "Effect of I/O command coalescing granularity",
        fig15_driver,
    ),
    entry(
        "fig16",
        "Fig. 16",
        "Multi-worker neighbor-sampling speedup vs SSD(mmap)",
        fig16_driver,
    ),
    entry(
        "fig17",
        "Fig. 17",
        "HW/SW speedup over SW as CPU-side workers scale",
        fig17_driver,
    ),
    entry(
        "fig18",
        "Fig. 18",
        "End-to-end training latency across all six systems",
        fig18_driver,
    ),
    entry(
        "fig19",
        "Fig. 19",
        "FPGA-based CSD latency breakdown vs host paths",
        fig19_driver,
    ),
    entry(
        "fig20",
        "Fig. 20",
        "GraphSAINT random-walk end-to-end speedup",
        fig20_driver,
    ),
    entry(
        "fig21",
        "Fig. 21",
        "Speedup sensitivity to the sampling rate",
        fig21_driver,
    ),
    entry(
        "transfer",
        "Fig. 10 / §I",
        "SSD->CPU data-movement reduction of the ISP per mini-batch",
        transfer_driver,
    ),
    entry(
        "energy",
        "§VI-E",
        "System-level energy per workload, normalized to SSD(mmap)",
        energy_driver,
    ),
    entry(
        "ablation-mechanisms",
        "§VI-A (ablation)",
        "Mechanism-by-mechanism speedup: direct I/O, ISP, coalescing",
        ablations::contribution_breakdown_driver,
    ),
    entry(
        "ablation-csd",
        "§VI-C (ablation)",
        "CSD generations vs the DRAM bound, end-to-end",
        ablations::future_csd_driver,
    ),
    entry(
        "ablation-buffer",
        "§VI-B (ablation)",
        "SSD page-buffer capacity vs ISP sampling throughput",
        ablations::buffer_sensitivity_driver,
    ),
];

/// The full experiment registry in paper order. The single source of
/// truth for what exists and what it is called.
pub fn registry() -> &'static [Experiment] {
    &REGISTRY
}

/// One dataset materialized once for every cell a driver runs on it:
/// the seam between the experiment drivers and the pipeline. A
/// driver's systems, worker counts, granularities and rates all share
/// the one `Arc<CsrGraph>` behind [`Prepared::context`], and every
/// epoch is sampled once: a cell runs the pipeline's real pass only if
/// no earlier cell sampled the same epoch (same fan-outs, batch size
/// and count, seed, queue depth, tiers and shards), then prices the
/// epoch for its own system, worker count and mode. A cell's
/// [`PipelineReport::store_stats`] / `topology_stats` are its epoch's,
/// identical for every cell that shares it, and the sweep's scope
/// counts each epoch's I/O once. Field for field, a cell reports what
/// its own [`run_pipeline`](crate::pipeline::run_pipeline) would, the
/// I/O counters aside.
///
/// (This example is the README's `Prepared` snippet, kept honest by
/// `cargo test`.)
///
/// ```
/// use smartsage_core::config::{SystemConfig, SystemKind};
/// use smartsage_core::experiments::{ExperimentScale, Prepared};
/// use smartsage_graph::{Dataset, GraphScale};
///
/// let scale = ExperimentScale::tiny();
/// let amazon = Prepared::of(Dataset::Amazon, GraphScale::LargeScale, &scale);
/// // One graph, three cells: a design point, a tweaked config, a tweaked pipeline.
/// let mmap = amazon.run(SystemKind::SsdMmap, scale.workers, true);
/// let fine = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(64);
/// let isp = amazon.run(fine, scale.workers, true);
/// let two = amazon.run_with(SystemKind::Dram, 1, false, |cfg| cfg.total_batches = 2);
/// assert!(isp.speedup_over(&mmap) > 1.0);
/// assert_eq!(two.batches, 2);
/// ```
#[derive(Debug, Clone)]
pub struct Prepared {
    data: MaterializedDataset,
    scale: ExperimentScale,
    /// The driver's epochs, each sampled once and priced by every cell
    /// that shares it, keyed by the config of its real pass. A driver's
    /// `Prepared` never leaves its thread, so a plain `RefCell`
    /// suffices, and `--jobs N` stays deterministic.
    epochs: RefCell<Vec<(PipelineConfig, Epoch)>>,
}

impl Prepared {
    /// Materializes `dataset`'s `graph_scale` variant at `scale`'s edge
    /// budget and seed.
    pub fn of(dataset: Dataset, graph_scale: GraphScale, scale: &ExperimentScale) -> Prepared {
        let data =
            DatasetProfile::of(dataset).materialize(graph_scale, scale.edge_budget, scale.seed);
        Prepared {
            data,
            scale: *scale,
            epochs: RefCell::default(),
        }
    }

    /// A run context for the dataset under `config` (a [`SystemKind`]
    /// or a tweaked [`SystemConfig`]): the graph is shared, the locality
    /// rates are `config`'s own.
    pub fn context(&self, config: impl Into<SystemConfig>) -> Arc<RunContext> {
        Arc::new(RunContext::new(self.data.clone(), config.into()))
    }

    /// Runs one cell: the dataset under `config`, end-to-end (`train`)
    /// or data-preparation-only, at the scale's batch shape and tiers.
    pub fn run(
        &self,
        config: impl Into<SystemConfig>,
        workers: usize,
        train: bool,
    ) -> PipelineReport {
        self.run_with(config, workers, train, |_| {})
    }

    /// [`Prepared::run`] with the cell's [`PipelineConfig`] adjusted by
    /// `tweak` first (batch shape, fan-outs).
    pub fn run_with(
        &self,
        config: impl Into<SystemConfig>,
        workers: usize,
        train: bool,
        tweak: impl FnOnce(&mut PipelineConfig),
    ) -> PipelineReport {
        let mut cfg = PipelineConfig {
            workers,
            total_batches: self.scale.batches,
            batch_size: self.scale.batch_size,
            seed: self.scale.seed,
            train,
            store: self.scale.store,
            topology: self.scale.topology,
            shards: self.scale.shards,
            ..PipelineConfig::default()
        };
        tweak(&mut cfg);
        let ctx = self.context(config);
        // Everything but the two fields only the pricing loop reads
        // shapes the real pass.
        let mut key = cfg.clone();
        (key.workers, key.train) = (1, false);
        let mut epochs = self.epochs.borrow_mut();
        let at = epochs.iter().position(|(k, _)| *k == key);
        let at = at.unwrap_or_else(|| {
            epochs.push((key, sample_epoch_or_panic(&ctx, &cfg)));
            epochs.len() - 1
        });
        price(&ctx, &cfg, &epochs[at].1)
    }

    /// One single-worker, data-preparation-only batch (epoch index 0):
    /// the per-batch cells of Fig 19 and the transfer table.
    pub fn one_batch(&self, config: impl Into<SystemConfig>) -> PipelineReport {
        self.run_with(config, 1, false, |cfg| cfg.total_batches = 1)
    }
}

/// Every dataset's large-scale variant, prepared in paper order.
pub(crate) fn large_scale(
    scale: &ExperimentScale,
) -> impl Iterator<Item = (Dataset, Prepared)> + '_ {
    Dataset::ALL
        .into_iter()
        .map(|d| (d, Prepared::of(d, GraphScale::LargeScale, scale)))
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// The "avg (max)" summary cell of a speedup series; `max_label`
/// prefixes the maximum (`"max "` in Figs 6/18, nothing in Figs 14/16).
fn avg_max(v: &[f64], max_label: &str) -> Cell {
    let max = v.iter().cloned().fold(0.0, f64::max);
    let (avg, max) = (speedup(mean(v)).text(), speedup(max).text());
    format!("{avg} ({max_label}{max})").into()
}

/// One row of the stage-breakdown tables (Figs 6 and 18): the report's
/// per-stage fractions, ending in its `latency` cell.
fn stage_row(d: Dataset, r: &PipelineReport, latency: Cell) -> Vec<Cell> {
    let mut row = vec![d.name().into(), r.kind.label().into()];
    row.extend(r.breakdown.fractions().map(pct));
    row.push(latency);
    row
}

/// The closing "average" row of a stage-breakdown table.
fn stage_summary(label: &str, speedups: &[f64]) -> Vec<Cell> {
    let mut row: Vec<Cell> = vec!["average".into(), label.into()];
    row.resize(7, "".into());
    row.push(avg_max(speedups, "max "));
    row
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

fn table1_driver(_scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Table I: Graph dataset information",
        &[
            "Dataset",
            "Nodes (in-mem)",
            "Edges (in-mem)",
            "Size GB",
            "Nodes (large)",
            "Edges (large)",
            "Size GB (large)",
            "Features",
        ],
    );
    for d in Dataset::ALL {
        let p = DatasetProfile::of(d);
        t.row(vec![
            d.name().into(),
            p.in_memory.nodes.into(),
            p.in_memory.edges.into(),
            num(p.in_memory.size_gb, 1),
            p.large_scale.nodes.into(),
            p.large_scale.edges.into(),
            num(p.large_scale.size_gb, 1),
            p.feature_dim.into(),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 5: LLC miss rate + DRAM bandwidth utilization
// ---------------------------------------------------------------------

/// Fig 5 driver. The LLC is scaled by the materialization factor so
/// cache coverage matches full scale.
fn fig5_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 5: LLC miss rate and DRAM BW utilization (in-memory sampling)",
        &["Dataset", "LLC miss rate", "DRAM BW utilization"],
    );
    for d in Dataset::ALL {
        let ctx = Prepared::of(d, GraphScale::InMemory, scale).context(SystemKind::Dram);
        let graph = ctx.graph();
        // Scale the 22 MiB LLC by materialized/full byte ratio.
        let full_bytes = ctx.data.full_stats().edge_array_bytes() as f64;
        let scaled_bytes = graph.edge_array_bytes() as f64;
        let frac = (scaled_bytes / full_bytes).min(1.0);
        let base = CacheParams::default();
        let capacity = ((base.capacity_bytes as f64 * frac) as u64)
            .max(base.line_bytes * base.associativity as u64 * 8);
        let mut cache = SetAssocCache::new(CacheParams {
            capacity_bytes: capacity,
            ..base
        });
        let dram = &ctx.config.devices.dram;
        let mut meter =
            BandwidthMeter::new(scale.workers as u32, dram.bytes_per_sec, dram.line_bytes);
        // Interleave the access traces of `workers` concurrent samplers,
        // each on its own seed, recorded at the store interface: per
        // access, the offset entry, then the entry of each pick.
        let traces: Vec<Vec<(u64, u64)>> = (0..scale.workers)
            .map(|w| {
                let targets = epoch_targets(graph.num_nodes(), scale.batch_size, w, scale.seed);
                let mut rng = Xoshiro256::seed_from_u64(scale.seed ^ w as u64);
                let mut view = CsrView::new(graph);
                let mut tracer = TracingTopology::new(&mut view);
                sample_on(&mut tracer, &targets, &Fanouts::paper_default(), &mut rng)
                    .expect("in-memory topology cannot fail");
                let (sampled, picks) = tracer.into_parts();
                let mut trace = Vec::new();
                for (hop, picks) in sampled.hops.iter().zip(&picks) {
                    let mut picks = picks.iter();
                    for (i, &node) in hop.nodes.iter().enumerate() {
                        let off = ctx.layout.offset_entry_range(node);
                        trace.push((off.offset, off.len));
                        let first = graph.edge_list_start(node);
                        for &(_, pos) in picks.by_ref().take(hop.picks(i)) {
                            let pick = ctx.layout.edge_entries(first + pos, 1);
                            trace.push((pick.offset, pick.len));
                        }
                    }
                }
                trace
            })
            .collect();
        let max_len = traces.iter().map(Vec::len).max().unwrap_or(0);
        for i in 0..max_len {
            for trace in &traces {
                if let Some(&(addr, len)) = trace.get(i) {
                    let missed = cache.access_range(addr, len);
                    let lines = len.div_ceil(base.line_bytes).max(1);
                    meter.record(lines - missed.min(lines), missed);
                }
            }
        }
        t.row(vec![
            d.name().into(),
            pct(cache.miss_rate()),
            pct(meter.utilization()),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 6 + Fig 7: DRAM vs SSD(mmap) end-to-end
// ---------------------------------------------------------------------

fn fig6_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 6: End-to-end breakdown, DRAM vs SSD(mmap)",
        &[
            "Dataset",
            "System",
            "Sampling",
            "Feature",
            "CPU->GPU",
            "Train",
            "Else",
            "Latency (vs DRAM)",
        ],
    );
    let mut slowdowns = Vec::new();
    for (d, p) in large_scale(scale) {
        let dram = p.run(SystemKind::Dram, scale.workers, true);
        let mmap = p.run(SystemKind::SsdMmap, scale.workers, true);
        for r in [&dram, &mmap] {
            t.row(stage_row(d, r, speedup(r.makespan.ratio(dram.makespan))));
        }
        slowdowns.push(mmap.makespan.ratio(dram.makespan));
    }
    t.row(stage_summary("SSD(mmap) slowdown", &slowdowns));
    t
}

fn fig7_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 7: GPU idle time (%)",
        &["Dataset", "DRAM", "SSD (mmap)"],
    );
    for (d, p) in large_scale(scale) {
        let dram = p.run(SystemKind::Dram, scale.workers, true);
        let mmap = p.run(SystemKind::SsdMmap, scale.workers, true);
        t.row(vec![
            d.name().into(),
            pct(dram.gpu_idle_frac),
            pct(mmap.gpu_idle_frac),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 13: Kronecker degree distributions
// ---------------------------------------------------------------------

fn fig13_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 13: Degree distribution, in-memory vs Kronecker-expanded",
        &[
            "Dataset",
            "Degree bucket <=",
            "Nodes (in-memory)",
            "Nodes (expanded)",
        ],
    );
    for d in [Dataset::Reddit, Dataset::ProteinPi] {
        let profile = DatasetProfile::of(d);
        // A degree *distribution* needs enough nodes to show its shape:
        // size the budget so the scaled instance has >= 2000 nodes at the
        // profile's true average degree.
        let budget = (2_000.0 * profile.in_memory.avg_degree()) as u64;
        let base = profile
            .materialize(
                GraphScale::InMemory,
                budget.max(scale.edge_budget),
                scale.seed,
            )
            .graph;
        // Seed graph sized to reproduce the profile's densification.
        let densify = profile.densification().max(1.1);
        let seed_nodes = 4;
        let seed_deg = densify.min(4.0);
        let seed = smartsage_graph::generate::generate_seed_graph(seed_nodes, seed_deg, scale.seed);
        let keep = (2.0 * base.num_edges() as f64
            / (base.num_edges() as f64 * seed.num_edges() as f64))
            .min(1.0);
        let expanded = expand(
            &base,
            &seed,
            &KroneckerConfig {
                edge_keep_probability: keep,
                seed: scale.seed,
            },
        );
        let s_base = DegreeStats::from_graph(&base);
        let s_exp = DegreeStats::from_graph(&expanded);
        let buckets = s_base
            .histogram
            .num_buckets()
            .max(s_exp.histogram.num_buckets());
        for b in 0..buckets {
            let c0 = s_base.histogram.count_in_bucket(b);
            let c1 = s_exp.histogram.count_in_bucket(b);
            if c0 == 0 && c1 == 0 {
                continue;
            }
            t.row(vec![
                d.name().into(),
                smartsage_sim::Histogram::bucket_hi(b).into(),
                c0.into(),
                c1.into(),
            ]);
        }
        t.row(vec![
            d.name().into(),
            "alpha (in-mem / expanded)".into(),
            num(s_base.power_law_alpha, 2),
            num(s_exp.power_law_alpha, 2),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 14 / 16: sampling speedups (single / multi worker)
// ---------------------------------------------------------------------

fn sampling_speedups(scale: &ExperimentScale, workers: usize, title: &str) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Dataset",
            "SSD (mmap)",
            "SmartSAGE (SW)",
            "SmartSAGE (HW/SW)",
        ],
    );
    let mut sw_all = Vec::new();
    let mut hw_all = Vec::new();
    for (d, p) in large_scale(scale) {
        let mmap = p.run(SystemKind::SsdMmap, workers, false);
        let sw = p.run(SystemKind::SmartSageSw, workers, false);
        let hw = p.run(SystemKind::SmartSageHwSw, workers, false);
        let s_sw = sw.sampling_throughput / mmap.sampling_throughput;
        let s_hw = hw.sampling_throughput / mmap.sampling_throughput;
        sw_all.push(s_sw);
        hw_all.push(s_hw);
        t.row(vec![
            d.name().into(),
            speedup(1.0),
            speedup(s_sw),
            speedup(s_hw),
        ]);
    }
    t.row(vec![
        "average (max)".into(),
        speedup(1.0),
        avg_max(&sw_all, ""),
        avg_max(&hw_all, ""),
    ]);
    t
}

fn fig14_driver(scale: &ExperimentScale) -> Table {
    sampling_speedups(
        scale,
        1,
        "Fig 14: Neighbor sampling speedup vs SSD(mmap), single worker",
    )
}

fn fig16_driver(scale: &ExperimentScale) -> Table {
    sampling_speedups(
        scale,
        scale.workers,
        "Fig 16: Neighbor sampling speedup vs SSD(mmap), 12 workers",
    )
}

// ---------------------------------------------------------------------
// Fig 15: coalescing granularity sweep
// ---------------------------------------------------------------------

/// Fig 15 driver.
///
/// This sweep uses the paper's mini-batch size of 1024 regardless of the
/// experiment scale — the x-axis *is* "targets per NVMe command", so the
/// batch must be the paper's for the granularities to mean the same
/// thing.
fn fig15_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 15: Effect of I/O command coalescing granularity",
        &["Dataset", "Granularity", "Performance (norm.)"],
    );
    let grans: [u32; 6] = [1024, 512, 256, 64, 16, 1];
    for (d, p) in large_scale(scale) {
        let mut base = None;
        for &g in &grans {
            let cfg = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(g);
            let report = p.run_with(cfg, 1, false, |pc| {
                pc.batch_size = 1024;
                pc.total_batches = 2;
            });
            let perf = report.sampling_throughput;
            let norm = perf / *base.get_or_insert(perf);
            t.row(vec![d.name().into(), g.into(), num(norm, 3)]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Fig 17: HW/SW-over-SW speedup vs worker count
// ---------------------------------------------------------------------

fn fig17_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 17: HW/SW speedup over SW vs worker count",
        &["Dataset", "1", "2", "4", "8", "12"],
    );
    for (d, p) in large_scale(scale) {
        let mut cells = vec![d.name().into()];
        for workers in [1usize, 2, 4, 8, 12] {
            let sw = p.run(SystemKind::SmartSageSw, workers, false);
            let hw = p.run(SystemKind::SmartSageHwSw, workers, false);
            cells.push(speedup(hw.sampling_throughput / sw.sampling_throughput));
        }
        t.row(cells);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 18: end-to-end latency, all systems
// ---------------------------------------------------------------------

fn fig18_driver(scale: &ExperimentScale) -> Table {
    let systems = [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::SmartSageOracle,
        SystemKind::Pmem,
        SystemKind::Dram,
    ];
    let mut t = Table::new(
        "Fig 18: End-to-end GNN training latency (normalized to SSD(mmap))",
        &[
            "Dataset", "System", "Sampling", "Feature", "CPU->GPU", "Train", "Else", "Latency",
        ],
    );
    let mut hw_speedups = Vec::new();
    for (d, p) in large_scale(scale) {
        let reports = systems.map(|k| p.run(k, scale.workers, true));
        let mmap_time = reports[0].makespan;
        for r in &reports {
            t.row(stage_row(d, r, num(r.makespan.ratio(mmap_time), 3)));
        }
        hw_speedups.push(mmap_time.ratio(reports[2].makespan));
    }
    t.row(stage_summary("HW/SW speedup vs mmap", &hw_speedups));
    t
}

// ---------------------------------------------------------------------
// Fig 19: FPGA-based CSD comparison
// ---------------------------------------------------------------------

fn fig19_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 19: FPGA-based CSD vs host paths (normalized latency)",
        &[
            "Dataset",
            "System",
            "SSD->CPU",
            "SSD->FPGA",
            "FPGA->CPU",
            "Sampling(FPGA)",
            "Sampling(host)",
            "Total",
        ],
    );
    for (d, p) in large_scale(scale) {
        let mmap = p.one_batch(SystemKind::SsdMmap);
        let sw = p.one_batch(SystemKind::SmartSageSw);
        let fpga = p.one_batch(SystemKind::FpgaCsd);
        let base = mmap.avg_sampling_time;
        for r in [&mmap, &sw] {
            let compute = r
                .avg_sampling_time
                .saturating_sub(r.breakdown.other)
                .mul_f64(0.05);
            let io = r.avg_sampling_time.saturating_sub(compute);
            t.row(vec![
                d.name().into(),
                r.kind.label().into(),
                num(io.ratio(base), 3),
                "-".into(),
                "-".into(),
                "-".into(),
                num(compute.ratio(base), 3),
                num(r.avg_sampling_time.ratio(base), 3),
            ]);
        }
        let ph = fpga.fpga.expect("fpga phases");
        t.row(vec![
            d.name().into(),
            fpga.kind.label().into(),
            "-".into(),
            num(ph.ssd_to_fpga.ratio(base), 3),
            num(ph.fpga_to_cpu.ratio(base), 3),
            num(ph.sampling.ratio(base), 3),
            "-".into(),
            num(fpga.avg_sampling_time.ratio(base), 3),
        ]);
    }
    t
}

// ---------------------------------------------------------------------
// Fig 20: GraphSAINT
// ---------------------------------------------------------------------

fn fig20_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 20: GraphSAINT end-to-end speedup vs SSD(mmap)",
        &[
            "Dataset",
            "SSD (mmap)",
            "SmartSAGE (SW)",
            "SmartSAGE (HW/SW)",
        ],
    );
    let mut hw_all = Vec::new();
    for (d, p) in large_scale(scale) {
        // Four-step random walks: one neighbor per step.
        let run = |k: SystemKind| {
            p.run_with(k, scale.workers, true, |cfg| {
                cfg.fanouts = Fanouts::new(vec![1; 4])
            })
        };
        let mmap = run(SystemKind::SsdMmap);
        let sw = run(SystemKind::SmartSageSw);
        let hw = run(SystemKind::SmartSageHwSw);
        let s_hw = mmap.makespan.ratio(hw.makespan);
        hw_all.push(s_hw);
        t.row(vec![
            d.name().into(),
            speedup(1.0),
            speedup(mmap.makespan.ratio(sw.makespan)),
            speedup(s_hw),
        ]);
    }
    let avg = speedup(mean(&hw_all));
    t.row(vec!["average".into(), "".into(), "".into(), avg]);
    t
}

// ---------------------------------------------------------------------
// Fig 21: sampling-rate sensitivity
// ---------------------------------------------------------------------

fn fig21_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 21: Sensitivity to sampling rate (speedup vs SSD(mmap))",
        &["Dataset", "Rate", "SmartSAGE (SW)", "SmartSAGE (HW/SW)"],
    );
    for (d, p) in large_scale(scale) {
        for (label, factor) in [("0.5x", 0.5), ("1.0x", 1.0), ("2.0x", 2.0)] {
            let run = |k: SystemKind| {
                p.run_with(k, scale.workers, true, |cfg| {
                    cfg.fanouts = cfg.fanouts.scaled(factor)
                })
            };
            let mmap = run(SystemKind::SsdMmap);
            let sw = run(SystemKind::SmartSageSw);
            let hw = run(SystemKind::SmartSageHwSw);
            t.row(vec![
                d.name().into(),
                label.into(),
                speedup(mmap.makespan.ratio(sw.makespan)),
                speedup(mmap.makespan.ratio(hw.makespan)),
            ]);
        }
    }
    t
}

// ---------------------------------------------------------------------
// Transfer reduction (Fig 10 / §I's ~20x claim)
// ---------------------------------------------------------------------

fn transfer_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Fig 10 / SSD->CPU transfer reduction per mini-batch",
        &[
            "Dataset",
            "mmap bytes/batch",
            "ISP bytes/batch",
            "Reduction",
        ],
    );
    let mut all = Vec::new();
    for (d, p) in large_scale(scale) {
        let moved = |k: SystemKind| p.one_batch(k).transfers.ssd_to_host_bytes;
        let (mmap, isp) = (moved(SystemKind::SsdMmap), moved(SystemKind::SmartSageHwSw));
        let reduction = mmap as f64 / isp.max(1) as f64;
        all.push(reduction);
        t.row(vec![
            d.name().into(),
            mmap.into(),
            isp.into(),
            speedup(reduction),
        ]);
    }
    let avg = speedup(mean(&all));
    t.row(vec!["average".into(), "".into(), "".into(), avg]);
    t
}

// ---------------------------------------------------------------------
// §VI-E: power and energy
// ---------------------------------------------------------------------

/// §VI-E driver. Firmware ISP adds no hardware; the oracle CSD adds
/// 2-6 W of dedicated cores.
fn energy_driver(scale: &ExperimentScale) -> Table {
    // System-level power envelope (W): CPU + GPU + DRAM + SSD.
    let base_watts = 150.0 + 70.0 + 30.0 + 10.0;
    let extra = |k: SystemKind| match k {
        SystemKind::SmartSageOracle => 4.0, // dedicated A53 complex
        _ => 0.0,
    };
    let systems = [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::SmartSageOracle,
        SystemKind::Dram,
    ];
    let mut t = Table::new(
        "Sec VI-E: Energy per workload (normalized to SSD(mmap))",
        &["Dataset", "System", "Power (W)", "Energy (norm.)"],
    );
    for (d, p) in large_scale(scale) {
        let reports = systems.map(|k| p.run(k, scale.workers, true));
        let base_energy = base_watts * reports[0].makespan.as_secs_f64();
        for r in &reports {
            let watts = base_watts + extra(r.kind);
            let e = watts * r.makespan.as_secs_f64();
            t.row(vec![
                d.name().into(),
                r.kind.label().into(),
                num(watts, 0),
                num(e / base_energy, 3),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the registered experiment `name`.
    fn by_name(name: &str, scale: &ExperimentScale) -> Table {
        Experiment::find(name)
            .unwrap_or_else(|| panic!("experiment '{name}' is registered"))
            .run(scale)
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "duplicate registry names");
        assert_eq!(names.len(), 18);
        for name in names {
            assert!(Experiment::find(name).is_some(), "{name} not findable");
        }
        assert!(Experiment::find("nope").is_none());
    }

    #[test]
    fn scale_flags_parse() {
        assert_eq!(
            ExperimentScale::parse("tiny"),
            Some(ExperimentScale::tiny())
        );
        assert_eq!(
            ExperimentScale::parse("default"),
            Some(ExperimentScale::default())
        );
        assert_eq!(
            ExperimentScale::parse("paper"),
            Some(ExperimentScale::paper())
        );
        assert_eq!(ExperimentScale::parse("bogus"), None);
    }

    #[test]
    fn one_prepared_dataset_serves_every_cell_of_a_driver() {
        let scale = ExperimentScale::tiny();
        let p = Prepared::of(Dataset::Amazon, GraphScale::LargeScale, &scale);
        // Contexts share the graph; config and locality are their own.
        let mut unbuffered = SystemConfig::new(SystemKind::SmartSageHwSw);
        unbuffered.devices.ssd.buffer_pages = 0;
        let (a, b) = (p.context(SystemKind::SsdMmap), p.context(unbuffered));
        assert!(Arc::ptr_eq(&a.data.graph, &b.data.graph));
        assert_ne!(a.config, b.config);
        assert_ne!(a.locality, b.locality);
        // A freshly prepared dataset runs the same cell, field for field.
        let cell = Prepared::of(Dataset::Amazon, GraphScale::LargeScale, &scale).run(
            SystemKind::SmartSageSw,
            2,
            true,
        );
        let seam = p.run(SystemKind::SmartSageSw, 2, true);
        assert_eq!(format!("{cell:?}"), format!("{seam:?}"));
        assert_eq!(seam.batches, scale.batches);
        assert!(seam.fpga.is_none(), "only the FPGA policy reports phases");
        // A `run_with` tweak reaches the run (Fig 15's cell).
        let fine = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(64);
        let fig15 = p.run_with(fine, 1, false, |pc| {
            pc.batch_size = 1024;
            pc.total_batches = 2;
        });
        assert_eq!(fig15.batches, 2);
        // The one-batch cell is one batch, and the FPGA's carries its phases.
        let fpga = p.one_batch(SystemKind::FpgaCsd);
        assert_eq!(fpga.batches, 1);
        assert_eq!(fpga.store_stats.gathers, 1);
        assert!(fpga.fpga.expect("fpga phases").ssd_to_fpga_bytes > 0);
    }

    #[test]
    fn a_prepared_cell_run_twice_reports_the_same() {
        let scale = ExperimentScale {
            store: StoreKind::File,
            topology: TopologyKind::File,
            ..ExperimentScale::tiny()
        };
        let p = Prepared::of(Dataset::Amazon, GraphScale::LargeScale, &scale);
        let first = p.run(SystemKind::SmartSageHwSw, 2, true);
        let again = p.run(SystemKind::SmartSageHwSw, 2, true);
        assert_eq!(format!("{first:?}"), format!("{again:?}"));
        assert!(first.store_stats.bytes_read > 0);
        // Other systems, worker counts and modes price the same epoch;
        // another batch count samples its own.
        p.run(SystemKind::Dram, 1, false);
        assert_eq!(p.epochs.borrow().len(), 1);
        p.one_batch(SystemKind::Dram);
        assert_eq!(p.epochs.borrow().len(), 2);
    }

    #[test]
    fn table1_has_five_rows_with_paper_values() {
        let t = by_name("table1", &ExperimentScale::default());
        assert_eq!(t.len(), 5);
        let s = t.to_string();
        assert!(s.contains("Reddit"));
        assert!(s.contains("53900000000"));
    }

    #[test]
    fn fig5_produces_rates_in_range() {
        let t = by_name("fig5", &ExperimentScale::tiny());
        assert_eq!(t.len(), 5);
        for row in t.rows() {
            for cell in &row[1..] {
                let v = cell.value().expect("rate cell");
                assert!((0.0..=1.0).contains(&v), "rate {v}");
            }
        }
    }

    #[test]
    fn fig13_shows_expansion_growth() {
        let t = by_name("fig13", &ExperimentScale::tiny());
        assert!(t.len() > 4);
    }

    #[test]
    fn fig14_orders_systems() {
        let t = by_name("fig14", &ExperimentScale::tiny());
        // Last row is the average; check each dataset row's ordering:
        for row in &t.rows()[..t.len() - 1] {
            let sw = row[2].value().expect("sw");
            let hw = row[3].value().expect("hw");
            assert!(sw > 1.0, "SW should beat mmap: {sw}");
            assert!(hw > sw, "HW/SW {hw} should beat SW {sw}");
        }
    }

    #[test]
    fn transfer_reduction_is_large() {
        let t = by_name("transfer", &ExperimentScale::tiny());
        let avg_row = t.rows().last().expect("avg row");
        let avg = avg_row[3].value().expect("avg");
        assert!(avg > 5.0, "transfer reduction {avg} too small");
    }
}
