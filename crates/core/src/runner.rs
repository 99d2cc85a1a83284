//! Sweep execution: run a selection of registered experiments, serially
//! or across a thread pool, with typed outcomes.
//!
//! The paper's evaluation is a grid sweep (systems × datasets ×
//! scales); [`Runner`] is the API that executes it. Configure a run
//! with [`RunnerBuilder`] — scale, experiment selection, parallelism,
//! an optional completion observer — then call [`Runner::run`]:
//!
//! ```
//! use smartsage_core::experiments::ExperimentScale;
//! use smartsage_core::runner::Runner;
//!
//! let outcomes = Runner::builder()
//!     .scale(ExperimentScale::tiny())
//!     .filter(|e| e.name == "table1")
//!     .jobs(2)
//!     .build()
//!     .run();
//! assert_eq!(outcomes.len(), 1);
//! assert!(!outcomes[0].table.is_empty());
//! ```
//!
//! Results always come back in *selection order*, independent of which
//! worker thread finished first, so a parallel sweep's rendered output
//! is byte-identical to a serial one. Experiment drivers are pure
//! functions of the [`ExperimentScale`] (each run builds its own
//! [`RunContext`](crate::context::RunContext)), which is what makes the
//! fan-out safe.

use crate::experiments::{registry, Experiment, ExperimentScale};
use crate::report::{json_string, num, pct, speedup, Table};
use crate::store_metrics::{self, SweepScope};
use smartsage_hostio::LockExt;
use smartsage_store::{StoreKind, StoreOccupancy, StoreStats, TopologyKind};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The result of one experiment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The registry entry that ran.
    pub experiment: &'static Experiment,
    /// Position in the runner's selection — lets observers reassemble
    /// selection order from completion-order callbacks.
    pub index: usize,
    /// The produced table.
    pub table: Table,
    /// Wall-clock duration of the driver call.
    pub wall: Duration,
}

/// Everything a completed sweep produced: the per-experiment outcomes
/// plus the sweep's own, exactly scoped feature-store accounting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-experiment results, in selection order.
    pub outcomes: Vec<RunOutcome>,
    /// Exact feature-store counters of *this sweep only*: the sum of
    /// every run's scoped [`StoreStats`], accumulated through the
    /// sweep's private scope — a second sweep in the same process
    /// reports exactly what its solo run would.
    pub store_stats: StoreStats,
    /// Exact graph-topology store counters of *this sweep only*, with
    /// the same scoping guarantees as [`SweepOutcome::store_stats`]:
    /// what neighbor sampling read (offset pairs, edge entries), how
    /// much of it hit the shared page cache, and — on the isp tier —
    /// the device-vs-host byte split of the in-storage resolution.
    pub topology_stats: StoreStats,
    /// Final page-cache occupancy of each store the sweep's private
    /// registry opened — feature files and graph topology files alike
    /// (empty unless a file-backed tier ran).
    pub stores: Vec<StoreOccupancy>,
    /// Per-shard feature-store breakdown of a sharded sweep
    /// (`--shards N`, N > 1): entry `i` sums shard `i`'s counters over
    /// every run. The I/O-level fields (and
    /// `nodes_gathered`/`feature_bytes`) sum exactly to
    /// [`SweepOutcome::store_stats`]; per-shard `gathers` counts the
    /// sub-calls routed to that device. Empty at one device, where
    /// it would only repeat the totals.
    pub store_shards: Vec<StoreStats>,
    /// Per-shard graph-topology breakdown, mirroring
    /// [`SweepOutcome::store_shards`] against
    /// [`SweepOutcome::topology_stats`].
    pub topology_shards: Vec<StoreStats>,
}

impl SweepOutcome {
    /// Renders the sweep's scoped store accounting as a typed
    /// [`Table`]: one row of exact totals — gathers, payload bytes,
    /// the device-vs-host byte split, page-cache hit rate, modeled
    /// device time — ending in a [`Cell::Speedup`]-typed
    /// transfer-reduction column
    /// ([`StoreStats::transfer_reduction`]). `kind` labels which tier
    /// produced the numbers; the table renders through the usual
    /// text/CSV/JSON surfaces like any experiment table.
    ///
    /// [`Cell::Speedup`]: crate::report::Cell
    pub fn store_table(&self, kind: StoreKind) -> Table {
        io_table("Sweep feature-store I/O", kind.label(), &self.store_stats)
    }

    /// Renders the sweep's scoped graph-topology accounting as a typed
    /// [`Table`] — the same columns as [`SweepOutcome::store_table`],
    /// measured on the edge-list half of the dataset (`feature bytes`
    /// here is delivered topology payload: degrees + sampled ids at
    /// 8 bytes each).
    pub fn topology_table(&self, kind: TopologyKind) -> Table {
        io_table(
            "Sweep graph-topology I/O",
            kind.label(),
            &self.topology_stats,
        )
    }
}

/// One-row exact-I/O table shared by the feature-store and topology
/// reports, ending in a [`Cell::Speedup`](crate::report::Cell)-typed
/// transfer-reduction column ([`StoreStats::transfer_reduction`]).
fn io_table(title: &str, label: &str, s: &StoreStats) -> Table {
    let mut t = Table::new(
        title,
        &[
            "Store",
            "Gathers",
            "Feature bytes",
            "Device bytes read",
            "Host bytes transferred",
            "Page hit rate",
            "Device time (ms)",
            "Transfer reduction",
        ],
    );
    t.row(vec![
        label.into(),
        s.gathers.into(),
        s.feature_bytes.into(),
        s.device_bytes_read.into(),
        s.host_bytes_transferred.into(),
        pct(s.hit_rate()),
        num(s.device_ns as f64 / 1e6, 3),
        speedup(s.transfer_reduction()),
    ]);
    t
}

type Observer = Box<dyn Fn(&RunOutcome) + Send + Sync>;

/// Builder-style configuration for a [`Runner`].
pub struct RunnerBuilder {
    scale: ExperimentScale,
    selection: Vec<&'static Experiment>,
    jobs: usize,
    observer: Option<Observer>,
}

impl RunnerBuilder {
    /// Starts from the full registry, default scale, serial execution.
    pub fn new() -> RunnerBuilder {
        RunnerBuilder {
            scale: ExperimentScale::default(),
            selection: registry().iter().collect(),
            jobs: 1,
            observer: None,
        }
    }

    /// Sets the experiment scale — dataset size, batch shape, and the
    /// store tiers and device count every run reads through
    /// ([`ExperimentScale::store`], [`ExperimentScale::topology`],
    /// [`ExperimentScale::shards`]). Tables are unchanged by the tier
    /// choice (the store determinism contract); a file-backed tier
    /// fills in [`SweepOutcome::store_stats`] and friends.
    pub fn scale(mut self, scale: ExperimentScale) -> RunnerBuilder {
        self.scale = scale;
        self
    }

    /// Replaces the selection with an explicit, ordered list.
    pub fn experiments(mut self, selection: Vec<&'static Experiment>) -> RunnerBuilder {
        self.selection = selection;
        self
    }

    /// Retains only experiments matching `pred` (keeps current order).
    pub fn filter(mut self, pred: impl Fn(&Experiment) -> bool) -> RunnerBuilder {
        self.selection.retain(|e| pred(e));
        self
    }

    /// Worker threads for the sweep. `1` runs serially on the calling
    /// thread; `0` means one worker per available CPU.
    pub fn jobs(mut self, jobs: usize) -> RunnerBuilder {
        self.jobs = jobs;
        self
    }

    /// Observer invoked as each experiment finishes (in completion
    /// order, possibly from a worker thread). Useful for progress
    /// reporting; the ordered results still come from [`Runner::run`].
    pub fn on_result(mut self, f: impl Fn(&RunOutcome) + Send + Sync + 'static) -> RunnerBuilder {
        self.observer = Some(Box::new(f));
        self
    }

    /// Finalizes the configuration.
    pub fn build(self) -> Runner {
        let jobs = if self.jobs == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            self.jobs
        };
        Runner {
            scale: self.scale,
            selection: self.selection,
            jobs,
            observer: self.observer,
        }
    }
}

impl Default for RunnerBuilder {
    fn default() -> Self {
        RunnerBuilder::new()
    }
}

/// Executes a configured selection of experiments.
pub struct Runner {
    scale: ExperimentScale,
    selection: Vec<&'static Experiment>,
    jobs: usize,
    observer: Option<Observer>,
}

impl Runner {
    /// Starts building a runner.
    pub fn builder() -> RunnerBuilder {
        RunnerBuilder::new()
    }

    /// The experiments this runner will execute, in order.
    pub fn experiments(&self) -> &[&'static Experiment] {
        &self.selection
    }

    /// The configured scale.
    pub fn scale(&self) -> &ExperimentScale {
        &self.scale
    }

    /// The effective worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs the selection and returns outcomes in selection order.
    /// Shorthand for [`Runner::sweep`] when the sweep-level store
    /// accounting is not needed.
    pub fn run(&self) -> Vec<RunOutcome> {
        self.sweep().outcomes
    }

    /// Runs the selection and returns outcomes in selection order,
    /// together with the sweep's exactly scoped feature-store
    /// accounting.
    ///
    /// Each sweep owns a **private**
    /// [`StoreRegistry`](smartsage_store::StoreRegistry) and fresh
    /// [`StoreStats`] accumulators; all are installed as a
    /// [`SweepScope`] on every worker thread for the duration of its
    /// runs. Consequences, by design:
    ///
    /// * all of a sweep's jobs share one open store and one sharded
    ///   page cache per content key (`--jobs 4` keeps a single
    ///   registry entry);
    /// * the sweep's report is the exact sum of its own runs' scoped
    ///   counters — never contaminated by earlier sweeps, concurrent
    ///   sweeps, or ad-hoc runs in the same process;
    /// * every sweep starts with a cold cache, so back-to-back sweeps
    ///   of the same selection report identical stats.
    pub fn sweep(&self) -> SweepOutcome {
        let scope = SweepScope::new();
        let total = self.selection.len();
        let workers = self.jobs.clamp(1, total.max(1));
        let outcomes = if workers <= 1 {
            let _guard = store_metrics::install_scope(scope.clone());
            self.selection
                .iter()
                .enumerate()
                .map(|(i, exp)| self.run_one(i, exp))
                .collect()
        } else {
            // Workers claim the next unrun experiment as they free up
            // (driver costs differ tenfold) and hand what they ran back
            // through their join handles; a panicking driver resurfaces
            // here, at the join.
            let next = AtomicUsize::new(0);
            let mut outcomes: Vec<RunOutcome> = std::thread::scope(|thread_scope| {
                let handles: Vec<_> = (0..workers)
                    .map(|_| {
                        thread_scope.spawn(|| {
                            let _guard = store_metrics::install_scope(scope.clone());
                            let mut ran = Vec::new();
                            loop {
                                let i = next.fetch_add(1, Ordering::Relaxed);
                                if i >= total {
                                    break ran;
                                }
                                ran.push(self.run_one(i, self.selection[i]));
                            }
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            });
            outcomes.sort_by_key(|o| o.index);
            outcomes
        };
        let store_stats = *scope.stats.safe_lock();
        let topology_stats = *scope.topology.safe_lock();
        SweepOutcome {
            outcomes,
            store_stats,
            topology_stats,
            stores: scope.registry.occupancy(),
            store_shards: scope.store_shards_snapshot(),
            topology_shards: scope.topology_shards_snapshot(),
        }
    }

    fn run_one(&self, index: usize, exp: &'static Experiment) -> RunOutcome {
        let started = Instant::now();
        let table = exp.run(&self.scale);
        let outcome = RunOutcome {
            experiment: exp,
            index,
            table,
            wall: started.elapsed(),
        };
        if let Some(observer) = &self.observer {
            observer(&outcome);
        }
        outcome
    }
}

/// Renders `table` for machine or human consumption; shared by the CLI
/// and examples so every surface formats sweeps identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned plain-text tables.
    Text,
    /// One CSV block per experiment with a `# name: title` banner.
    Csv,
    /// A single JSON array with one object per experiment.
    Json,
}

impl OutputFormat {
    /// Parses a `--format` flag value.
    pub fn parse(s: &str) -> Option<OutputFormat> {
        match s {
            "text" => Some(OutputFormat::Text),
            "csv" => Some(OutputFormat::Csv),
            "json" => Some(OutputFormat::Json),
            _ => None,
        }
    }

    /// What a streaming consumer prints before the first outcome.
    pub fn prologue(&self) -> &'static str {
        match self {
            OutputFormat::Json => "[",
            _ => "",
        }
    }

    /// What a streaming consumer prints after the last outcome.
    pub fn epilogue(&self) -> &'static str {
        match self {
            OutputFormat::Json => "]\n",
            _ => "",
        }
    }

    /// Renders one outcome; `first` controls JSON separators. Printing
    /// `prologue` + each outcome (in selection order) + `epilogue` is
    /// byte-identical to [`OutputFormat::render`], which lets callers
    /// stream long sweeps as results arrive.
    pub fn render_one(&self, outcome: &RunOutcome, first: bool) -> String {
        match self {
            OutputFormat::Text => format!("{}\n", outcome.table),
            OutputFormat::Csv => format!(
                "# {}: {}\n{}\n",
                outcome.experiment.name,
                outcome.table.title(),
                outcome.table.to_csv()
            ),
            OutputFormat::Json => format!(
                "{}{{\"name\":{},\"artifact\":{},\"table\":{}}}",
                if first { "" } else { "," },
                json_string(outcome.experiment.name),
                json_string(outcome.experiment.artifact),
                outcome.table.to_json()
            ),
        }
    }

    /// Renders a completed sweep to a single string.
    pub fn render(&self, outcomes: &[RunOutcome]) -> String {
        let mut out = String::from(self.prologue());
        for (i, o) in outcomes.iter().enumerate() {
            out.push_str(&self.render_one(o, i == 0));
        }
        out.push_str(self.epilogue());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn selection_defaults_to_full_registry() {
        let runner = Runner::builder().build();
        assert_eq!(runner.experiments().len(), registry().len());
        assert_eq!(runner.scale().store, StoreKind::Mem);
    }

    #[test]
    fn filter_and_explicit_selection_compose() {
        let runner = Runner::builder()
            .filter(|e| e.name.starts_with("fig1"))
            .filter(|e| e.name != "fig15")
            .build();
        let names: Vec<&str> = runner.experiments().iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["fig13", "fig14", "fig16", "fig17", "fig18", "fig19"]
        );
    }

    #[test]
    fn parallel_results_match_serial_order_and_content() {
        let pick = |jobs: usize| {
            Runner::builder()
                .scale(ExperimentScale::tiny())
                .filter(|e| matches!(e.name, "table1" | "fig7" | "ablation-buffer"))
                .jobs(jobs)
                .build()
                .run()
        };
        let serial = pick(1);
        let parallel = pick(3);
        assert_eq!(serial.len(), 3);
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.experiment.name, p.experiment.name);
            assert_eq!(s.table, p.table, "{} diverged", s.experiment.name);
        }
        assert_eq!(serial[0].experiment.name, "table1");
    }

    #[test]
    fn observer_sees_every_outcome() {
        static SEEN: AtomicUsize = AtomicUsize::new(0);
        let outcomes = Runner::builder()
            .scale(ExperimentScale::tiny())
            .filter(|e| e.name == "table1" || e.name == "fig13")
            .jobs(2)
            .on_result(|o| {
                assert!(!o.table.is_empty());
                SEEN.fetch_add(1, Ordering::Relaxed);
            })
            .build()
            .run();
        assert_eq!(outcomes.len(), 2);
        assert_eq!(SEEN.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn store_table_carries_the_transfer_reduction_column() {
        use crate::report::Cell;
        let sweep = Runner::builder()
            .scale(ExperimentScale::tiny().with_store(StoreKind::Isp))
            .filter(|e| e.name == "fig7")
            .build()
            .sweep();
        let s = sweep.store_stats;
        assert!(s.gathers > 0, "fig7 trains, so producers gathered");
        assert!(s.device_bytes_read > 0, "isp reads pages device-side");
        assert!(
            s.host_bytes_transferred > 0 && s.host_bytes_transferred <= s.feature_bytes,
            "isp ships at most the packed payload (scratchpad dedups repeats)"
        );
        assert!(s.device_ns > 0, "modeled device time accumulates");
        let t = sweep.store_table(StoreKind::Isp);
        assert_eq!(t.len(), 1);
        let row = &t.rows()[0];
        assert_eq!(row[0].as_str(), Some("isp"));
        assert!(
            matches!(row[7], Cell::Speedup(r) if r == s.transfer_reduction()),
            "last column is the Cell-typed transfer reduction"
        );
        assert!(t.headers().iter().any(|h| h == "Transfer reduction"));
        let graph = sweep.topology_table(TopologyKind::Mem);
        assert_eq!(graph.title(), "Sweep graph-topology I/O");
    }

    #[test]
    fn output_formats_render() {
        let outcomes = Runner::builder()
            .scale(ExperimentScale::tiny())
            .filter(|e| e.name == "table1")
            .build()
            .run();
        assert!(OutputFormat::Text.render(&outcomes).contains("## Table I"));
        assert!(OutputFormat::Csv
            .render(&outcomes)
            .starts_with("# table1: Table I"));
        let json = OutputFormat::Json.render(&outcomes);
        assert!(json.starts_with("[{\"name\":\"table1\""));
        assert!(json.trim_end().ends_with("]"));
        assert!(OutputFormat::parse("json") == Some(OutputFormat::Json));
        assert!(OutputFormat::parse("yaml").is_none());
    }
}
