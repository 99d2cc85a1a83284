//! Sweep execution: run a selection of registered experiments across a
//! pool of worker threads (one worker runs them in order), with typed
//! outcomes.
//!
//! The paper's evaluation is a grid sweep (systems × datasets ×
//! scales); [`Runner`] is the API that executes it. A runner is a plain
//! struct — scale, experiment selection, worker count — and
//! [`Runner::sweep`] runs it, calling back as each experiment finishes:
//!
//! ```
//! use smartsage_core::experiments::{registry, ExperimentScale};
//! use smartsage_core::runner::Runner;
//!
//! let sweep = Runner {
//!     scale: ExperimentScale::tiny(),
//!     selection: registry().iter().filter(|e| e.name == "table1").collect(),
//!     jobs: 2,
//! }
//! .sweep(|_| {});
//! assert_eq!(sweep.outcomes.len(), 1);
//! assert!(!sweep.outcomes[0].table.is_empty());
//! ```
//!
//! Results always come back in *selection order*, independent of which
//! worker thread finished first, so a parallel sweep's rendered output
//! is byte-identical to a serial one. Experiment drivers are pure
//! functions of the [`ExperimentScale`] (each run builds its own
//! [`RunContext`](crate::context::RunContext)), which is what makes the
//! fan-out safe.

use crate::experiments::{registry, Experiment, ExperimentScale};
use crate::json::JsonValue;
use crate::report::Table;
use crate::store_metrics::{self, RunIo, SweepScope};
use smartsage_hostio::LockExt;
use smartsage_store::StoreOccupancy;
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
/// plus the sweep's own, exactly scoped store accounting.
#[derive(Debug)]
pub struct SweepOutcome {
    /// Per-experiment results, in selection order.
    pub outcomes: Vec<RunOutcome>,
    /// Exact I/O of *this sweep only*, per axis (features, topology):
    /// the sum of every real pass's [`RunIo`], with the per-device
    /// breakdown of a sharded sweep. Accumulated through the sweep's
    /// private scope, so a second sweep in the same process reports
    /// exactly what its solo run would.
    pub io: RunIo,
    /// Final page-cache occupancy of each store the sweep's private
    /// registry opened — feature files and graph topology files alike
    /// (empty unless a file-backed tier ran).
    pub stores: Vec<StoreOccupancy>,
}

/// A sweep: which registered experiments run, at what scale, on how
/// many worker threads. [`Runner::sweep`] runs it.
#[derive(Debug)]
pub struct Runner {
    /// Dataset size, batch shape, and the store tiers and device count
    /// every run reads through ([`ExperimentScale::store`],
    /// [`ExperimentScale::topology`], [`ExperimentScale::shards`]).
    /// Tables are unchanged by the tier choice (the store determinism
    /// contract); the tiers show in [`SweepOutcome::io`].
    pub scale: ExperimentScale,
    /// The experiments to run; outcomes come back in this order.
    pub selection: Vec<&'static Experiment>,
    /// Worker threads. `1` runs the selection in order on one worker;
    /// `0` means one worker per available CPU.
    pub jobs: usize,
}

impl Default for Runner {
    /// The full registry at the default scale, on one worker.
    fn default() -> Runner {
        Runner {
            scale: ExperimentScale::default(),
            selection: registry().iter().collect(),
            jobs: 1,
        }
    }
}

impl Runner {
    /// Runs the selection and returns outcomes in selection order,
    /// together with the sweep's exactly scoped I/O. `on_result` sees
    /// each outcome as it finishes (in completion order, from the
    /// worker thread that ran it), which lets callers stream results.
    ///
    /// Each sweep owns a **private**
    /// [`StoreRegistry`](smartsage_store::StoreRegistry) and a fresh
    /// [`RunIo`] accumulator; both are installed as a [`SweepScope`] on
    /// every worker thread for the duration of its runs. Consequences,
    /// by design:
    ///
    /// * all of a sweep's jobs share one open store and one page cache
    ///   per content key (`--jobs 4` keeps a single registry entry);
    /// * the sweep's report is the exact sum of its own runs' scoped
    ///   counters — never contaminated by earlier sweeps, concurrent
    ///   sweeps, or ad-hoc runs in the same process;
    /// * every sweep starts with a cold cache, so back-to-back sweeps
    ///   of the same selection report identical stats.
    pub fn sweep(&self, on_result: impl Fn(&RunOutcome) + Sync) -> SweepOutcome {
        let scope = SweepScope::new();
        let jobs = match self.jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            jobs => jobs,
        };
        let workers = jobs.clamp(1, self.selection.len().max(1));
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
                            let index = next.fetch_add(1, Ordering::Relaxed);
                            let Some(&experiment) = self.selection.get(index) else {
                                break ran;
                            };
                            let started = Instant::now();
                            let table = experiment.run(&self.scale);
                            let outcome = RunOutcome {
                                experiment,
                                index,
                                table,
                                wall: started.elapsed(),
                            };
                            on_result(&outcome);
                            ran.push(outcome);
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
        let io = std::mem::take(&mut *scope.io.safe_lock());
        SweepOutcome {
            outcomes,
            io,
            stores: scope.registry.occupancy(),
        }
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
            OutputFormat::Json => {
                let doc = JsonValue::obj([
                    ("name", outcome.experiment.name.into()),
                    ("artifact", outcome.experiment.artifact.into()),
                    ("table", (&outcome.table).into()),
                ]);
                format!("{}{doc}", if first { "" } else { "," })
            }
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
    use smartsage_store::StoreKind;

    /// A tiny-scale runner over the registry entries `keep` accepts.
    fn tiny(keep: impl Fn(&Experiment) -> bool, jobs: usize) -> Runner {
        Runner {
            scale: ExperimentScale::tiny(),
            selection: registry().iter().filter(|e| keep(e)).collect(),
            jobs,
        }
    }

    #[test]
    fn selection_defaults_to_full_registry() {
        let runner = Runner::default();
        assert_eq!(runner.selection.len(), registry().len());
        assert_eq!(runner.scale.store, StoreKind::Mem);
        assert_eq!(runner.jobs, 1);
    }

    #[test]
    fn filter_and_explicit_selection_compose() {
        let runner = tiny(|e| e.name.starts_with("fig1") && e.name != "fig15", 1);
        let names: Vec<&str> = runner.selection.iter().map(|e| e.name).collect();
        assert_eq!(
            names,
            ["fig13", "fig14", "fig16", "fig17", "fig18", "fig19"]
        );
    }

    #[test]
    fn parallel_results_match_serial_order_and_content() {
        let pick = |jobs: usize| {
            tiny(
                |e| matches!(e.name, "table1" | "fig7" | "ablation-buffer"),
                jobs,
            )
            .sweep(|_| {})
            .outcomes
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
        let seen = AtomicUsize::new(0);
        let sweep = tiny(|e| e.name == "table1" || e.name == "fig13", 2).sweep(|o| {
            assert!(!o.table.is_empty());
            seen.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(sweep.outcomes.len(), 2);
        assert_eq!(seen.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn an_isp_sweep_reports_its_scoped_store_stats() {
        let mut runner = tiny(|e| e.name == "fig7", 1);
        runner.scale.store = StoreKind::Isp;
        let s = runner.sweep(|_| {}).io.features.total;
        assert!(s.gathers > 0, "fig7 trains, so producers gathered");
        assert!(s.device_bytes_read > 0, "isp reads pages device-side");
        assert!(
            s.host_bytes_transferred > 0 && s.host_bytes_transferred <= s.feature_bytes,
            "isp ships at most the packed payload (scratchpad dedups repeats)"
        );
        assert!(s.device_ns > 0, "modeled device time accumulates");
    }

    #[test]
    fn output_formats_render() {
        let outcomes = tiny(|e| e.name == "table1", 1).sweep(|_| {}).outcomes;
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
