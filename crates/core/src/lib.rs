//! SmartSAGE core: the paper's system, its baselines, and its experiments.
//!
//! This crate assembles the substrate crates into the seven training
//! systems the paper evaluates and the experiment drivers that regenerate
//! every table and figure:
//!
//! * [`config`] — system kinds (DRAM, PMEM, SSD-mmap, SmartSAGE SW /
//!   HW/SW / oracle, FPGA-CSD) and device parameter sets.
//! * [`nsconfig`] — the `NSconfig` neighbor-sampling descriptor the host
//!   driver DMAs to the SSD (paper Fig 11), with a byte-exact
//!   encode/decode round trip.
//! * [`context`] — per-run shared state: the materialized dataset, the
//!   on-SSD layout, and full-scale locality rates (Che approximation).
//! * [`cost`] — one cost policy per system: per-system device models
//!   replayed over the [`smartsage_store::SampleTrace`] byte trace of
//!   the single real storage path, producing each design point's
//!   modeled time and link traffic.
//! * [`pipeline`] — the producer/consumer discrete-event simulator
//!   (paper Fig 4): CPU-side workers sample and gather through the
//!   store tiers exactly once, cost policies price the byte trace, the
//!   GPU consumes the batches; reports makespan, per-stage breakdowns
//!   and GPU idle time.
//! * [`experiments`] — the [`Experiment`] registry: one descriptor per
//!   paper artifact (`table1`, `fig5` … ablations), each driving a
//!   typed [`report::Table`].
//! * [`runner`] — the sweep API: select registered experiments, run
//!   them serially or across a thread pool, observe typed outcomes.
//! * [`report`] — typed-cell tables rendering to text, CSV, and JSON.
//! * [`json`] — the minimal shared JSON parser/writer behind the
//!   report renderers and the `smartsage-serve` request bodies: strict,
//!   typed errors, never a panic.
//! * [`store_metrics`] — *scoped* feature-store I/O accounting: sweeps
//!   install a per-sweep accumulator + private store registry on their
//!   worker threads, and every pipeline run records its exact counters
//!   into the scopes on its thread.

#![forbid(unsafe_code)]

pub mod ablations;
pub mod config;
pub mod context;
pub mod cost;
pub mod experiments;
pub mod json;
pub mod metrics;
pub mod nsconfig;
pub mod pipeline;
pub mod report;
pub mod runner;
pub mod store_metrics;

pub use config::{SystemConfig, SystemKind};
pub use context::RunContext;
pub use cost::{make_policy, BatchCost, CostPolicy};
pub use experiments::{registry, Experiment, ExperimentScale};
pub use pipeline::{PipelineConfig, PipelineReport};
pub use report::{Cell, Table};
pub use runner::{OutputFormat, RunOutcome, Runner, RunnerBuilder, SweepOutcome};
pub use smartsage_store::{StoreKind, StoreStats, TopologyKind};
