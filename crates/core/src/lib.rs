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
//! * [`cost`] — the one cost-policy driver ([`CostPolicy`]) over a
//!   step function per system: device models replayed over the
//!   [`smartsage_store::SampleTrace`] byte trace of
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
//!   them on a pool of worker threads, observe typed outcomes.
//! * [`report`] — typed-cell tables rendering to text, CSV, and JSON.
//! * [`json`] — the minimal shared JSON parser/writer behind the
//!   report renderers and the `smartsage-serve` request bodies: strict,
//!   typed errors, never a panic.
//! * [`store_metrics`] — *scoped* store I/O accounting: a run's I/O is
//!   one [`RunIo`](store_metrics::RunIo) record (features and topology,
//!   totals and per-device breakdown); sweeps install a per-sweep
//!   accumulator + private store registry on their worker threads, and
//!   every real pass records its run's `RunIo` into the scopes on its
//!   thread.
//!
//! The `reproduce` binary (`src/bin/reproduce.rs`) is the CLI over the
//! registry and runner: `cargo run --release --bin reproduce -- --list`.

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
pub use runner::{OutputFormat, RunOutcome, Runner, SweepOutcome};
pub use smartsage_store::{StoreKind, StoreStats, TopologyKind};
