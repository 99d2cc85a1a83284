//! # SmartSAGE (reproduction)
//!
//! Facade crate for the reproduction of *SmartSAGE: Training Large-scale
//! Graph Neural Networks using In-Storage Processing Architectures*
//! (Lee, Chung, Rhu — ISCA 2022). It re-exports every workspace crate under
//! one roof so applications can depend on a single crate:
//!
//! * [`sim`] — virtual time, deterministic RNG, event queues, resources.
//! * [`graph`] — CSR graphs, power-law generation, Kronecker expansion,
//!   Table I dataset profiles, feature tables.
//! * [`storage`] — NVMe SSD (flash, FTL, page buffer, embedded cores),
//!   DRAM and PMEM device models.
//! * [`hostio`] — OS page cache / mmap, direct I/O, command coalescing,
//!   and the on-SSD graph file layout.
//! * [`store`] — feature stores: the `FeatureStore` trait with
//!   in-memory, file-backed (real page-aligned I/O + LRU page cache),
//!   in-storage-processing (`IspGatherStore`: gathers resolve
//!   device-side against an SSD timing model, only packed rows cross
//!   the modeled host link), and *shared concurrent*
//!   implementations — a content-keyed `StoreRegistry` opens each
//!   feature file once (`open_tiers` is its one entry point) and every
//!   training job holds a scoped `StoreHandle` onto its one exact-LRU
//!   page cache — so training can run through actual storage,
//!   in parallel. The same
//!   architecture covers the *topology* half of the dataset: a
//!   `TopologyStore` trait with in-memory (`InMemoryTopology`),
//!   file-backed (`FileTopology` over the on-disk `SSGRPH01` CSR), and
//!   in-storage-sampling (`IspSampleTopology`: hop expansion resolves
//!   device-side, only sampled neighbor ids cross the modeled link)
//!   implementations, so neighbor sampling itself reads through
//!   storage too.
//! * [`memsim`] — LLC simulation and DRAM bandwidth accounting used by the
//!   paper's characterization (Fig 5).
//! * [`gnn`] — the one-pass GraphSAGE sampler (a GraphSAINT walk is
//!   fan-out 1 per step), dense layers, the functional trainer and the
//!   GPU timing model.
//! * [`core`] — the SmartSAGE system itself: NSconfig, the ISP firmware
//!   model, the per-system cost policies over the sample byte trace,
//!   the producer/consumer pipeline simulator, and one experiment
//!   driver per paper table/figure.
//! * [`serve`] — the online serving path: a std-only HTTP/1.1 service
//!   (`/v1/sample`, `/v1/infer`, `/stats`) over the same shared store
//!   tiers, with a request-coalescing batcher, typed admission
//!   control (the closed-loop load harness is `sagebench`'s
//!   `serve_infer_file` workload, under `benchmark/`).
//!
//! # Quickstart
//!
//! ```
//! use smartsage::core::config::{SystemConfig, SystemKind};
//! use smartsage::core::experiments::ExperimentScale;
//! use smartsage::graph::{Dataset, DatasetProfile, GraphScale};
//!
//! // Materialize a scaled Reddit-like large-scale graph...
//! let data = DatasetProfile::of(Dataset::Reddit)
//!     .materialize(GraphScale::LargeScale, 100_000, 42);
//! assert!(data.graph.num_edges() > 0);
//! // ...and name the systems the paper compares.
//! let cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
//! assert_eq!(cfg.kind, SystemKind::SmartSageHwSw);
//! let _ = ExperimentScale::default();
//! ```
//!
//! # More examples
//!
//! The README's `rust` snippets — the store tiers, the topology tiers,
//! sharded stores and the sweep API — are compiled and run as this
//! crate's doc-tests, so there is one copy of each.

/// The README's `rust` blocks, run by `cargo test --doc`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

pub use smartsage_core as core;
pub use smartsage_gnn as gnn;
pub use smartsage_graph as graph;
pub use smartsage_hostio as hostio;
pub use smartsage_memsim as memsim;
pub use smartsage_serve as serve;
pub use smartsage_sim as sim;
pub use smartsage_storage as storage;
pub use smartsage_store as store;
