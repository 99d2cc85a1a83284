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
//!   training job holds a scoped `StoreHandle` onto its lock-striped
//!   sharded page cache — so training can run through actual storage,
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
//! * [`gnn`] — GraphSAGE/GraphSAINT samplers, dense layers, the functional
//!   trainer and the GPU timing model.
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
//! # Store tiers
//!
//! The same feature bytes can be served three ways — host DRAM, a real
//! on-disk file shipped page-by-page (Fig 10(a)), or an in-storage
//! gather that ships only packed rows (Fig 10(b)). Values are
//! bit-identical across all three; only the I/O accounting differs
//! (this example is the README's "Store tiers" snippet, kept honest by
//! `cargo test`):
//!
//! ```
//! use smartsage::graph::{FeatureTable, NodeId};
//! use smartsage::store::{
//!     write_feature_file, FeatureStore, FileStoreOptions, InMemoryStore, IspGatherOptions,
//!     IspGatherStore, ScratchFile, SharedFileStore, StoreHandle,
//! };
//! use std::sync::Arc;
//!
//! // Publish 2048 nodes of 8-dim features (32-byte rows) to disk.
//! let table = FeatureTable::new(8, 4, 7);
//! let file = ScratchFile::new("readme-store-tiers");
//! write_feature_file(file.path(), &table, 2048).unwrap();
//!
//! // A scattered gather: one requested row per 4 KiB page. Each tier
//! // opens the file for itself, so neither warms the other's cache.
//! let nodes: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 128)).collect();
//! let mut mem = InMemoryStore::new(table, 2048);
//! let mut disk = StoreHandle::new(Arc::new(SharedFileStore::open(file.path()).unwrap()));
//! let own = SharedFileStore::open_with(file.path(), FileStoreOptions::default(), 1).unwrap();
//! let mut isp = IspGatherStore::over(Arc::new(own), IspGatherOptions::default());
//!
//! let want = mem.gather(&nodes).unwrap();
//! assert_eq!(disk.gather(&nodes).unwrap(), want); // same bytes off the page path
//! assert_eq!(isp.gather(&nodes).unwrap(), want); // same bytes off the ISP path
//!
//! // The file tier ships every touched page whole; the ISP tier reads
//! // the same pages *inside* the device and ships only packed rows.
//! let (d, i) = (disk.stats(), isp.stats());
//! assert_eq!(d.host_bytes_transferred, d.bytes_read);
//! assert_eq!(i.host_bytes_transferred, 16 * 8 * 4);
//! assert!(i.host_bytes_transferred < d.host_bytes_transferred);
//! assert_eq!(i.device_bytes_read, d.device_bytes_read);
//! assert!(i.transfer_reduction() > 100.0); // one 32-byte row per 4 KiB page
//! assert!(!isp.device_time().is_zero()); // modeled FTL + flash + PCIe time
//! ```
//!
//! # Topology tiers
//!
//! The other half of the on-SSD dataset — the neighbor edge-list array
//! sampling walks — gets the same three tiers through the
//! `TopologyStore` trait: an in-memory CSR, a real page-aligned
//! `SSGRPH01` graph file, or in-storage sampling where only the packed
//! degrees and sampled neighbor ids cross the modeled link. Sampling
//! is bit-identical across tiers (this example is the README's
//! "Topology tiers" snippet, kept honest by `cargo test`):
//!
//! ```
//! use smartsage::gnn::sampler::sample_on;
//! use smartsage::gnn::Fanouts;
//! use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
//! use smartsage::graph::NodeId;
//! use smartsage::sim::Xoshiro256;
//! use smartsage::store::{
//!     write_graph_file, FileStoreOptions, FileTopology, InMemoryTopology, IspGatherOptions,
//!     IspSampleTopology, ScratchFile, SharedCsrFile, TopologyStore,
//! };
//! use std::sync::Arc;
//!
//! // Publish a synthetic power-law graph to an SSGRPH01 file.
//! let graph = generate_power_law(&PowerLawConfig {
//!     nodes: 2048, avg_degree: 8.0, seed: 7, ..PowerLawConfig::default()
//! });
//! let file = ScratchFile::new("readme-topology-tiers");
//! write_graph_file(file.path(), &graph).unwrap();
//!
//! // Sample two hops from scattered targets through all three tiers:
//! // one pass yields the plan (what was read) and the batch (the ids).
//! let targets: Vec<NodeId> = (0..16u32).map(|i| NodeId::new(i * 127)).collect();
//! let fanouts = Fanouts::new(vec![3, 2]);
//! let sample = |topo: &mut dyn TopologyStore| {
//!     let mut rng = Xoshiro256::seed_from_u64(42);
//!     sample_on(topo, &targets, &fanouts, &mut rng).unwrap()
//! };
//! let mut mem = InMemoryTopology::new(graph.clone());
//! let mut disk = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
//! let own = SharedCsrFile::open_with(file.path(), FileStoreOptions::default(), 1).unwrap();
//! let mut isp = IspSampleTopology::over(Arc::new(own), IspGatherOptions::default());
//! let want = sample(&mut mem);
//! assert_eq!(sample(&mut disk), want); // same plan + batch off the page path
//! assert_eq!(sample(&mut isp), want); // same plan + batch off the ISP path
//!
//! // The file tier ships every touched offset/edge page whole; the ISP
//! // tier resolves the hop inside the device and ships 8 B per answer.
//! let (d, i) = (disk.stats(), isp.stats());
//! assert_eq!(d.host_bytes_transferred, d.bytes_read);
//! assert_eq!(i.host_bytes_transferred, i.feature_bytes); // packed answers only
//! assert!(i.host_bytes_transferred < d.host_bytes_transferred);
//! assert!(i.transfer_reduction() > 1.0);
//! assert!(!isp.device_time().is_zero()); // modeled FTL + flash + PCIe time
//! ```
//!
//! # Sharded stores
//!
//! Either axis can be partitioned across N modeled SSDs: contiguous
//! node ranges, one per-shard file and page-cache budget per device.
//! A dataset is opened one way, sharded or not — `open_tiers` with a
//! `TierSpec` naming the shard count. Batched requests scatter to their
//! owning shards and merge back in request order, so an N-shard store
//! is bit-identical to the 1-shard and in-memory tiers — only the I/O
//! accounting gains a per-shard breakdown that sums exactly to the
//! totals (this example is the README's "Sharded stores" snippet, kept
//! honest by `cargo test`):
//!
//! ```
//! use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
//! use smartsage::graph::{FeatureTable, NodeId};
//! use smartsage::store::{StoreKind, StoreRegistry, TierSpec, TopologyKind};
//! use std::sync::Arc;
//!
//! // A 256-node dataset, its features on 3 devices:
//! // shard_ranges(256, 3) = [(0,86),(86,171),(171,256)].
//! let graph = Arc::new(generate_power_law(&PowerLawConfig {
//!     nodes: 256, avg_degree: 4.0, seed: 7, ..PowerLawConfig::default()
//! }));
//! let table = FeatureTable::new(8, 4, 7);
//! let spec = |store, shards| TierSpec {
//!     store, topology: TopologyKind::Mem, shards, file: Default::default(),
//! };
//! let registry = StoreRegistry::new();
//! let mut sharded = registry.open_tiers(&graph, &table, 256, &spec(StoreKind::File, 3)).unwrap();
//! let mut mem = registry.open_tiers(&graph, &table, 256, &spec(StoreKind::Mem, 1)).unwrap();
//!
//! // A batch straddling every shard boundary: bit-identical to the
//! // mem tier, merged back in request order.
//! let nodes: Vec<NodeId> = [255u32, 0, 86, 85, 171, 170].map(NodeId::new).to_vec();
//! let (sharded, mem) = (&mut sharded.features, &mut mem.features);
//! assert_eq!(sharded.gather(&nodes).unwrap(), mem.gather(&nodes).unwrap());
//!
//! // Per-device accounting: each shard resolved two of the six rows,
//! // and the breakdown sums exactly to the store's own totals.
//! let per_shard = sharded.shard_stats();
//! assert_eq!(per_shard.len(), 3);
//! assert!(per_shard.iter().all(|s| s.nodes_gathered == 2));
//! assert_eq!(
//!     per_shard.iter().map(|s| s.bytes_read).sum::<u64>(),
//!     sharded.stats().bytes_read,
//! );
//! # for file in registry.occupancy() { let _ = std::fs::remove_file(file.path); }
//! ```

#![forbid(unsafe_code)]

pub use smartsage_core as core;
pub use smartsage_gnn as gnn;
pub use smartsage_graph as graph;
pub use smartsage_hostio as hostio;
pub use smartsage_memsim as memsim;
pub use smartsage_serve as serve;
pub use smartsage_sim as sim;
pub use smartsage_storage as storage;
pub use smartsage_store as store;
