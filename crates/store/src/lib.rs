//! Feature stores: where node feature vectors are read from during
//! training.
//!
//! SmartSAGE's premise (§III–IV) is that GNN training becomes
//! storage-bound once the dataset spills out of DRAM. The simulator
//! models that for the *edge-list* array; this crate makes it real for
//! the *feature table*: training can gather features through actual
//! page-aligned storage I/O instead of an in-memory table.
//!
//! Implementations of the [`FeatureStore`] trait:
//!
//! * [`InMemoryStore`] — wraps the synthetic
//!   [`FeatureTable`](smartsage_graph::FeatureTable); features are
//!   produced straight into the caller's buffer with no I/O.
//! * [`SharedFileStore`] + [`StoreHandle`] — the file tier: one open
//!   on-disk feature file ([`mod@file`] documents the layout and the
//!   one header codec both file formats share) and one exact-LRU page
//!   cache per file, behind one lock, shared by every thread (a read
//!   locks it twice: to classify its pages, then to publish them); batch
//!   gathers coalesce their page reads into
//!   contiguous runs (a [`smartsage_sim::RankSet`] of the pages), and exact
//!   per-call I/O deltas accumulate in per-handle *scoped* counters. A
//!   [`StoreRegistry`] deduplicates opens by content key, so a whole
//!   sweep of parallel jobs shares one store.
//! * [`IspGatherStore`] — the in-storage-processing tier: the same
//!   on-disk file, but batch gathers resolve *device-side* against an
//!   [`smartsage_storage::Ssd`] timing model (FTL lookups, flash
//!   channel parallelism at a bounded queue depth, page-buffer hits)
//!   and only the packed feature rows cross the modeled PCIe link —
//!   the paper's Fig 10(b) transfer-reduction mechanism on the real
//!   feature path.
//!
//! Callers do not pick among these by hand: [`StoreRegistry::open_tiers`]
//! ([`mod@open`]) turns a [`TierSpec`] into the feature and topology
//! stores of one dataset, sharded or not.
//!
//! # The topology half
//!
//! The feature table is only half the on-SSD dataset; the other half
//! is the **neighbor edge-list array** the sampler walks. The
//! [`TopologyStore`] trait ([`mod@topology`]) mirrors the feature-store
//! architecture for it:
//!
//! * [`InMemoryTopology`] / [`CsrView`] — wrap a
//!   [`CsrGraph`](smartsage_graph::CsrGraph); no I/O.
//! * [`FileTopology`] — a scoped handle onto a registry-shared
//!   [`SharedCsrFile`] (`SSGRPH01` on-disk CSR, [`mod@graph_file`]: the
//!   modeled [`smartsage_hostio::GraphFile`] layout behind the shared
//!   header): coalesced page-aligned offset/edge reads through the same
//!   exact-LRU page cache discipline.
//! * [`IspSampleTopology`] — in-storage sampling: hop expansion
//!   resolves device-side against the SSD timing model and only the
//!   sampled neighbor ids cross the modeled link.
//!
//! # The determinism contract
//!
//! Feature gathering follows the same plan/resolve discipline as
//! neighbor sampling (`smartsage_gnn::sampler`): a gather is *planned*
//! as a pure function of the node list (which rows, which pages, in
//! which order) and then *resolved* against the backing bytes. Every
//! store resolves the same plan to **byte-identical** results — the
//! storage medium may change latency and I/O counts, never values. The
//! conformance suites (`tests/feature_store_conformance.rs`,
//! `tests/topology_store_conformance.rs`) assert this across random
//! graphs, batch orders, and page sizes, and the training equivalence
//! tests assert that a full `Trainer` run through the file tier (and
//! sampling through [`FileTopology`]) produces a bit-identical loss
//! trajectory to the in-memory tiers.

#![warn(missing_docs)]

pub mod error;
pub mod file;
pub mod graph_file;
pub mod handle;
pub mod isp;
pub mod isp_topology;
pub mod mem;
pub mod open;
mod paged;
pub mod registry;
pub mod scratch;
pub mod sharded;
pub mod shared;
pub mod topology;
pub mod trace;

pub use error::StoreError;
pub use file::{write_feature_file, write_feature_shard, FileStoreOptions};
pub use graph_file::{write_graph_file, write_graph_shard, SharedCsrFile};
pub use handle::StoreHandle;
pub use isp::{IspGatherOptions, IspGatherStore};
pub use isp_topology::IspSampleTopology;
pub use mem::InMemoryStore;
pub use open::{OpenTiers, TierSpec};
pub use registry::{
    remove_cached_feature_files, sweep_stale_tmp_files, StoreOccupancy, StoreRegistry,
};
pub use scratch::ScratchFile;
pub use sharded::{check_sharded_population, shard_ranges, ShardedFeatureStore, ShardedTopology};
pub use shared::SharedFileStore;
pub use topology::{
    CsrTopology, CsrView, FileTopology, InMemoryTopology, TopologyKind, TopologyStore,
};
pub use trace::{SampleTrace, TraceHop, TracingTopology};

use smartsage_graph::NodeId;

/// Which feature-store implementation an experiment trains through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreKind {
    /// In-memory feature table (the historical default).
    Mem,
    /// File-backed store: page-aligned reads + LRU page cache. Every
    /// fetched page crosses the (modeled) host link whole, like the
    /// paper's Fig 10(a) baseline.
    File,
    /// In-storage-processing gather ([`IspGatherStore`]): page reads
    /// happen device-side against an SSD timing model and only the
    /// packed feature rows cross the host link (Fig 10(b)).
    Isp,
}

impl StoreKind {
    /// Parses a `--store` flag value.
    pub fn parse(s: &str) -> Option<StoreKind> {
        match s {
            "mem" => Some(StoreKind::Mem),
            "file" => Some(StoreKind::File),
            "isp" => Some(StoreKind::Isp),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            StoreKind::Mem => "mem",
            StoreKind::File => "file",
            StoreKind::Isp => "isp",
        }
    }
}

/// Exact access and I/O counters of a store.
///
/// Access-level counters (`gathers`, `nodes_gathered`, `feature_bytes`)
/// describe what callers asked for; I/O-level counters (`pages_read`,
/// `bytes_read`, `page_hits`, `page_misses`) describe what actually hit
/// the disk. For [`InMemoryStore`] the I/O counters stay zero.
///
/// The transfer-path counters split *where* bytes moved:
///
/// * `device_bytes_read` — bytes the storage device read from its
///   medium (page-aligned). For [`SharedFileStore`] this equals
///   `bytes_read`.
/// * `host_bytes_transferred` — bytes that crossed the SSD→host link.
///   The host-path stores ship every fetched page whole (Fig 10(a)), so
///   this again equals `bytes_read`; the [`IspGatherStore`] gathers
///   device-side and ships only the packed feature rows (Fig 10(b)), so
///   it equals `feature_bytes` instead.
/// * `device_ns` — modeled device-side busy time in nanoseconds
///   (nonzero only for [`IspGatherStore`], whose gathers run against an
///   [`smartsage_storage::Ssd`] timing model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Number of `gather_into` calls.
    pub gathers: u64,
    /// Total node rows requested across gathers.
    pub nodes_gathered: u64,
    /// Useful payload bytes delivered (`nodes_gathered × dim × 4`).
    pub feature_bytes: u64,
    /// Pages fetched from the backing file.
    pub pages_read: u64,
    /// Bytes fetched from the backing file (page-aligned, so generally
    /// larger than the payload the pages were fetched for).
    pub bytes_read: u64,
    /// Distinct page lookups served by the page cache.
    pub page_hits: u64,
    /// Distinct page lookups that had to go to disk.
    pub page_misses: u64,
    /// Bytes the device read from its storage medium.
    pub device_bytes_read: u64,
    /// Bytes shipped over the SSD→host link.
    pub host_bytes_transferred: u64,
    /// Modeled device-side time in nanoseconds (ISP store only).
    pub device_ns: u64,
}

impl StoreStats {
    /// Page-cache hit rate over all page lookups (0.0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.page_hits + self.page_misses;
        if total == 0 {
            0.0
        } else {
            self.page_hits as f64 / total as f64
        }
    }

    /// Modeled SSD→host transfer reduction: device-side bytes read per
    /// byte actually shipped to the host. The host block path ships
    /// every page it reads, so it sits at `1.0` by construction; the
    /// ISP gather path rises above it whenever page-aligned device
    /// reads exceed the packed payload that crossed the link (the
    /// paper's Fig 10(b) claim). Both sides are floored at one byte so
    /// a no-I/O record (e.g. [`InMemoryStore`]) reports a neutral
    /// `1.0`, never NaN.
    pub fn transfer_reduction(&self) -> f64 {
        self.device_bytes_read.max(1) as f64 / self.host_bytes_transferred.max(1) as f64
    }

    /// Adds another stats record into this one.
    pub fn accumulate(&mut self, other: &StoreStats) {
        self.gathers += other.gathers;
        self.nodes_gathered += other.nodes_gathered;
        self.feature_bytes += other.feature_bytes;
        self.pages_read += other.pages_read;
        self.bytes_read += other.bytes_read;
        self.page_hits += other.page_hits;
        self.page_misses += other.page_misses;
        self.device_bytes_read += other.device_bytes_read;
        self.host_bytes_transferred += other.host_bytes_transferred;
        self.device_ns += other.device_ns;
    }
}

// The tier-call contract. Every tier call — a gather, a degree batch, a
// pick batch, on every tier and both routed stores — checks the buffer,
// then every id of the request, then every pick position, and only then
// touches state; a call that got through counts once.

/// Fails unless `out` holds exactly `expected` elements.
pub(crate) fn check_buffer<T>(expected: usize, out: &[T]) -> Result<(), StoreError> {
    if out.len() != expected {
        return Err(StoreError::BadBuffer {
            expected,
            actual: out.len(),
        });
    }
    Ok(())
}

/// Fails on the first of `ids` at or past `num_nodes`.
pub(crate) fn check_ids(
    ids: impl IntoIterator<Item = NodeId>,
    num_nodes: usize,
) -> Result<(), StoreError> {
    match ids.into_iter().find(|node| node.index() >= num_nodes) {
        Some(node) => Err(StoreError::NodeOutOfRange { node, num_nodes }),
        None => Ok(()),
    }
}

/// Fails unless the pick's position is below its node's `degree`: an
/// out-of-range position is a typed error on every tier, never a
/// silently wrong neighbor.
pub(crate) fn check_pick((node, position): (NodeId, u64), degree: u64) -> Result<(), StoreError> {
    if position >= degree {
        return Err(StoreError::PickOutOfRange {
            node,
            position,
            degree,
        });
    }
    Ok(())
}

/// Counts one call of `answers` answers of `answer_bytes` bytes each:
/// `gathers` counts calls, `nodes_gathered` answers, `feature_bytes`
/// delivered payload — the same on every tier, so access counters agree
/// across tiers exactly.
pub(crate) fn count_call(stats: &mut StoreStats, answers: usize, answer_bytes: u64) {
    stats.gathers += 1;
    stats.nodes_gathered += answers as u64;
    stats.feature_bytes += answers as u64 * answer_bytes;
}

/// A source of node feature vectors (and labels) for training.
///
/// Implementations must be deterministic: the same node list must
/// always resolve to byte-identical feature rows, independent of cache
/// state, gather batching, or page size (see the crate docs for the
/// plan/resolve contract). `gather_into` takes `&mut self` because
/// storage-backed stores update cache state and counters; the *values*
/// returned are nevertheless pure functions of the node list.
pub trait FeatureStore: std::fmt::Debug {
    /// Feature dimensionality of every row.
    fn dim(&self) -> usize;

    /// Number of label classes.
    fn num_classes(&self) -> usize;

    /// Number of node rows the store holds.
    fn num_nodes(&self) -> usize;

    /// The label (class) of `node`.
    fn label(&self, node: NodeId) -> usize;

    /// Gathers the feature rows of `nodes` into `out` (row-major,
    /// `nodes.len() × dim`).
    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError>;

    /// Counters so far.
    fn stats(&self) -> StoreStats;

    /// Resets all counters (and nothing else — cache contents survive).
    fn reset_stats(&mut self);

    /// Per-shard counter breakdown. A single-device store is its own
    /// one-shard partition, so the default is one entry equal to
    /// [`FeatureStore::stats`]; a sharded store
    /// ([`ShardedFeatureStore`]) reports one entry per member device
    /// whose I/O fields sum exactly to the merged totals (see its docs
    /// for the summation contract).
    fn shard_stats(&self) -> Vec<StoreStats> {
        vec![self.stats()]
    }

    /// Gathers the feature rows of `nodes` as a fresh matrix.
    fn gather(&mut self, nodes: &[NodeId]) -> Result<Vec<f32>, StoreError> {
        let mut out = vec![0.0; nodes.len() * self.dim()];
        self.gather_into(nodes, &mut out)?;
        Ok(out)
    }

    /// One node's feature vector as a fresh allocation.
    fn features(&mut self, node: NodeId) -> Result<Vec<f32>, StoreError> {
        self.gather(&[node])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn store_kind_parses() {
        assert_eq!(StoreKind::parse("mem"), Some(StoreKind::Mem));
        assert_eq!(StoreKind::parse("file"), Some(StoreKind::File));
        assert_eq!(StoreKind::parse("isp"), Some(StoreKind::Isp));
        assert_eq!(StoreKind::parse("disk"), None);
        assert_eq!(StoreKind::File.label(), "file");
        assert_eq!(StoreKind::Isp.label(), "isp");
    }

    #[test]
    fn stats_hit_rate_and_accumulate() {
        let mut a = StoreStats {
            gathers: 1,
            nodes_gathered: 10,
            feature_bytes: 400,
            pages_read: 3,
            bytes_read: 3 * 4096,
            page_hits: 1,
            page_misses: 3,
            device_bytes_read: 3 * 4096,
            host_bytes_transferred: 400,
            device_ns: 1_000,
        };
        assert!((a.hit_rate() - 0.25).abs() < 1e-12);
        assert_eq!(StoreStats::default().hit_rate(), 0.0);
        let b = a;
        a.accumulate(&b);
        assert_eq!(a.gathers, 2);
        assert_eq!(a.page_hits, 2);
        assert_eq!(a.bytes_read, 6 * 4096);
        assert_eq!(a.device_bytes_read, 6 * 4096);
        assert_eq!(a.host_bytes_transferred, 800);
        assert_eq!(a.device_ns, 2_000);
    }

    #[test]
    fn transfer_reduction_is_finite_and_directional() {
        assert_eq!(StoreStats::default().transfer_reduction(), 1.0);
        let host_path = StoreStats {
            device_bytes_read: 8192,
            host_bytes_transferred: 8192,
            ..StoreStats::default()
        };
        assert_eq!(host_path.transfer_reduction(), 1.0);
        let isp = StoreStats {
            device_bytes_read: 8192,
            host_bytes_transferred: 512,
            ..StoreStats::default()
        };
        assert_eq!(isp.transfer_reduction(), 16.0);
    }
}
