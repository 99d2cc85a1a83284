//! Opening a dataset: the one place a tier pair is chosen.
//!
//! A dataset has two halves (feature table, graph topology), each half
//! has three tiers (mem / file / isp), and both halves are partitioned
//! across N ≥ 1 modeled devices. [`StoreRegistry::open_tiers`] is the
//! only code that turns that choice — a [`TierSpec`] — into stores,
//! with the workspace's single tier match per half: one construction
//! per tier, a routed store ([`ShardedFeatureStore`] /
//! [`ShardedTopology`]) over one member per device, each file-backed
//! member over the registry's own file for its range
//! ([`StoreRegistry::open_feature_shards`] /
//! [`StoreRegistry::open_graph_shards`]). Unsharded is the one-device
//! case of it (same file, each request answered by the one member in
//! place). The offline pipeline and the serving engine both call it,
//! so they cannot drift in what they open or what they reject.

use crate::error::StoreError;
use crate::file::FileStoreOptions;
use crate::isp::IspGatherOptions;
use crate::registry::StoreRegistry;
use crate::sharded::{
    check_sharded_population, shard_ranges, ShardedFeatureStore, ShardedTopology,
};
use crate::topology::{TopologyKind, TopologyStore};
use crate::{FeatureStore, StoreKind};
use smartsage_graph::{CsrGraph, FeatureTable};
use std::sync::Arc;

/// Which tier pair to open, and across how many modeled devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierSpec {
    /// Feature-store tier.
    pub store: StoreKind,
    /// Topology-store tier.
    pub topology: TopologyKind,
    /// Modeled storage devices the dataset is partitioned across
    /// (contiguous node ranges). One device is the 1-way partition;
    /// `0` is read as `1` — here and nowhere else.
    pub shards: usize,
    /// Page size and **total** page-cache budget of each file-backed
    /// half; the budget is sliced evenly across the devices (at least
    /// one page each), so it stays constant as the shard count changes.
    /// A zero budget runs every device uncached.
    pub file: FileStoreOptions,
}

/// An opened tier pair. The stores carry this caller's scoped counters;
/// the registry-shared files underneath are visible through
/// [`StoreRegistry::occupancy`].
#[derive(Debug)]
pub struct OpenTiers {
    /// The feature store gathers go through.
    pub features: Box<dyn FeatureStore + Send>,
    /// The topology store sampling goes through.
    pub topology: Box<dyn TopologyStore + Send>,
}

impl StoreRegistry {
    /// Opens the tier pair `spec` describes over `graph` and the first
    /// `rows` rows of `table`, publishing the content-keyed files
    /// through this registry first where needed.
    ///
    /// Each half is a routed store over `spec.shards` members of its
    /// tier, at every device count. File-backed halves
    /// share one open file and one page cache per content key with
    /// every other caller of this registry; the ISP tiers layer a
    /// caller-private device model (its virtual clock belongs to the
    /// caller) over those same shared files, one per device. When both
    /// halves are file-backed their populations are cross-checked up
    /// front, so a mismatched pair fails here with
    /// [`StoreError::NodeCountMismatch`] /
    /// [`StoreError::ShardCountMismatch`] naming both files — never a
    /// `NodeOutOfRange` deep inside the first gather. A key already
    /// open with different options is [`StoreError::OptionsConflict`].
    pub fn open_tiers(
        &self,
        graph: &Arc<CsrGraph>,
        table: &FeatureTable,
        rows: usize,
        spec: &TierSpec,
    ) -> Result<OpenTiers, StoreError> {
        let shards = spec.shards.max(1);
        let opts = FileStoreOptions {
            // Zero stays zero — "retain nothing", as everywhere below;
            // any other budget leaves each device at least one page.
            cache_pages: match spec.file.cache_pages {
                0 => 0,
                pages => (pages / shards).max(1),
            },
            ..spec.file
        };
        let isp = IspGatherOptions::default;

        type Features = Box<dyn FeatureStore + Send>;
        let (features, feature_files): (Features, Vec<_>) = match spec.store {
            StoreKind::Mem => (
                Box::new(ShardedFeatureStore::mem(table.clone(), rows, shards)),
                Vec::new(),
            ),
            StoreKind::File => {
                let files = self.open_feature_shards(table, rows, shards, opts)?;
                (Box::new(ShardedFeatureStore::over_files(&files)?), files)
            }
            StoreKind::Isp => {
                let files = self.open_feature_shards(table, rows, shards, opts)?;
                (
                    Box::new(ShardedFeatureStore::over_isp(&files, isp())?),
                    files,
                )
            }
        };

        type Topology = Box<dyn TopologyStore + Send>;
        let graph_ranges = shard_ranges(graph.num_nodes(), shards);
        let (topology, graph_files): (Topology, Vec<_>) = match spec.topology {
            // Arc clones of the caller's graph — never a copy of the
            // CSR arrays.
            TopologyKind::Mem => (
                Box::new(ShardedTopology::mem(Arc::clone(graph), shards)),
                Vec::new(),
            ),
            TopologyKind::File => {
                let files = self.open_graph_shards(graph, shards, opts)?;
                (
                    Box::new(ShardedTopology::over_files(&files, &graph_ranges)?),
                    files,
                )
            }
            TopologyKind::Isp => {
                let files = self.open_graph_shards(graph, shards, opts)?;
                (
                    Box::new(ShardedTopology::over_isp(&files, &graph_ranges, isp())?),
                    files,
                )
            }
        };

        if !graph_files.is_empty() && !feature_files.is_empty() {
            check_sharded_population(&graph_files, &feature_files)?;
        }
        Ok(OpenTiers { features, topology })
    }
}
