//! Topology stores: where neighbor sampling reads the graph from.
//!
//! SmartSAGE's dataset has two halves on the SSD (paper Fig 10): the
//! feature table — served by [`FeatureStore`](crate::FeatureStore)
//! implementations — and the neighbor edge-list array. This module is
//! the edge-list half: a [`TopologyStore`] answers the two batched
//! questions hop expansion asks (*what are these nodes' degrees?* and
//! *which neighbor sits at position `k` of this node's list?*), so
//! sampling can run against storage instead of an in-memory
//! [`CsrGraph`].
//!
//! Implementations:
//!
//! * [`InMemoryTopology`] / [`CsrView`] — wrap a [`CsrGraph`] (owned /
//!   borrowed); answers come straight from host memory with no I/O.
//!   `CsrView` is how in-memory callers run the store-generic sampler,
//!   so every tier shares one code path by construction.
//! * [`FileTopology`] — a scoped handle onto a registry-shared
//!   [`SharedCsrFile`]: offset and edge slices
//!   are read page-aligned through the lock-striped
//!   [`ShardedPageCache`](smartsage_hostio::ShardedPageCache), one
//!   coalesced batch per hop, every fetched page crossing the host
//!   link whole (Fig 10(a)).
//! * [`IspSampleTopology`](crate::IspSampleTopology) — hop expansion
//!   resolves device-side against an [`smartsage_storage::Ssd`] timing
//!   model and only the sampled neighbor ids cross the modeled link
//!   (Fig 10(b), the paper's in-storage sampling).
//!
//! # The determinism contract
//!
//! Like feature gathers, topology reads are pure functions of the
//! request: the same node list resolves to the same degrees and the
//! same `(node, position)` picks resolve to the same neighbor ids on
//! every tier — the storage medium may change latency and I/O counts,
//! never values. `tests/topology_store_conformance.rs` asserts
//! bit-identical [`SampledBatch`](../../smartsage_gnn/sampler/struct.SampledBatch.html)es
//! across tiers for random Kronecker graphs, page sizes, and cache
//! sizes.

use crate::error::StoreError;
use crate::graph_file::{SharedCsrFile, GRAPH_ENTRY_BYTES};
use crate::StoreStats;
use smartsage_graph::{CsrGraph, NodeId};
use std::sync::Arc;

/// Which topology-store implementation an experiment samples through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// In-memory CSR (the historical default).
    Mem,
    /// File-backed topology: page-aligned offset/edge reads + shared
    /// LRU page cache; every fetched page crosses the (modeled) host
    /// link whole, like the paper's Fig 10(a) baseline.
    File,
    /// In-storage sampling ([`IspSampleTopology`](crate::IspSampleTopology)):
    /// hop expansion resolves device-side against an SSD timing model
    /// and only the sampled neighbor ids cross the host link
    /// (Fig 10(b)).
    Isp,
}

impl TopologyKind {
    /// Parses a `--graph` flag value.
    pub fn parse(s: &str) -> Option<TopologyKind> {
        match s {
            "mem" => Some(TopologyKind::Mem),
            "file" => Some(TopologyKind::File),
            "isp" => Some(TopologyKind::Isp),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            TopologyKind::Mem => "mem",
            TopologyKind::File => "file",
            TopologyKind::Isp => "isp",
        }
    }
}

/// A source of graph topology (degrees and neighbor picks) for
/// sampling.
///
/// Implementations must be deterministic: the same request resolves to
/// the same values on every tier, independent of cache state or
/// batching (see the module docs). Methods take `&mut self` because
/// storage-backed stores update cache state and counters; the *values*
/// returned are nevertheless pure functions of the request.
pub trait TopologyStore: std::fmt::Debug {
    /// Number of nodes the graph holds.
    fn num_nodes(&self) -> usize;

    /// Number of directed edges the graph holds.
    fn num_edges(&self) -> u64;

    /// Writes the out-degree of every node in `nodes` into `out`
    /// (`out.len() == nodes.len()`).
    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError>;

    /// Resolves each `(node, position)` pick to the neighbor id at that
    /// position of the node's neighbor list
    /// (`out.len() == picks.len()`). Positions must be in range for
    /// their node's degree.
    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError>;

    /// Counters so far (same record type as the feature stores;
    /// `feature_bytes` counts delivered topology payload bytes).
    fn stats(&self) -> StoreStats;

    /// Resets all counters (and nothing else — cache contents survive).
    fn reset_stats(&mut self);

    /// Per-shard counter breakdown. A single-device topology is its own
    /// one-shard partition, so the default is one entry equal to
    /// [`TopologyStore::stats`]; a sharded topology
    /// ([`ShardedTopology`](crate::ShardedTopology)) reports one entry
    /// per member device whose I/O fields sum exactly to the merged
    /// totals.
    fn shard_stats(&self) -> Vec<StoreStats> {
        vec![self.stats()]
    }
}

pub(crate) fn check_out_len<T>(expected: usize, out: &[T]) -> Result<(), StoreError> {
    if out.len() != expected {
        return Err(StoreError::BadBuffer {
            expected,
            actual: out.len(),
        });
    }
    Ok(())
}

/// The CSR answer path of [`CsrTopology`].
fn csr_degrees_into(graph: &CsrGraph, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
    check_out_len(nodes.len(), out)?;
    for (slot, &node) in out.iter_mut().zip(nodes) {
        if node.index() >= graph.num_nodes() {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: graph.num_nodes(),
            });
        }
        *slot = graph.degree(node);
    }
    Ok(())
}

fn csr_picks_into(
    graph: &CsrGraph,
    picks: &[(NodeId, u64)],
    out: &mut [NodeId],
) -> Result<(), StoreError> {
    check_out_len(picks.len(), out)?;
    for (slot, &(node, k)) in out.iter_mut().zip(picks) {
        if node.index() >= graph.num_nodes() {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: graph.num_nodes(),
            });
        }
        // The same pick validation the file tiers apply: an
        // out-of-range position is a typed error on every tier, never
        // a silently wrong neighbor.
        let degree = graph.degree(node);
        if k >= degree {
            return Err(StoreError::PickOutOfRange {
                node,
                position: k,
                degree,
            });
        }
        *slot = graph.neighbor(node, k);
    }
    Ok(())
}

/// Uniform access-counter convention for one logical topology read of
/// `answers` 8-byte results (degrees or neighbor ids), identical on
/// every tier so exact cross-tier counter equality holds: `gathers`
/// counts batched operations, `nodes_gathered` counts answers,
/// `feature_bytes` counts delivered payload.
pub(crate) fn count_answers(stats: &mut StoreStats, answers: u64) {
    stats.gathers += 1;
    stats.nodes_gathered += answers;
    stats.feature_bytes += answers * GRAPH_ENTRY_BYTES;
}

/// A [`TopologyStore`] over an in-memory [`CsrGraph`] held as `G` —
/// owned ([`InMemoryTopology`]) or borrowed ([`CsrView`]). Answers come
/// straight from host memory, so the I/O counters stay zero.
#[derive(Debug, Clone)]
pub struct CsrTopology<G> {
    graph: G,
    stats: StoreStats,
}

/// A [`TopologyStore`] over an owned (shared) in-memory [`CsrGraph`].
pub type InMemoryTopology = CsrTopology<Arc<CsrGraph>>;

/// A zero-copy [`TopologyStore`] view over a borrowed [`CsrGraph`].
///
/// This is how in-memory callers sample: they wrap the graph in a
/// `CsrView` and call the storage-generic path (`sample_on`), so the
/// in-memory and storage tiers cannot drift apart.
pub type CsrView<'a> = CsrTopology<&'a CsrGraph>;

impl InMemoryTopology {
    /// Wraps `graph`.
    pub fn new(graph: CsrGraph) -> InMemoryTopology {
        InMemoryTopology::from_arc(Arc::new(graph))
    }

    /// Wraps an already-shared graph without copying it.
    pub fn from_arc(graph: Arc<CsrGraph>) -> InMemoryTopology {
        CsrTopology {
            graph,
            stats: StoreStats::default(),
        }
    }

    /// The wrapped graph.
    pub fn graph(&self) -> &CsrGraph {
        &self.graph
    }
}

impl<'a> CsrView<'a> {
    /// Wraps a borrowed graph.
    pub fn new(graph: &'a CsrGraph) -> CsrView<'a> {
        CsrTopology {
            graph,
            stats: StoreStats::default(),
        }
    }
}

impl<G> TopologyStore for CsrTopology<G>
where
    G: std::ops::Deref<Target = CsrGraph> + std::fmt::Debug,
{
    fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.graph.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        csr_degrees_into(&self.graph, nodes, out)?;
        count_answers(&mut self.stats, nodes.len() as u64);
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        csr_picks_into(&self.graph, picks, out)?;
        count_answers(&mut self.stats, picks.len() as u64);
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }
}

/// A [`TopologyStore`] view of a [`SharedCsrFile`] with private, scoped
/// counters — the topology analogue of
/// [`StoreHandle`](crate::StoreHandle).
///
/// Cheap to create (an `Arc` clone plus zeroed counters): make one per
/// run, per worker, or per test. All handles of one file share its page
/// cache and file descriptor; each accumulates only its own exact
/// per-call deltas.
#[derive(Debug)]
pub struct FileTopology {
    shared: Arc<SharedCsrFile>,
    stats: StoreStats,
}

impl FileTopology {
    /// A fresh handle with zeroed counters.
    pub fn new(shared: Arc<SharedCsrFile>) -> FileTopology {
        FileTopology {
            shared,
            stats: StoreStats::default(),
        }
    }

    /// The shared graph file behind this handle.
    pub fn shared(&self) -> &Arc<SharedCsrFile> {
        &self.shared
    }
}

impl TopologyStore for FileTopology {
    fn num_nodes(&self) -> usize {
        self.shared.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.shared.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        check_out_len(nodes.len(), out)?;
        let (pairs, io, _) = self.shared.offset_pairs(nodes)?;
        for (slot, (start, end)) in out.iter_mut().zip(pairs) {
            *slot = end - start;
        }
        self.stats.accumulate(&io);
        count_answers(&mut self.stats, nodes.len() as u64);
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        check_out_len(picks.len(), out)?;
        // Two coalesced passes per batch (offset pairs, then edge
        // entries), shared with the ISP tier via
        // [`SharedCsrFile::resolve_picks`].
        let (io, _) = self.shared.resolve_picks(picks, out)?;
        self.stats.accumulate(&io);
        count_answers(&mut self.stats, picks.len() as u64);
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = StoreStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph_file::write_graph_file;
    use crate::ScratchFile;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    fn graph(nodes: usize, seed: u64) -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 5.0,
            seed,
            ..PowerLawConfig::default()
        })
    }

    #[test]
    fn topology_kind_parses() {
        assert_eq!(TopologyKind::parse("mem"), Some(TopologyKind::Mem));
        assert_eq!(TopologyKind::parse("file"), Some(TopologyKind::File));
        assert_eq!(TopologyKind::parse("isp"), Some(TopologyKind::Isp));
        assert_eq!(TopologyKind::parse("csr"), None);
        assert_eq!(TopologyKind::File.label(), "file");
    }

    #[test]
    fn file_topology_matches_memory_and_counts_io() {
        let g = graph(90, 0x70);
        let file = ScratchFile::new("topo-equiv");
        write_graph_file(file.path(), &g).unwrap();
        let mut mem = InMemoryTopology::new(g.clone());
        let mut disk = FileTopology::new(Arc::new(SharedCsrFile::open(file.path()).unwrap()));
        assert_eq!(disk.num_nodes(), mem.num_nodes());
        assert_eq!(disk.num_edges(), mem.num_edges());
        let nodes: Vec<NodeId> = (0..90u32).map(NodeId::new).collect();
        let mut want = vec![0u64; 90];
        let mut got = vec![0u64; 90];
        mem.degrees_into(&nodes, &mut want).unwrap();
        disk.degrees_into(&nodes, &mut got).unwrap();
        assert_eq!(got, want);
        let picks: Vec<(NodeId, u64)> = nodes
            .iter()
            .zip(&want)
            .filter(|&(_, &d)| d > 0)
            .flat_map(|(&n, &d)| (0..d).map(move |k| (n, k)))
            .collect();
        let mut want_n = vec![NodeId::default(); picks.len()];
        let mut got_n = vec![NodeId::default(); picks.len()];
        mem.pick_neighbors_into(&picks, &mut want_n).unwrap();
        disk.pick_neighbors_into(&picks, &mut got_n).unwrap();
        assert_eq!(got_n, want_n, "picks resolve identically");
        // A one-element batch answers like the full batches.
        for topo in [&mut mem as &mut dyn TopologyStore, &mut disk] {
            let (mut degree, mut neighbor) = ([0u64], [NodeId::default()]);
            topo.degrees_into(&nodes[..1], &mut degree).unwrap();
            topo.pick_neighbors_into(&picks[..1], &mut neighbor)
                .unwrap();
            assert_eq!((degree[0], neighbor[0]), (want[0], want_n[0]));
        }
        assert!(disk.stats().bytes_read > 0);
        assert_eq!(mem.stats().bytes_read, 0, "memory does no I/O");
        // Access counters are uniform across tiers.
        assert_eq!(disk.stats().gathers, mem.stats().gathers);
        assert_eq!(disk.stats().nodes_gathered, mem.stats().nodes_gathered);
        assert_eq!(disk.stats().feature_bytes, mem.stats().feature_bytes);
        disk.reset_stats();
        assert_eq!(disk.stats(), StoreStats::default());
    }

    #[test]
    fn handles_share_the_cache_but_not_the_counters() {
        let g = graph(60, 0x71);
        let file = ScratchFile::new("topo-handles");
        write_graph_file(file.path(), &g).unwrap();
        let shared = Arc::new(SharedCsrFile::open(file.path()).unwrap());
        let mut a = FileTopology::new(Arc::clone(&shared));
        let mut b = FileTopology::new(Arc::clone(&shared));
        let nodes: Vec<NodeId> = (0..60u32).map(NodeId::new).collect();
        let mut out = vec![0u64; 60];
        a.degrees_into(&nodes, &mut out).unwrap();
        b.degrees_into(&nodes, &mut out).unwrap();
        assert!(a.stats().page_misses > 0);
        assert_eq!(b.stats().page_misses, 0, "B rides A's cached pages");
        assert!(b.stats().page_hits > 0);
        assert_eq!(a.stats().gathers, 1);
        assert_eq!(b.stats().gathers, 1);
    }

    #[test]
    fn out_of_range_and_bad_buffers_are_typed() {
        let g = graph(8, 0x72);
        let mut mem = InMemoryTopology::new(g);
        let mut out = vec![0u64; 1];
        assert!(matches!(
            mem.degrees_into(&[NodeId::new(8)], &mut out).unwrap_err(),
            StoreError::NodeOutOfRange { num_nodes: 8, .. }
        ));
        assert!(matches!(
            mem.degrees_into(&[NodeId::new(0), NodeId::new(1)], &mut out)
                .unwrap_err(),
            StoreError::BadBuffer {
                expected: 2,
                actual: 1
            }
        ));
        assert_eq!(mem.stats().gathers, 0, "failed reads count nothing");
    }
}
