//! Routed stores: the dataset partitioned by node range across N
//! modeled SSDs behind the ordinary store interfaces.
//!
//! SmartSAGE's single-SSD in-storage model is a one-device ceiling;
//! this module lifts it by partitioning the node space into contiguous
//! ranges, one per device, with each device backed by its own file —
//! and therefore its own page cache, its own [`smartsage_storage::Ssd`]
//! timing model, and its own ISP cores. One device is the 1-way
//! partition of the same construction — what `open_tiers` opens for an
//! unsharded dataset — not a second code path. A
//! [`ShardedFeatureStore`] / [`ShardedTopology`] answers each batched
//! call through one private router:
//!
//! 1. **Place** — one pass validates every node id (so a bad id fails
//!    before any member does I/O) and finds each element's owning
//!    member (a binary search over the contiguous ranges).
//! 2. **Owned request** — when one member owns the whole request
//!    (always, at one device; often, for a small serve request at N)
//!    it answers straight into the caller's buffer: no sub-batch, no
//!    answer buffer, no copy back. So does each member of a request
//!    ordered by owner (a sorted gather), for its own run of it.
//! 3. **Split request** — otherwise the request is scattered into
//!    per-member sub-batches (in scratch kept across calls), each
//!    resolved by its member's ordinary single-device store (so all
//!    existing coalescing — [`smartsage_hostio::merge_page_runs`], the
//!    ISP cost pass — is reused unchanged, per device), and the answers
//!    are merged back by recorded request position.
//!
//! Because every member store is bit-deterministic and the placement is
//! a pure function of the node list, the merged answer is bit-identical
//! at every device count *by construction*; the conformance suite
//! (`tests/sharded_store_conformance.rs`) asserts it by measurement.
//!
//! # Shard layout
//!
//! * **Feature shards** hold their range's rows at *local* indices
//!   (global node `start + j` is row `j`), so each shard file is an
//!   ordinary self-contained `SSFEAT01` file of `end − start` rows.
//! * **Graph shards** keep the *global* node count in their header and
//!   a full-length offset array clamped to the shard's edge window, so
//!   each shard file is an ordinary `SSGRPH01` file that answers its
//!   own nodes exactly and reports degree 0 elsewhere (the router never
//!   asks a shard about nodes outside its range). Neighbor ids stay
//!   global — no id translation on the topology axis; a feature
//!   sub-batch is translated only for a range that does not start at 0.
//!
//! The files are the registry's: [`StoreRegistry::open_feature_shards`]
//! / [`StoreRegistry::open_graph_shards`] publish one per
//! [`shard_ranges`] range under a `-p{i}of{k}` content key, and
//! [`ShardedFeatureStore::over_files`] / [`ShardedTopology::over_files`]
//! check them against each other before anything is read — a range that
//! does not continue from its predecessor is [`StoreError::ShardLayout`],
//! a file whose geometry disagrees is [`StoreError::ShardGeometry`],
//! both naming the file and shard.
//!
//! [`StoreRegistry::open_feature_shards`]: crate::StoreRegistry::open_feature_shards
//! [`StoreRegistry::open_graph_shards`]: crate::StoreRegistry::open_graph_shards
//!
//! # Stats scoping
//!
//! The merged [`StoreStats`] keeps the access-level counters
//! (`gathers`, `nodes_gathered`, `feature_bytes`) at the routed store
//! itself — one per caller-visible call, identical at any device count
//! (an empty request counts one access and asks no member) — and sums
//! the I/O-level counters over the members. `shard_stats()` exposes
//! the per-member breakdown; its I/O fields (and
//! `nodes_gathered`/`feature_bytes`) sum exactly to the merged totals,
//! while per-shard `gathers` counts the *sub*-calls routed to that
//! device.

use crate::error::StoreError;
use crate::graph_file::SharedCsrFile;
use crate::handle::StoreHandle;
use crate::isp::{IspGatherOptions, IspGatherStore};
use crate::isp_topology::IspSampleTopology;
use crate::mem::InMemoryStore;
use crate::shared::SharedFileStore;
use crate::topology::{check_out_len, count_answers, FileTopology, InMemoryTopology};
use crate::{FeatureStore, StoreStats, TopologyStore};
use smartsage_graph::generate::community_of;
use smartsage_graph::{CsrGraph, FeatureTable, NodeId};
use std::sync::Arc;

/// The contiguous node ranges of an N-way partition: an even split
/// with the remainder spread over the first shards, so ranges differ
/// in length by at most one. When `shards > num_nodes` the tail
/// shards are empty — legal, and covered by the conformance suite.
pub fn shard_ranges(num_nodes: usize, shards: usize) -> Vec<(usize, usize)> {
    assert!(shards > 0, "a partition needs at least one shard");
    let base = num_nodes / shards;
    let extra = num_nodes % shards;
    let mut out = Vec::with_capacity(shards);
    let mut start = 0;
    for i in 0..shards {
        let len = base + usize::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

/// Which shard holds global node index `idx`. `ranges` must tile
/// `0..num_nodes` contiguously and `idx` must be below the last end
/// (both enforced before any routing happens).
fn shard_of(ranges: &[(usize, usize)], idx: usize) -> usize {
    ranges.partition_point(|&(_, end)| end <= idx)
}

/// A routed store's totals: the members' I/O-level counters summed,
/// under the access-level counters (`gathers`, `nodes_gathered`,
/// `feature_bytes`) kept once at the routed store itself (see the
/// module docs on stats scoping).
fn merged(access: StoreStats, members: &[StoreStats]) -> StoreStats {
    let mut io = StoreStats::default();
    for member in members {
        io.accumulate(member);
    }
    StoreStats {
        gathers: access.gathers,
        nodes_gathered: access.nodes_gathered,
        feature_bytes: access.feature_bytes,
        ..io
    }
}

/// What a split request is scattered through, kept across calls so a
/// store allocates only while its largest request is still growing.
#[derive(Debug, Default)]
struct Scratch<Q, A> {
    /// Owning member of each request element.
    owners: Vec<u32>,
    /// Per member: its element count, then the end of its sub-batch.
    ends: Vec<usize>,
    /// The sub-batches, grouped by member in member order.
    routed: Vec<Q>,
    /// Request position of each routed element.
    positions: Vec<usize>,
    /// One member's answers at a time.
    answers: Vec<A>,
}

/// The one scatter/merge implementation behind both routed stores (see
/// the module docs), over the partition's geometry.
#[derive(Debug)]
struct Router {
    /// Contiguous node range per member, tiling `0..num_nodes`.
    ranges: Vec<(usize, usize)>,
    /// Answer elements per request element (the feature dimension; 1
    /// on the topology axis).
    width: usize,
}

impl Router {
    fn num_nodes(&self) -> usize {
        self.ranges.last().map_or(0, |&(_, end)| end)
    }

    /// Answers `requests` — each owned by the member holding
    /// `node_of(request)` — into `out` through `resolve(member,
    /// sub-batch, answers)`; sub-batches keep global ids. The whole
    /// request is validated *first*, and an empty one asks no member.
    fn route<Q: Copy, A: Copy + Default>(
        &self,
        s: &mut Scratch<Q, A>,
        requests: &[Q],
        node_of: impl Fn(&Q) -> NodeId,
        out: &mut [A],
        mut resolve: impl FnMut(usize, &[Q], &mut [A]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let (width, num_nodes) = (self.width, self.num_nodes());
        check_out_len(requests.len() * width, out)?;
        s.owners.clear();
        s.ends.clear();
        s.ends.resize(self.ranges.len(), 0);
        let (mut ascending, mut last) = (true, 0);
        for node in requests.iter().map(node_of) {
            if node.index() >= num_nodes {
                return Err(StoreError::NodeOutOfRange { node, num_nodes });
            }
            let member = shard_of(&self.ranges, node.index());
            ascending &= member >= last;
            last = member;
            s.owners.push(member as u32);
            s.ends[member] += 1;
        }
        if ascending {
            // Each member's elements are one run of the request, in
            // member order: every owner answers its run in place. One
            // member owning the whole request is the one-run case.
            let mut start = 0;
            for run in s.owners.chunk_by(|a, b| a == b) {
                let end = start + run.len();
                let answers = &mut out[start * width..end * width];
                resolve(run[0] as usize, &requests[start..end], answers)?;
                start = end;
            }
            return Ok(());
        }
        // Counts become sub-batch starts; placing an element advances
        // its member's start, leaving each member's end behind.
        let mut start = 0;
        for end in s.ends.iter_mut() {
            start += *end;
            *end = start - *end;
        }
        s.routed.resize(requests.len(), requests[0]);
        s.positions.resize(requests.len(), 0);
        for (pos, (&request, &owner)) in requests.iter().zip(&s.owners).enumerate() {
            let slot = &mut s.ends[owner as usize];
            s.routed[*slot] = request;
            s.positions[*slot] = pos;
            *slot += 1;
        }
        let mut start = 0;
        for (member, &end) in s.ends.iter().enumerate() {
            if end == start {
                continue;
            }
            // Members write every answer, so stale scratch never shows.
            let need = (end - start) * width;
            if s.answers.len() < need {
                s.answers.resize(need, A::default());
            }
            let answers = &mut s.answers[..need];
            resolve(member, &s.routed[start..end], answers)?;
            for (answer, &pos) in answers.chunks_exact(width).zip(&s.positions[start..end]) {
                out[pos * width..(pos + 1) * width].copy_from_slice(answer);
            }
            start = end;
        }
        Ok(())
    }
}

/// Checks that the graph and feature sides of a dataset (one file each
/// when unsharded) are partitioned compatibly: same shard count
/// ([`StoreError::ShardCountMismatch`] otherwise) and the feature rows
/// summing to the graph's global node count
/// ([`StoreError::NodeCountMismatch`] otherwise).
pub fn check_sharded_population(
    graphs: &[Arc<SharedCsrFile>],
    features: &[Arc<SharedFileStore>],
) -> Result<(), StoreError> {
    assert!(
        !graphs.is_empty() && !features.is_empty(),
        "a sharded dataset needs at least one shard on each axis"
    );
    if graphs.len() != features.len() {
        return Err(StoreError::ShardCountMismatch {
            graph: graphs[0].path().to_path_buf(),
            graph_shards: graphs.len(),
            features: features[0].path().to_path_buf(),
            feature_shards: features.len(),
        });
    }
    let graph_nodes = graphs[0].num_nodes();
    let feature_nodes: usize = features.iter().map(|f| f.num_nodes()).sum();
    if graph_nodes != feature_nodes {
        return Err(StoreError::NodeCountMismatch {
            graph: graphs[0].path().to_path_buf(),
            graph_nodes,
            features: features[0].path().to_path_buf(),
            feature_nodes,
        });
    }
    Ok(())
}

/// A [`FeatureStore`] over N ≥ 1 per-device member stores, each holding
/// one contiguous node range at local indices. Gathers are routed by
/// owner — in place when one member owns them all, else scattered and
/// merged back in request order — bit-identical at every device count
/// by construction (module docs). The merged stats keep access
/// counters here and sum the members' I/O counters; `shard_stats()` is
/// the per-device breakdown.
#[derive(Debug)]
pub struct ShardedFeatureStore {
    members: Vec<Box<dyn FeatureStore + Send>>,
    router: Router,
    scratch: Scratch<NodeId, f32>,
    /// One sub-batch in its member's local ids.
    locals: Vec<NodeId>,
    num_classes: usize,
    access: StoreStats,
}

impl ShardedFeatureStore {
    /// The mem tier: `shards` [`InMemoryStore`] windows onto one table, split by
    /// [`shard_ranges`]. No I/O — but the same routing as the file
    /// tiers, which is what the conformance suite leans on.
    pub fn mem(table: FeatureTable, num_nodes: usize, shards: usize) -> ShardedFeatureStore {
        let ranges = shard_ranges(num_nodes, shards);
        let dim = table.dim();
        let num_classes = table.num_classes();
        let members = ranges
            .iter()
            .map(|&(start, end)| {
                Box::new(InMemoryStore::window(table.clone(), start, end - start))
                    as Box<dyn FeatureStore + Send>
            })
            .collect();
        ShardedFeatureStore::new(members, ranges, dim, num_classes)
    }

    /// The host-path file tier: one scoped [`StoreHandle`] per shard
    /// file. Ranges are derived from the files' cumulative row counts.
    pub fn over_files(files: &[Arc<SharedFileStore>]) -> Result<ShardedFeatureStore, StoreError> {
        ShardedFeatureStore::build_over(files, |f| Box::new(StoreHandle::new(Arc::clone(f))))
    }

    /// The ISP tier: one [`IspGatherStore`] — its own SSD timing model
    /// and ISP cores — per shard file.
    pub fn over_isp(
        files: &[Arc<SharedFileStore>],
        opts: IspGatherOptions,
    ) -> Result<ShardedFeatureStore, StoreError> {
        ShardedFeatureStore::build_over(files, move |f| {
            Box::new(IspGatherStore::over(Arc::clone(f), opts.clone()))
        })
    }

    fn new(
        members: Vec<Box<dyn FeatureStore + Send>>,
        ranges: Vec<(usize, usize)>,
        dim: usize,
        num_classes: usize,
    ) -> ShardedFeatureStore {
        ShardedFeatureStore {
            members,
            router: Router { ranges, width: dim },
            scratch: Scratch::default(),
            locals: Vec::new(),
            num_classes,
            access: StoreStats::default(),
        }
    }

    fn build_over(
        files: &[Arc<SharedFileStore>],
        make: impl Fn(&Arc<SharedFileStore>) -> Box<dyn FeatureStore + Send>,
    ) -> Result<ShardedFeatureStore, StoreError> {
        assert!(
            !files.is_empty(),
            "a sharded store needs at least one shard"
        );
        let dim = files[0].dim();
        let num_classes = files[0].num_classes();
        let mut ranges = Vec::with_capacity(files.len());
        let mut start = 0usize;
        for (i, f) in files.iter().enumerate() {
            if f.dim() != dim || f.num_classes() != num_classes {
                return Err(StoreError::ShardGeometry {
                    path: f.path().to_path_buf(),
                    shard: i,
                    reason: format!(
                        "dim {} / classes {} disagree with shard 0's dim {dim} / classes \
                         {num_classes}",
                        f.dim(),
                        f.num_classes()
                    ),
                });
            }
            ranges.push((start, start + f.num_nodes()));
            start += f.num_nodes();
        }
        let members = files.iter().map(make).collect();
        Ok(ShardedFeatureStore::new(members, ranges, dim, num_classes))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }
}

impl FeatureStore for ShardedFeatureStore {
    fn dim(&self) -> usize {
        self.router.width
    }

    fn num_classes(&self) -> usize {
        self.num_classes
    }

    fn num_nodes(&self) -> usize {
        self.router.num_nodes()
    }

    fn label(&self, node: NodeId) -> usize {
        // Labels are a global property (community of the global node
        // id); asking a member would answer in its local id space.
        community_of(node, self.num_classes)
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        let (members, locals, ranges) = (&mut self.members, &mut self.locals, &self.router.ranges);
        let resolve = |member: usize, nodes: &[NodeId], rows: &mut [f32]| {
            // A member holds its rows at local indices: ids are
            // translated only when its range does not start at 0.
            let start = ranges[member].0;
            if start == 0 {
                return members[member].gather_into(nodes, rows);
            }
            let local = |node: &NodeId| NodeId::new((node.index() - start) as u32);
            locals.clear();
            locals.extend(nodes.iter().map(local));
            members[member].gather_into(locals, rows)
        };
        self.router
            .route(&mut self.scratch, nodes, |&node| node, out, resolve)?;
        self.access.gathers += 1;
        self.access.nodes_gathered += nodes.len() as u64;
        self.access.feature_bytes += nodes.len() as u64 * self.router.width as u64 * 4;
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        merged(self.access, &self.shard_stats())
    }

    fn reset_stats(&mut self) {
        self.access = StoreStats::default();
        for m in &mut self.members {
            m.reset_stats();
        }
    }

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.members.iter().map(|m| m.stats()).collect()
    }
}

/// A [`TopologyStore`] over N ≥ 1 per-device member topologies, each
/// answering the nodes of one contiguous range (by *global* id — the
/// topology axis needs no translation, see the module docs on the
/// graph shard layout). Requests are routed like the feature store's.
#[derive(Debug)]
pub struct ShardedTopology {
    members: Vec<Box<dyn TopologyStore + Send>>,
    router: Router,
    degrees: Scratch<NodeId, u64>,
    picks: Scratch<(NodeId, u64), NodeId>,
    num_edges: u64,
    access: StoreStats,
}

impl ShardedTopology {
    /// The mem tier: `shards` wrappers over one shared graph, split by
    /// [`shard_ranges`]. No I/O, same routing as the file tiers.
    pub fn mem(graph: Arc<CsrGraph>, shards: usize) -> ShardedTopology {
        let ranges = shard_ranges(graph.num_nodes(), shards);
        let members = ranges
            .iter()
            .map(|_| {
                Box::new(InMemoryTopology::from_arc(Arc::clone(&graph)))
                    as Box<dyn TopologyStore + Send>
            })
            .collect();
        ShardedTopology::new(members, ranges, graph.num_edges())
    }

    /// The host-path file tier: one [`FileTopology`] per shard file.
    /// `ranges` must tile `0..num_nodes` (the [`shard_ranges`] the
    /// files were published for); a gap or overlap is
    /// [`StoreError::ShardLayout`].
    pub fn over_files(
        files: &[Arc<SharedCsrFile>],
        ranges: &[(usize, usize)],
    ) -> Result<ShardedTopology, StoreError> {
        ShardedTopology::build_over(files, ranges, |f| {
            Box::new(FileTopology::new(Arc::clone(f)))
        })
    }

    /// The ISP tier: one [`IspSampleTopology`] — its own SSD timing
    /// model — per shard file.
    pub fn over_isp(
        files: &[Arc<SharedCsrFile>],
        ranges: &[(usize, usize)],
        opts: IspGatherOptions,
    ) -> Result<ShardedTopology, StoreError> {
        ShardedTopology::build_over(files, ranges, move |f| {
            Box::new(IspSampleTopology::over(Arc::clone(f), opts.clone()))
        })
    }

    fn new(
        members: Vec<Box<dyn TopologyStore + Send>>,
        ranges: Vec<(usize, usize)>,
        num_edges: u64,
    ) -> ShardedTopology {
        ShardedTopology {
            members,
            router: Router { ranges, width: 1 },
            degrees: Scratch::default(),
            picks: Scratch::default(),
            num_edges,
            access: StoreStats::default(),
        }
    }

    fn build_over(
        files: &[Arc<SharedCsrFile>],
        ranges: &[(usize, usize)],
        make: impl Fn(&Arc<SharedCsrFile>) -> Box<dyn TopologyStore + Send>,
    ) -> Result<ShardedTopology, StoreError> {
        assert!(
            !files.is_empty(),
            "a sharded topology needs at least one shard"
        );
        assert_eq!(files.len(), ranges.len(), "one node range per shard file");
        let mut expected = 0usize;
        for (i, &(start, end)) in ranges.iter().enumerate() {
            if start != expected || start > end {
                return Err(StoreError::ShardLayout {
                    path: files[i].path().to_path_buf(),
                    shard: i,
                    reason: format!("range {start}..{end} does not continue from node {expected}"),
                });
            }
            expected = end;
        }
        let num_nodes = expected;
        let mut num_edges = 0u64;
        for (i, f) in files.iter().enumerate() {
            if f.num_nodes() != num_nodes {
                return Err(StoreError::ShardGeometry {
                    path: f.path().to_path_buf(),
                    shard: i,
                    reason: format!(
                        "graph shard header says {} global nodes, partition covers {num_nodes}",
                        f.num_nodes()
                    ),
                });
            }
            num_edges += f.num_edges();
        }
        let members = files.iter().map(make).collect();
        Ok(ShardedTopology::new(members, ranges.to_vec(), num_edges))
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.members.len()
    }
}

impl TopologyStore for ShardedTopology {
    fn num_nodes(&self) -> usize {
        self.router.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.num_edges
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        let members = &mut self.members;
        let resolve = |member: usize, nodes: &[NodeId], out: &mut [u64]| {
            members[member].degrees_into(nodes, out)
        };
        self.router
            .route(&mut self.degrees, nodes, |&node| node, out, resolve)?;
        count_answers(&mut self.access, nodes.len() as u64);
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        let members = &mut self.members;
        let resolve = |member: usize, picks: &[(NodeId, u64)], out: &mut [NodeId]| {
            members[member].pick_neighbors_into(picks, out)
        };
        self.router
            .route(&mut self.picks, picks, |&(node, _)| node, out, resolve)?;
        count_answers(&mut self.access, picks.len() as u64);
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        merged(self.access, &self.shard_stats())
    }

    fn reset_stats(&mut self) {
        self.access = StoreStats::default();
        for m in &mut self.members {
            m.reset_stats();
        }
    }

    fn shard_stats(&self) -> Vec<StoreStats> {
        self.members.iter().map(|m| m.stats()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::CsrView;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    fn graph(nodes: usize, seed: u64) -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree: 4.0,
            seed,
            ..PowerLawConfig::default()
        })
    }

    #[test]
    fn ranges_tile_exactly() {
        for (n, k) in [(10, 3), (7, 7), (3, 7), (0, 2), (1, 1), (100, 1)] {
            let ranges = shard_ranges(n, k);
            assert_eq!(ranges.len(), k);
            assert_eq!(ranges[0].0, 0);
            assert_eq!(ranges[k - 1].1, n);
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous: {ranges:?}");
            }
            let lens: Vec<usize> = ranges.iter().map(|&(s, e)| e - s).collect();
            let (lo, hi) = (lens.iter().min(), lens.iter().max());
            assert!(hi.unwrap() - lo.unwrap() <= 1, "even split: {lens:?}");
        }
    }

    #[test]
    fn routing_picks_the_owning_shard() {
        let ranges = shard_ranges(10, 3); // (0,4)(4,7)(7,10)
        for idx in 0..10 {
            let s = shard_of(&ranges, idx);
            assert!(ranges[s].0 <= idx && idx < ranges[s].1);
        }
        // Empty tail shards are skipped over, never routed to.
        let ranges = shard_ranges(2, 5);
        assert_eq!(shard_of(&ranges, 0), 0);
        assert_eq!(shard_of(&ranges, 1), 1);
    }

    #[test]
    fn sharded_mem_store_matches_unsharded() {
        let table = FeatureTable::new(7, 4, 0x5A4D);
        let mut solo = InMemoryStore::new(FeatureTable::new(7, 4, 0x5A4D), 23);
        let mut sharded = ShardedFeatureStore::mem(table, 23, 4);
        let nodes: Vec<NodeId> = [22u32, 0, 7, 7, 13, 1, 19].map(NodeId::new).to_vec();
        let a = solo.gather(&nodes).unwrap();
        let b = sharded.gather(&nodes).unwrap();
        assert_eq!(a, b);
        for node in (0..23u32).map(NodeId::new) {
            assert_eq!(solo.label(node), sharded.label(node));
        }
        // Access counters identical to the unsharded store; per-shard
        // nodes sum to the total.
        let (s, t) = (sharded.stats(), solo.stats());
        assert_eq!(s, t);
        let per: u64 = sharded.shard_stats().iter().map(|p| p.nodes_gathered).sum();
        assert_eq!(per, s.nodes_gathered);
    }

    #[test]
    fn sharded_mem_topology_matches_unsharded() {
        let g = Arc::new(graph(31, 0x70B0));
        let mut solo = CsrView::new(&g);
        let mut sharded = ShardedTopology::mem(Arc::clone(&g), 3);
        assert_eq!(sharded.num_nodes(), 31);
        assert_eq!(sharded.num_edges(), g.num_edges());
        let nodes: Vec<NodeId> = (0..31u32).rev().map(NodeId::new).collect();
        let mut want = vec![0u64; nodes.len()];
        let mut got = vec![0u64; nodes.len()];
        solo.degrees_into(&nodes, &mut want).unwrap();
        sharded.degrees_into(&nodes, &mut got).unwrap();
        assert_eq!(want, got);
        let picks: Vec<(NodeId, u64)> = nodes
            .iter()
            .zip(&want)
            .filter(|(_, &d)| d > 0)
            .map(|(&n, &d)| (n, d - 1))
            .collect();
        let mut want_n = vec![NodeId::default(); picks.len()];
        let mut got_n = vec![NodeId::default(); picks.len()];
        solo.pick_neighbors_into(&picks, &mut want_n).unwrap();
        sharded.pick_neighbors_into(&picks, &mut got_n).unwrap();
        assert_eq!(want_n, got_n);
        assert_eq!(sharded.stats(), solo.stats());
    }

    #[test]
    fn out_of_range_requests_fail_before_any_member_counts() {
        let mut store = ShardedFeatureStore::mem(FeatureTable::new(3, 2, 1), 10, 3);
        let err = store.gather(&[NodeId::new(10)]).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { .. }), "{err}");
        assert_eq!(store.stats(), StoreStats::default());
        let mut topo = ShardedTopology::mem(Arc::new(graph(10, 1)), 2);
        let mut out = [0u64];
        let err = topo.degrees_into(&[NodeId::new(10)], &mut out).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { .. }), "{err}");
        assert_eq!(topo.stats(), StoreStats::default());
    }

    #[test]
    fn an_empty_request_counts_one_access_and_asks_no_member() {
        let g = Arc::new(graph(10, 1));
        for shards in [1, 3] {
            let mut store = ShardedFeatureStore::mem(FeatureTable::new(3, 2, 1), 10, shards);
            let mut solo = InMemoryStore::new(FeatureTable::new(3, 2, 1), 10);
            assert_eq!(store.gather(&[]).unwrap(), solo.gather(&[]).unwrap());
            assert_eq!(store.stats(), solo.stats(), "x{shards}");
            assert_eq!(store.stats().gathers, 1);
            assert_eq!(store.shard_stats(), vec![StoreStats::default(); shards]);

            let mut topo = ShardedTopology::mem(Arc::clone(&g), shards);
            let mut solo = CsrView::new(&g);
            topo.degrees_into(&[], &mut []).unwrap();
            topo.pick_neighbors_into(&[], &mut []).unwrap();
            solo.degrees_into(&[], &mut []).unwrap();
            solo.pick_neighbors_into(&[], &mut []).unwrap();
            assert_eq!(topo.stats(), solo.stats(), "x{shards}");
            assert_eq!(topo.stats().gathers, 2);
            assert_eq!(topo.shard_stats(), vec![StoreStats::default(); shards]);
        }
    }
}
