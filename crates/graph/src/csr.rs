//! Compressed-sparse-row graph representation.
//!
//! The **neighbor edge-list array** (paper Fig 10) stores every node's
//! neighbor IDs contiguously; a separate offset array locates each node's
//! slice. This is exactly the layout serialized onto the simulated SSD by
//! `smartsage-hostio::GraphFile`, so byte offsets computed here are the
//! logical block addresses the SSD systems fetch.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a graph node.
///
/// A newtype (rather than a bare `u32`) so node identifiers cannot be
/// confused with subgraph-local indices or edge positions.
///
/// # Example
///
/// ```
/// use smartsage_graph::NodeId;
/// let n = NodeId::new(7);
/// assert_eq!(n.index(), 7);
/// assert_eq!(format!("{n}"), "n7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw `u32` value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `usize` index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for NodeId {
    fn from(raw: u32) -> Self {
        NodeId(raw)
    }
}

impl From<NodeId> for u32 {
    fn from(id: NodeId) -> u32 {
        id.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Bytes used per neighbor entry in the on-SSD edge-list array.
///
/// The paper characterizes sampling as "fine-grained 8 byte read
/// transactions" (§III-B); we match that entry width.
pub const NEIGHBOR_ENTRY_BYTES: u64 = 8;

/// A directed graph in compressed-sparse-row form.
///
/// Invariants (checked by [`CsrGraph::validate`], upheld by the builder):
///
/// * `offsets.len() == num_nodes + 1`, `offsets[0] == 0`, non-decreasing;
/// * `offsets[num_nodes] == targets.len()`;
/// * every target id is `< num_nodes`.
///
/// # Example
///
/// ```
/// use smartsage_graph::{CsrGraph, NodeId};
/// let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 0)]);
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
/// assert_eq!(g.num_edges(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    targets: Vec<NodeId>,
    /// [`CsrGraph::content_hash`], computed on first use: a built graph
    /// never changes.
    content_hash: OnceLock<u64>,
}

/// Two graphs are equal when their CSR arrays are; whether either has
/// been hashed yet does not matter.
impl PartialEq for CsrGraph {
    fn eq(&self, other: &CsrGraph) -> bool {
        self.offsets == other.offsets && self.targets == other.targets
    }
}

impl Eq for CsrGraph {}

impl CsrGraph {
    /// Builds a graph from an edge iterator over raw `(src, dst)` pairs.
    ///
    /// Edges are grouped by source via counting sort; duplicate edges are
    /// kept (multigraphs are legal inputs for sampling).
    ///
    /// # Panics
    ///
    /// Panics if any endpoint is `>= num_nodes` or `num_nodes` exceeds
    /// `u32::MAX`.
    pub fn from_edges<I>(num_nodes: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (u32, u32)>,
    {
        assert!(num_nodes <= u32::MAX as usize, "too many nodes for u32 ids");
        let edges: Vec<(u32, u32)> = edges.into_iter().collect();
        let mut counts = vec![0u64; num_nodes + 1];
        for &(s, d) in &edges {
            assert!(
                (s as usize) < num_nodes && (d as usize) < num_nodes,
                "edge ({s},{d}) out of bounds for {num_nodes} nodes"
            );
            counts[s as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let offsets = counts;
        let mut cursor: Vec<u64> = offsets[..num_nodes].to_vec();
        let mut targets = vec![NodeId::default(); edges.len()];
        for &(s, d) in &edges {
            let pos = cursor[s as usize];
            targets[pos as usize] = NodeId::new(d);
            cursor[s as usize] += 1;
        }
        let g = CsrGraph {
            offsets,
            targets,
            content_hash: OnceLock::new(),
        };
        debug_assert!(g.validate().is_ok());
        g
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of (directed) edges.
    #[inline]
    pub fn num_edges(&self) -> u64 {
        self.targets.len() as u64
    }

    /// Average out-degree.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            0.0
        } else {
            self.num_edges() as f64 / self.num_nodes() as f64
        }
    }

    /// Out-degree of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn degree(&self, node: NodeId) -> u64 {
        let i = node.index();
        self.offsets[i + 1] - self.offsets[i]
    }

    /// The neighbor slice of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of bounds.
    #[inline]
    pub fn neighbors(&self, node: NodeId) -> &[NodeId] {
        let i = node.index();
        &self.targets[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The `k`-th neighbor of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `k` is out of bounds.
    #[inline]
    pub fn neighbor(&self, node: NodeId, k: u64) -> NodeId {
        let i = node.index();
        debug_assert!(k < self.degree(node));
        self.targets[(self.offsets[i] + k) as usize]
    }

    /// Start offset (in neighbor entries) of `node`'s edge list within the
    /// global edge-list array — the quantity the on-SSD layout is keyed by.
    #[inline]
    pub fn edge_list_start(&self, node: NodeId) -> u64 {
        self.offsets[node.index()]
    }

    /// Total size of the edge-list array in bytes (on-SSD layout).
    pub fn edge_array_bytes(&self) -> u64 {
        self.num_edges() * NEIGHBOR_ENTRY_BYTES
    }

    /// Iterates over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId::new)
    }

    /// Iterates over all edges as `(src, dst)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.node_ids()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Checks all CSR invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant.
    pub fn validate(&self) -> Result<(), CsrError> {
        if self.offsets.is_empty() {
            return Err(CsrError::EmptyOffsets);
        }
        if self.offsets[0] != 0 {
            return Err(CsrError::BadFirstOffset(self.offsets[0]));
        }
        for w in self.offsets.windows(2) {
            if w[0] > w[1] {
                return Err(CsrError::DecreasingOffsets);
            }
        }
        let last = *self.offsets.last().expect("non-empty");
        if last != self.targets.len() as u64 {
            return Err(CsrError::OffsetTargetMismatch {
                last_offset: last,
                targets: self.targets.len() as u64,
            });
        }
        let n = self.num_nodes() as u32;
        for &t in &self.targets {
            if t.raw() >= n {
                return Err(CsrError::TargetOutOfBounds {
                    target: t.raw(),
                    nodes: n,
                });
            }
        }
        Ok(())
    }

    /// Maximum out-degree (0 for an empty graph).
    pub fn max_degree(&self) -> u64 {
        self.node_ids().map(|n| self.degree(n)).max().unwrap_or(0)
    }

    /// FNV-1a hash of the full CSR content (node and edge counts, each
    /// node's edge-list start, every neighbor id), so distinct graphs
    /// cannot collide on a content key. One O(edges) pass, paid once per
    /// graph: the value is kept for later calls.
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            let mut h: u64 = 0xcbf29ce484222325;
            let mut mix = |v: u64| {
                for b in v.to_le_bytes() {
                    h ^= b as u64;
                    h = h.wrapping_mul(0x100000001b3);
                }
            };
            mix(self.num_nodes() as u64);
            mix(self.num_edges());
            for node in self.node_ids() {
                mix(self.edge_list_start(node));
                for &t in self.neighbors(node) {
                    mix(t.raw() as u64);
                }
            }
            h
        })
    }
}

/// Errors from [`CsrGraph::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// The offsets array was empty (must contain at least `[0]`).
    EmptyOffsets,
    /// The first offset was not zero.
    BadFirstOffset(u64),
    /// Offsets were not non-decreasing.
    DecreasingOffsets,
    /// The final offset disagreed with the target array length.
    OffsetTargetMismatch {
        /// Value of `offsets[num_nodes]`.
        last_offset: u64,
        /// Length of the targets array.
        targets: u64,
    },
    /// A target node id exceeded the node count.
    TargetOutOfBounds {
        /// The offending target id.
        target: u32,
        /// Number of nodes in the graph.
        nodes: u32,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::EmptyOffsets => write!(f, "offsets array is empty"),
            CsrError::BadFirstOffset(v) => write!(f, "first offset is {v}, expected 0"),
            CsrError::DecreasingOffsets => write!(f, "offsets are not non-decreasing"),
            CsrError::OffsetTargetMismatch {
                last_offset,
                targets,
            } => write!(
                f,
                "last offset {last_offset} does not match target count {targets}"
            ),
            CsrError::TargetOutOfBounds { target, nodes } => {
                write!(f, "target id {target} out of bounds for {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for CsrError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        CsrGraph::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0)])
    }

    #[test]
    fn builder_groups_by_source() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 5);
        assert_eq!(
            g.neighbors(NodeId::new(0)),
            &[NodeId::new(1), NodeId::new(2)]
        );
        assert_eq!(g.neighbors(NodeId::new(3)), &[NodeId::new(0)]);
        assert_eq!(g.degree(NodeId::new(1)), 1);
        assert_eq!(g.neighbor(NodeId::new(0), 1), NodeId::new(2));
    }

    #[test]
    fn builder_keeps_duplicates_and_input_order_within_source() {
        let g = CsrGraph::from_edges(3, [(0, 2), (0, 2), (0, 1)]);
        assert_eq!(
            g.neighbors(NodeId::new(0)),
            &[NodeId::new(2), NodeId::new(2), NodeId::new(1)]
        );
    }

    #[test]
    fn empty_graph_is_valid() {
        let g = CsrGraph::from_edges(0, []);
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert!(g.validate().is_ok());
    }

    #[test]
    fn isolated_nodes_have_zero_degree() {
        let g = CsrGraph::from_edges(5, [(0, 4)]);
        assert_eq!(g.degree(NodeId::new(2)), 0);
        assert!(g.neighbors(NodeId::new(2)).is_empty());
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn builder_rejects_out_of_range_edges() {
        CsrGraph::from_edges(2, [(0, 5)]);
    }

    #[test]
    fn byte_layout_matches_entry_width() {
        let g = diamond();
        assert_eq!(g.edge_array_bytes(), 5 * NEIGHBOR_ENTRY_BYTES);
        assert_eq!(g.edge_list_start(NodeId::new(0)), 0);
        assert_eq!(g.edge_list_start(NodeId::new(1)), 2);
        assert_eq!(g.degree(NodeId::new(0)), 2);
    }

    #[test]
    fn from_parts_validates() {
        let check = |offsets: Vec<u64>, targets: Vec<u32>| {
            let targets = targets.into_iter().map(NodeId::new).collect();
            CsrGraph {
                offsets,
                targets,
                content_hash: OnceLock::new(),
            }
            .validate()
        };
        assert!(check(vec![0, 1], vec![0]).is_ok());
        assert_eq!(check(vec![], vec![]).unwrap_err(), CsrError::EmptyOffsets);
        assert_eq!(
            check(vec![1, 1], vec![0]).unwrap_err(),
            CsrError::BadFirstOffset(1)
        );
        assert_eq!(
            check(vec![0, 2, 1], vec![0]).unwrap_err(),
            CsrError::DecreasingOffsets
        );
        assert!(matches!(
            check(vec![0, 2], vec![0]).unwrap_err(),
            CsrError::OffsetTargetMismatch { .. }
        ));
        assert!(matches!(
            check(vec![0, 1], vec![9]).unwrap_err(),
            CsrError::TargetOutOfBounds { .. }
        ));
    }

    #[test]
    fn edges_iterator_roundtrips() {
        let input = vec![(0u32, 1u32), (0, 2), (1, 3), (2, 3), (3, 0)];
        let g = CsrGraph::from_edges(4, input.clone());
        let out: Vec<(u32, u32)> = g.edges().map(|(a, b)| (a.raw(), b.raw())).collect();
        assert_eq!(out, input);
    }

    #[test]
    fn content_hash_is_pinned_and_does_not_affect_equality() {
        // The FNV-1a value the store's content-keyed graph file names
        // carry: a changed hash renames every published `.gbin`.
        let hashed = diamond();
        assert_eq!(hashed.content_hash(), 0xc31990ef72236f02);
        let fresh = diamond();
        assert_eq!(hashed, fresh);
        assert_eq!(hashed.clone(), fresh);
        assert_eq!(fresh.clone(), hashed);
        assert_ne!(
            CsrGraph::from_edges(4, [(0, 1)]).content_hash(),
            hashed.content_hash()
        );
    }

    #[test]
    fn error_display_is_nonempty() {
        let errs: Vec<CsrError> = vec![
            CsrError::EmptyOffsets,
            CsrError::BadFirstOffset(3),
            CsrError::DecreasingOffsets,
            CsrError::OffsetTargetMismatch {
                last_offset: 1,
                targets: 2,
            },
            CsrError::TargetOutOfBounds {
                target: 7,
                nodes: 2,
            },
        ];
        for e in errs {
            assert!(!format!("{e}").is_empty());
        }
    }
}
