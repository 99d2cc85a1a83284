//! On-SSD graph file layout.
//!
//! The graph dataset is serialized into one logical byte space (paper
//! Fig 10): the offset table first, then the neighbor edge-list array
//! from the next 4 KiB boundary. [`GraphFile`] answers the address
//! arithmetic every system needs: *where do node `u`'s offset entries
//! and neighbor IDs live, and which logical blocks does that span?* The
//! modeled SSD lays the graph out from byte 0; the store's real
//! `SSGRPH01` file is the same layout placed after its header
//! ([`GraphFile::at`]).

use smartsage_graph::csr::NEIGHBOR_ENTRY_BYTES;
use smartsage_graph::{CsrGraph, NodeId};

/// Alignment of the edge-list array.
const BLOCK_BYTES: u64 = 4096;

/// A contiguous byte range within the graph file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ByteRange {
    /// Starting byte offset.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl ByteRange {
    /// The logical blocks (of `block_bytes` each) this range touches,
    /// as `first_lba..=last_lba`. Empty ranges return `None`.
    #[inline]
    pub fn blocks(&self, block_bytes: u64) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let last = self.offset + self.len - 1;
        // A shift when blocks are a power of two (the default 4 KiB): a
        // division per range is a measurable share of a cached pick.
        Some(if block_bytes.is_power_of_two() {
            let shift = block_bytes.trailing_zeros();
            (self.offset >> shift, last >> shift)
        } else {
            (self.offset / block_bytes, last / block_bytes)
        })
    }

    /// Number of blocks the range touches.
    pub fn block_count(&self, block_bytes: u64) -> u64 {
        match self.blocks(block_bytes) {
            Some((f, l)) => l - f + 1,
            None => 0,
        }
    }
}

/// Layout of one graph dataset in the SSD's logical byte space.
///
/// # Example
///
/// ```
/// use smartsage_graph::{CsrGraph, NodeId};
/// use smartsage_hostio::GraphFile;
/// let g = CsrGraph::from_edges(3, [(0, 1), (0, 2), (1, 0)]);
/// let f = GraphFile::new(&g);
/// let r = f.edge_list_range(&g, NodeId::new(1));
/// assert_eq!(r.len, 8); // one neighbor entry
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphFile {
    /// Byte offset where the offset table begins.
    offset_table_base: u64,
    /// Byte offset where the edge-list array begins.
    edge_array_base: u64,
    /// Total file size in bytes.
    total_bytes: u64,
}

impl GraphFile {
    /// Computes the layout for `graph` from byte 0.
    pub fn new(graph: &CsrGraph) -> Self {
        GraphFile::at(0, graph.num_nodes() as u64, graph.num_edges())
            .expect("an in-memory graph's layout fits in u64")
    }

    /// The layout of a `nodes`-node, `edges`-edge graph whose offset
    /// table begins at byte `base` (block-aligned, so the edge array
    /// is too), or `None` when its end does not fit in a `u64`.
    pub fn at(base: u64, nodes: u64, edges: u64) -> Option<GraphFile> {
        let offset_table_end = nodes
            .checked_add(1)?
            .checked_mul(NEIGHBOR_ENTRY_BYTES)?
            .checked_add(base)?;
        let edge_array_base = offset_table_end.checked_next_multiple_of(BLOCK_BYTES)?;
        Some(GraphFile {
            offset_table_base: base,
            edge_array_base,
            total_bytes: edges
                .checked_mul(NEIGHBOR_ENTRY_BYTES)?
                .checked_add(edge_array_base)?,
        })
    }

    /// Byte range of the two offset-table entries for `node` (degree +
    /// start position; they are adjacent, so one 16-byte range).
    pub fn offset_entry_range(&self, node: NodeId) -> ByteRange {
        ByteRange {
            offset: self.offset_table_base + node.index() as u64 * NEIGHBOR_ENTRY_BYTES,
            len: 2 * NEIGHBOR_ENTRY_BYTES,
        }
    }

    /// Byte range of `count` consecutive edge-list entries starting at
    /// absolute edge index `first`.
    pub fn edge_entries(&self, first: u64, count: u64) -> ByteRange {
        ByteRange {
            offset: self.edge_array_base + first * NEIGHBOR_ENTRY_BYTES,
            len: count * NEIGHBOR_ENTRY_BYTES,
        }
    }

    /// Byte range of `node`'s neighbor-ID list in the edge-list array.
    pub fn edge_list_range(&self, graph: &CsrGraph, node: NodeId) -> ByteRange {
        self.edge_entries(graph.edge_list_start(node), graph.degree(node))
    }

    /// Total file size in bytes.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> CsrGraph {
        // Degrees: 3, 1, 0, 2
        CsrGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 0), (3, 0), (3, 1)])
    }

    #[test]
    fn layout_regions_do_not_overlap() {
        let g = graph();
        let f = GraphFile::new(&g);
        let offset_end = (g.num_nodes() as u64 + 1) * NEIGHBOR_ENTRY_BYTES;
        let edge_array = f.edge_entries(0, g.num_edges());
        assert!(edge_array.offset >= offset_end);
        assert_eq!(edge_array.offset % 4096, 0, "edge array is block-aligned");
        assert_eq!(f.total_bytes(), edge_array.offset + edge_array.len);
    }

    #[test]
    fn edge_list_ranges_are_contiguous_and_ordered() {
        let g = graph();
        let f = GraphFile::new(&g);
        let r0 = f.edge_list_range(&g, NodeId::new(0));
        let r1 = f.edge_list_range(&g, NodeId::new(1));
        assert_eq!(r0.len, 3 * 8);
        assert_eq!(r1.offset, r0.offset + r0.len);
        let r2 = f.edge_list_range(&g, NodeId::new(2));
        assert_eq!(r2.len, 0, "isolated node has empty range");
    }

    #[test]
    fn block_math() {
        let r = ByteRange {
            offset: 4090,
            len: 20,
        };
        assert_eq!(r.blocks(4096), Some((0, 1)));
        assert_eq!(r.block_count(4096), 2);
        let empty = ByteRange { offset: 10, len: 0 };
        assert_eq!(empty.blocks(4096), None);
        assert_eq!(empty.block_count(4096), 0);
        let exact = ByteRange {
            offset: 8192,
            len: 4096,
        };
        assert_eq!(exact.blocks(4096), Some((2, 2)));
    }

    #[test]
    fn offset_entries_are_adjacent_pairs() {
        let g = graph();
        let f = GraphFile::new(&g);
        let e = f.offset_entry_range(NodeId::new(2));
        assert_eq!(e.offset, 16);
        assert_eq!(e.len, 16);
    }

    #[test]
    fn a_based_layout_is_the_modeled_one_shifted_and_overflow_is_none() {
        let g = graph();
        let modeled = GraphFile::new(&g);
        let based = GraphFile::at(4096, 4, 6).unwrap();
        let shifted = |r: ByteRange| ByteRange {
            offset: r.offset + 4096,
            ..r
        };
        for node in g.node_ids() {
            assert_eq!(
                based.offset_entry_range(node),
                shifted(modeled.offset_entry_range(node))
            );
            assert_eq!(
                based.edge_list_range(&g, node),
                shifted(modeled.edge_list_range(&g, node))
            );
        }
        assert_eq!(based.total_bytes(), modeled.total_bytes() + 4096);
        assert_eq!(GraphFile::at(4096, u32::MAX as u64, u64::MAX / 8), None);
    }
}
