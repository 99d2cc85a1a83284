//! On-SSD graph file layout.
//!
//! The graph dataset is serialized into one logical byte space on the SSD
//! (paper Fig 10): the offset table first, then the neighbor edge-list
//! array. [`GraphFile`] answers the address arithmetic every system
//! needs: *where do node `u`'s neighbor IDs live, and which logical
//! blocks does that span?*

use smartsage_graph::{CsrGraph, NodeId};

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
    pub fn blocks(&self, block_bytes: u64) -> Option<(u64, u64)> {
        if self.len == 0 {
            return None;
        }
        let first = self.offset / block_bytes;
        let last = (self.offset + self.len - 1) / block_bytes;
        Some((first, last))
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
    /// Byte offset where the offset table begins (always 0).
    offset_table_base: u64,
    /// Byte offset where the edge-list array begins.
    edge_array_base: u64,
    /// Total file size in bytes.
    total_bytes: u64,
}

/// Bytes per entry in the offset table (u64 offsets).
pub const OFFSET_ENTRY_BYTES: u64 = 8;

impl GraphFile {
    /// Computes the layout for `graph`.
    pub fn new(graph: &CsrGraph) -> Self {
        let offset_table_bytes = (graph.num_nodes() as u64 + 1) * OFFSET_ENTRY_BYTES;
        // Edge array starts block-aligned after the offset table.
        let edge_array_base = offset_table_bytes.next_multiple_of(4096);
        GraphFile {
            offset_table_base: 0,
            edge_array_base,
            total_bytes: edge_array_base + graph.edge_array_bytes(),
        }
    }

    /// Byte range of the two offset-table entries for `node` (degree +
    /// start position; they are adjacent, so one 16-byte range).
    pub fn offset_entry_range(&self, node: NodeId) -> ByteRange {
        ByteRange {
            offset: self.offset_table_base + node.index() as u64 * OFFSET_ENTRY_BYTES,
            len: 2 * OFFSET_ENTRY_BYTES,
        }
    }

    /// Byte range of `node`'s neighbor-ID list in the edge-list array.
    pub fn edge_list_range(&self, graph: &CsrGraph, node: NodeId) -> ByteRange {
        ByteRange {
            offset: self.edge_array_base + graph.edge_list_byte_offset(node),
            len: graph.edge_list_byte_len(node),
        }
    }

    /// Base of the edge-list array region.
    pub fn edge_array_base(&self) -> u64 {
        self.edge_array_base
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
        let offset_end = (g.num_nodes() as u64 + 1) * OFFSET_ENTRY_BYTES;
        assert!(f.edge_array_base() >= offset_end);
        assert_eq!(f.edge_array_base() % 4096, 0, "edge array is block-aligned");
        assert_eq!(f.total_bytes(), f.edge_array_base() + g.edge_array_bytes());
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
}
