//! The in-memory feature store: today's `FeatureTable`, zero I/O.

use crate::error::StoreError;
use crate::{FeatureStore, StoreStats};
use smartsage_graph::{FeatureTable, NodeId};

/// A [`FeatureStore`] over the synthetic [`FeatureTable`].
///
/// Rows are produced directly into the caller's buffer — there is no
/// copy of the table anywhere, so the I/O counters of [`StoreStats`]
/// stay zero; only the access counters advance.
///
/// # Example
///
/// ```
/// use smartsage_graph::{FeatureTable, NodeId};
/// use smartsage_store::{FeatureStore, InMemoryStore};
/// let mut s = InMemoryStore::new(FeatureTable::new(8, 4, 1), 100);
/// let rows = s.gather(&[NodeId::new(3), NodeId::new(7)]).unwrap();
/// assert_eq!(rows.len(), 16);
/// assert!(s.gather(&[NodeId::new(100)]).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct InMemoryStore {
    table: FeatureTable,
    /// Global id of row 0 (nonzero only for a shard window).
    start: usize,
    num_nodes: usize,
    stats: StoreStats,
}

impl InMemoryStore {
    /// Wraps `table`, serving nodes `0..num_nodes`.
    pub fn new(table: FeatureTable, num_nodes: usize) -> InMemoryStore {
        InMemoryStore::window(table, 0, num_nodes)
    }

    /// A contiguous row window onto `table` addressed by local index
    /// (row `j` is global node `start + j`) — the mem-tier twin of a
    /// feature shard file.
    pub(crate) fn window(table: FeatureTable, start: usize, num_nodes: usize) -> InMemoryStore {
        InMemoryStore {
            table,
            start,
            num_nodes,
            stats: StoreStats::default(),
        }
    }

    fn global(&self, node: NodeId) -> NodeId {
        NodeId::new((self.start + node.index()) as u32)
    }

    /// Wraps `table` with no node bound — any id resolves (the table is
    /// synthesized per node, so every id has a row). Used by the
    /// `FeatureTable`-based trainer API, which historically had no
    /// bound.
    pub fn unbounded(table: FeatureTable) -> InMemoryStore {
        InMemoryStore::new(table, usize::MAX)
    }

    /// The wrapped table.
    pub fn table(&self) -> &FeatureTable {
        &self.table
    }
}

impl FeatureStore for InMemoryStore {
    fn dim(&self) -> usize {
        self.table.dim()
    }

    fn num_classes(&self) -> usize {
        self.table.num_classes()
    }

    fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    fn label(&self, node: NodeId) -> usize {
        self.table.label(self.global(node))
    }

    fn gather_into(&mut self, nodes: &[NodeId], out: &mut [f32]) -> Result<(), StoreError> {
        let dim = self.table.dim();
        if out.len() != nodes.len() * dim {
            return Err(StoreError::BadBuffer {
                expected: nodes.len() * dim,
                actual: out.len(),
            });
        }
        if let Some(&node) = nodes.iter().find(|n| n.index() >= self.num_nodes) {
            return Err(StoreError::NodeOutOfRange {
                node,
                num_nodes: self.num_nodes,
            });
        }
        // A sampled hop names its hot nodes many times over. Sorted
        // `(node, row)` keys put a node's rows side by side, lowest row
        // first; `out` is then filled front to back, a node synthesized
        // at its first row and copied from there to its later ones.
        assert!(nodes.len() <= u32::MAX as usize, "a row index is 32 bits");
        let mut keys: Vec<u64> = (0u64..)
            .zip(nodes)
            .map(|(row, n)| (n.raw() as u64) << 32 | row)
            .collect();
        keys.sort_unstable();
        let mut first_row = vec![0u32; nodes.len()];
        for rows in keys.chunk_by(|a, b| a >> 32 == b >> 32) {
            for &key in rows {
                first_row[key as u32 as usize] = rows[0] as u32;
            }
        }
        for (row, (&node, &first)) in nodes.iter().zip(&first_row).enumerate() {
            let first = first as usize;
            if first == row {
                self.table
                    .features_into(self.global(node), &mut out[row * dim..(row + 1) * dim]);
            } else {
                out.copy_within(first * dim..(first + 1) * dim, row * dim);
            }
        }
        self.stats.gathers += 1;
        self.stats.nodes_gathered += nodes.len() as u64;
        self.stats.feature_bytes += nodes.len() as u64 * self.table.bytes_per_node();
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

    #[test]
    fn matches_the_table_exactly() {
        let table = FeatureTable::new(6, 3, 9);
        let mut store = InMemoryStore::new(table.clone(), 50);
        let nodes = [NodeId::new(1), NodeId::new(4), NodeId::new(1)];
        let got = store.gather(&nodes).unwrap();
        assert_eq!(got, table.gather(&nodes));
        assert_eq!(store.label(NodeId::new(4)), table.label(NodeId::new(4)));
    }

    #[test]
    fn counters_track_accesses_only() {
        let mut store = InMemoryStore::new(FeatureTable::new(4, 2, 0), 10);
        store.gather(&[NodeId::new(0), NodeId::new(1)]).unwrap();
        store.gather(&[NodeId::new(2)]).unwrap();
        let s = store.stats();
        assert_eq!(s.gathers, 2);
        assert_eq!(s.nodes_gathered, 3);
        assert_eq!(s.feature_bytes, 3 * 4 * 4);
        assert_eq!(s.pages_read + s.bytes_read + s.page_hits + s.page_misses, 0);
        store.reset_stats();
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn out_of_range_is_a_typed_error() {
        let mut store = InMemoryStore::new(FeatureTable::new(4, 2, 0), 3);
        let err = store.gather(&[NodeId::new(3)]).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { .. }));
        // A failed gather leaves the counters untouched.
        assert_eq!(store.stats().gathers, 0);
        // ... and the caller's buffer too, however late the bad id comes.
        let mut buf = vec![7.0; 3 * 4];
        let late = [NodeId::new(0), NodeId::new(1), NodeId::new(3)];
        let err = store.gather_into(&late, &mut buf).unwrap_err();
        assert!(matches!(err, StoreError::NodeOutOfRange { node, .. } if node == late[2]));
        assert_eq!(buf, vec![7.0; 3 * 4]);
        assert_eq!(store.stats(), StoreStats::default());
    }

    #[test]
    fn duplicates_are_copies_of_one_synthesis_and_still_counted() {
        let table = FeatureTable::new(6, 3, 9);
        let (a, b) = (7u32, 2u32);
        // Unsharded, and as a shard window whose row 0 is global node 40.
        for start in [0u32, 40] {
            let mut store = InMemoryStore::window(table.clone(), start as usize, 50);
            let local = [a, b, a, a, b].map(NodeId::new);
            let global = local.map(|n| NodeId::new(start + n.raw()));
            let got = store.gather(&local).unwrap();
            let want = table.gather(&global);
            for (row, (g, w)) in got.chunks(6).zip(want.chunks(6)).enumerate() {
                assert_eq!(g, w, "row {row} at start {start}");
            }
            let s = store.stats();
            assert_eq!((s.gathers, s.nodes_gathered), (1, 5));
            assert_eq!(s.feature_bytes, 5 * 6 * 4);
        }
    }

    #[test]
    fn bad_buffer_is_rejected() {
        let mut store = InMemoryStore::unbounded(FeatureTable::new(4, 2, 0));
        let mut buf = vec![0.0; 3];
        let err = store.gather_into(&[NodeId::new(0)], &mut buf).unwrap_err();
        assert!(matches!(
            err,
            StoreError::BadBuffer {
                expected: 4,
                actual: 3
            }
        ));
    }
}
