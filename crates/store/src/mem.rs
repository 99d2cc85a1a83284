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
        for (row, &node) in nodes.iter().enumerate() {
            if node.index() >= self.num_nodes {
                return Err(StoreError::NodeOutOfRange {
                    node,
                    num_nodes: self.num_nodes,
                });
            }
            self.table
                .features_into(self.global(node), &mut out[row * dim..(row + 1) * dim]);
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
