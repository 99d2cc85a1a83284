//! Node feature table and label synthesis.
//!
//! The paper's feature table maps each node to a dense feature vector
//! (Table I: 32–1024 features per node). Real features are not available
//! offline, so we synthesize them deterministically: node features are
//! pseudo-random values with a class-dependent mean shift, giving the
//! functional GNN trainer a genuinely learnable signal (community ==
//! class). Features are generated on demand from the node id, so no memory
//! is spent materializing multi-GB tables; byte sizes for the storage
//! layer are computed analytically.

use crate::csr::NodeId;
use crate::generate::community_of;
use smartsage_sim::Xoshiro256;

/// Bytes per feature element (f32, matching common GNN training setups).
pub const FEATURE_ELEMENT_BYTES: u64 = 4;

/// A deterministic synthetic feature table.
///
/// # Example
///
/// ```
/// use smartsage_graph::{FeatureTable, NodeId};
/// let table = FeatureTable::new(16, 4, 42);
/// let f = table.features(NodeId::new(3));
/// assert_eq!(f.len(), 16);
/// assert_eq!(table.label(NodeId::new(3)), table.label(NodeId::new(3)));
/// assert!(table.label(NodeId::new(3)) < 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureTable {
    dim: usize,
    num_classes: usize,
    seed: u64,
}

impl FeatureTable {
    /// Creates a feature table with `dim` features per node and
    /// `num_classes` label classes.
    ///
    /// # Panics
    ///
    /// Panics if `dim` or `num_classes` is zero.
    pub fn new(dim: usize, num_classes: usize, seed: u64) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        assert!(num_classes > 0, "class count must be positive");
        FeatureTable {
            dim,
            num_classes,
            seed,
        }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of label classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    /// The generator seed. Together with `dim` and `num_classes` it
    /// fully determines every feature value, so `(dim, num_classes,
    /// seed, num_nodes)` is a content key for serialized feature files.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Bytes occupied by one node's feature vector in the on-SSD layout.
    pub fn bytes_per_node(&self) -> u64 {
        self.dim as u64 * FEATURE_ELEMENT_BYTES
    }

    /// Byte offset of `node`'s feature vector in the on-SSD feature file.
    pub fn byte_offset(&self, node: NodeId) -> u64 {
        node.index() as u64 * self.bytes_per_node()
    }

    /// Total feature-file size for `num_nodes` nodes.
    pub fn total_bytes(&self, num_nodes: u64) -> u64 {
        num_nodes * self.bytes_per_node()
    }

    /// The label (class) of `node`: its community id.
    pub fn label(&self, node: NodeId) -> usize {
        community_of(node, self.num_classes)
    }

    /// Writes `node`'s feature vector into `out`.
    ///
    /// The vector is `noise + class_pattern`, where the noise is a
    /// node-keyed pseudo-random draw and the class pattern is a sparse,
    /// class-keyed offset — so a linear model can already separate classes
    /// and a GNN (which additionally smooths over homophilous neighbors)
    /// can do better.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn features_into(&self, node: NodeId, out: &mut [f32]) {
        assert_eq!(out.len(), self.dim, "output buffer has wrong dimension");
        let mut rng =
            Xoshiro256::seed_from_u64(self.seed ^ (node.raw() as u64).wrapping_mul(0x9E37_79B9));
        for v in out.iter_mut() {
            *v = (rng.f64() as f32) * 0.5 - 0.25;
        }
        // Class pattern: each class activates a distinct band of
        // dimensions with a +1 offset.
        let class = self.label(node);
        let band = (self.dim / self.num_classes).max(1);
        let start = (class * band) % self.dim;
        for k in 0..band {
            let idx = (start + k) % self.dim;
            out[idx] += 1.0;
        }
    }

    /// Returns `node`'s feature vector as a fresh allocation.
    pub fn features(&self, node: NodeId) -> Vec<f32> {
        let mut out = vec![0.0; self.dim];
        self.features_into(node, &mut out);
        out
    }

    /// Gathers features for a batch of nodes into a row-major matrix
    /// (`nodes.len() × dim`).
    pub fn gather(&self, nodes: &[NodeId]) -> Vec<f32> {
        let mut out = vec![0.0; nodes.len() * self.dim];
        for (row, &n) in nodes.iter().enumerate() {
            self.features_into(n, &mut out[row * self.dim..(row + 1) * self.dim]);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_deterministic_per_node() {
        let t = FeatureTable::new(32, 4, 7);
        assert_eq!(t.features(NodeId::new(5)), t.features(NodeId::new(5)));
        assert_ne!(t.features(NodeId::new(5)), t.features(NodeId::new(6)));
    }

    #[test]
    fn labels_match_communities() {
        let t = FeatureTable::new(8, 4, 0);
        for i in 0..16u32 {
            assert_eq!(t.label(NodeId::new(i)), (i % 4) as usize);
        }
    }

    #[test]
    fn class_signal_is_separable() {
        let t = FeatureTable::new(64, 4, 3);
        // Mean vector per class should differ markedly between classes.
        let mean = |class: u32| -> Vec<f32> {
            let mut acc = vec![0.0f32; 64];
            let mut count = 0;
            for i in (class..200).step_by(4) {
                for (a, b) in acc.iter_mut().zip(t.features(NodeId::new(i))) {
                    *a += b;
                }
                count += 1;
            }
            acc.iter().map(|&v| v / count as f32).collect()
        };
        let m0 = mean(0);
        let m1 = mean(1);
        let dist: f32 = m0
            .iter()
            .zip(&m1)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f32>()
            .sqrt();
        assert!(dist > 1.0, "class means too close: {dist}");
    }

    #[test]
    fn byte_layout() {
        let t = FeatureTable::new(602, 4, 0);
        assert_eq!(t.bytes_per_node(), 602 * 4);
        assert_eq!(t.byte_offset(NodeId::new(10)), 10 * 602 * 4);
        assert_eq!(t.total_bytes(100), 100 * 602 * 4);
    }

    #[test]
    fn gather_stacks_rows() {
        let t = FeatureTable::new(4, 2, 1);
        let nodes = [NodeId::new(1), NodeId::new(2)];
        let m = t.gather(&nodes);
        assert_eq!(m.len(), 8);
        assert_eq!(&m[0..4], t.features(NodeId::new(1)).as_slice());
        assert_eq!(&m[4..8], t.features(NodeId::new(2)).as_slice());
    }

    #[test]
    #[should_panic(expected = "wrong dimension")]
    fn wrong_buffer_panics() {
        let t = FeatureTable::new(4, 2, 0);
        let mut buf = vec![0.0; 3];
        t.features_into(NodeId::new(0), &mut buf);
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        FeatureTable::new(0, 2, 0);
    }
}
