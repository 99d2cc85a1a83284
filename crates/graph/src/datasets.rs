//! Dataset profiles (paper Table I) and scaled materialization.
//!
//! The paper evaluates five graphs, each in an **in-memory** variant (the
//! public dataset) and a **large-scale** variant produced by Kronecker
//! fractal expansion. The full-scale large graphs (41–442 GB of edge-list
//! array) obviously cannot be materialized here; instead each profile
//! carries the paper's published statistics for *analytic* use (Table I,
//! capacity fractions for the cache models) plus a
//! [`DatasetProfile::materialize`] method that synthesizes a scaled
//! instance preserving the statistics that drive system behaviour:
//! average degree (and therefore edge-list chunk size in blocks), degree
//! distribution shape, and feature dimensionality.

use crate::csr::{CsrGraph, NEIGHBOR_ENTRY_BYTES};
use crate::features::FeatureTable;
use crate::generate::{generate_power_law, PowerLawConfig};
use std::sync::Arc;

/// Default number of label classes (communities) in synthesized datasets.
pub const DEFAULT_NUM_CLASSES: usize = 16;

/// One of the paper's five evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Dataset {
    /// Reddit post graph (dense, 602 features).
    Reddit,
    /// Movielens ratings graph (densest, 1 K features).
    Movielens,
    /// Amazon product co-purchase graph (sparse, 32 features).
    Amazon,
    /// OGBN-papers100M citation graph (sparse, 32 features).
    Ogbn100M,
    /// Protein–protein interaction graph (512 features).
    ProteinPi,
}

impl Dataset {
    /// All five datasets in the paper's presentation order.
    pub const ALL: [Dataset; 5] = [
        Dataset::Reddit,
        Dataset::Movielens,
        Dataset::Amazon,
        Dataset::Ogbn100M,
        Dataset::ProteinPi,
    ];

    /// The display name used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::Reddit => "Reddit",
            Dataset::Movielens => "Movielens",
            Dataset::Amazon => "Amazon",
            Dataset::Ogbn100M => "OGBN-100M",
            Dataset::ProteinPi => "Protein-PI",
        }
    }
}

impl std::fmt::Display for Dataset {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which variant of a dataset: the public in-memory graph or the
/// Kronecker-expanded large-scale graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GraphScale {
    /// The public dataset (fits in host DRAM).
    InMemory,
    /// The fractal-expanded dataset (requires SSD capacity).
    LargeScale,
}

impl std::fmt::Display for GraphScale {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            GraphScale::InMemory => "in-memory",
            GraphScale::LargeScale => "large-scale",
        })
    }
}

/// Published statistics of one dataset variant (one half of a Table I row).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScaleStats {
    /// Node count.
    pub nodes: u64,
    /// Edge count.
    pub edges: u64,
    /// Dataset size in GB as reported in Table I (≈ edge-list array size).
    pub size_gb: f64,
}

impl ScaleStats {
    /// Average degree.
    pub fn avg_degree(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.edges as f64 / self.nodes as f64
        }
    }

    /// Exact edge-list array size in bytes (8 B per neighbor entry).
    pub fn edge_array_bytes(&self) -> u64 {
        self.edges * NEIGHBOR_ENTRY_BYTES
    }
}

/// A full Table I row: both variants plus the feature dimension.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetProfile {
    /// Which dataset this profile describes.
    pub dataset: Dataset,
    /// Statistics of the public in-memory variant.
    pub in_memory: ScaleStats,
    /// Statistics of the Kronecker-expanded large-scale variant.
    pub large_scale: ScaleStats,
    /// Feature vector dimensionality.
    pub feature_dim: usize,
}

impl DatasetProfile {
    /// The Table I profile for `dataset`.
    pub fn of(dataset: Dataset) -> DatasetProfile {
        // Numbers transcribed from paper Table I.
        let (in_memory, large_scale, feature_dim) = match dataset {
            Dataset::Reddit => (
                ScaleStats {
                    nodes: 233_000,
                    edges: 114_600_000,
                    size_gb: 0.8,
                },
                ScaleStats {
                    nodes: 37_300_000,
                    edges: 53_900_000_000,
                    size_gb: 402.0,
                },
                602,
            ),
            Dataset::Movielens => (
                ScaleStats {
                    nodes: 5_500_000,
                    edges: 6_000_000_000,
                    size_gb: 45.0,
                },
                ScaleStats {
                    nodes: 22_200_000,
                    edges: 59_200_000_000,
                    size_gb: 442.0,
                },
                1_024,
            ),
            Dataset::Amazon => (
                ScaleStats {
                    nodes: 42_500_000,
                    edges: 1_300_000_000,
                    size_gb: 9.7,
                },
                ScaleStats {
                    nodes: 265_900_000,
                    edges: 9_500_000_000,
                    size_gb: 75.0,
                },
                32,
            ),
            Dataset::Ogbn100M => (
                ScaleStats {
                    nodes: 89_600_000,
                    edges: 3_200_000_000,
                    size_gb: 26.0,
                },
                ScaleStats {
                    nodes: 179_100_000,
                    edges: 5_000_000_000,
                    size_gb: 41.0,
                },
                32,
            ),
            Dataset::ProteinPi => (
                ScaleStats {
                    nodes: 907_000,
                    edges: 317_500_000,
                    size_gb: 2.4,
                },
                ScaleStats {
                    nodes: 9_100_000,
                    edges: 8_800_000_000,
                    size_gb: 66.0,
                },
                512,
            ),
        };
        DatasetProfile {
            dataset,
            in_memory,
            large_scale,
            feature_dim,
        }
    }

    /// Statistics for the requested variant.
    pub fn stats(&self, scale: GraphScale) -> ScaleStats {
        match scale {
            GraphScale::InMemory => self.in_memory,
            GraphScale::LargeScale => self.large_scale,
        }
    }

    /// Full-scale feature-table size in bytes for the variant.
    pub fn feature_bytes(&self, scale: GraphScale) -> u64 {
        self.stats(scale).nodes * self.feature_dim as u64 * 4
    }

    /// Densification factor of the expansion (large avg degree / in-memory
    /// avg degree).
    pub fn densification(&self) -> f64 {
        self.large_scale.avg_degree() / self.in_memory.avg_degree()
    }

    /// Synthesizes a scaled-down instance of the requested variant with at
    /// most `edge_budget` edges, preserving the variant's average degree
    /// and a power-law shape. See the module docs for why degree — not
    /// node count — is the quantity that must be preserved.
    pub fn materialize(
        &self,
        scale: GraphScale,
        edge_budget: u64,
        seed: u64,
    ) -> MaterializedDataset {
        let stats = self.stats(scale);
        let avg_degree = stats.avg_degree();
        // Node count that yields ~edge_budget edges at the true average
        // degree, clamped to a sane floor so the graph is non-trivial.
        let nodes = ((edge_budget as f64 / avg_degree).round() as usize)
            .clamp(256, stats.nodes.min(u32::MAX as u64 - 1) as usize);
        let graph = generate_power_law(&PowerLawConfig {
            nodes,
            avg_degree,
            exponent: 2.1,
            communities: DEFAULT_NUM_CLASSES,
            homophily: 0.8,
            seed: seed ^ fingerprint(self.dataset, scale),
        });
        let features = FeatureTable::new(self.feature_dim, DEFAULT_NUM_CLASSES, seed);
        MaterializedDataset {
            profile: *self,
            scale,
            graph: Arc::new(graph),
            features,
        }
    }
}

/// Deterministic per-(dataset, scale) seed perturbation so different
/// datasets never share an RNG stream.
fn fingerprint(dataset: Dataset, scale: GraphScale) -> u64 {
    let d = match dataset {
        Dataset::Reddit => 1u64,
        Dataset::Movielens => 2,
        Dataset::Amazon => 3,
        Dataset::Ogbn100M => 4,
        Dataset::ProteinPi => 5,
    };
    let s = match scale {
        GraphScale::InMemory => 0u64,
        GraphScale::LargeScale => 1 << 32,
    };
    d.wrapping_mul(0x517C_C1B7_2722_0A95) ^ s
}

/// A scaled, materialized dataset instance plus its full-scale profile.
///
/// The graph and feature table are real (walkable, trainable); the profile
/// carries the full-scale statistics used by the storage models to size
/// caches as the *fraction* they would cover at full scale.
#[derive(Debug, Clone)]
pub struct MaterializedDataset {
    /// The Table I profile this instance was scaled from.
    pub profile: DatasetProfile,
    /// Which variant was materialized.
    pub scale: GraphScale,
    /// The scaled graph, shared: cloning the dataset (every
    /// [`RunContext`](../../smartsage_core/context/struct.RunContext.html)
    /// holds one) never copies the CSR arrays, and storage tiers that
    /// need an owning handle take a cheap `Arc` clone.
    pub graph: Arc<CsrGraph>,
    /// The (lazy) feature table at the profile's true dimensionality.
    pub features: FeatureTable,
}

impl MaterializedDataset {
    /// Full-scale statistics of the materialized variant.
    pub fn full_stats(&self) -> ScaleStats {
        self.profile.stats(self.scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_transcription_spot_checks() {
        let r = DatasetProfile::of(Dataset::Reddit);
        assert_eq!(r.in_memory.nodes, 233_000);
        assert_eq!(r.large_scale.edges, 53_900_000_000);
        assert_eq!(r.feature_dim, 602);
        let m = DatasetProfile::of(Dataset::Movielens);
        assert_eq!(m.feature_dim, 1_024);
        assert_eq!(m.large_scale.size_gb, 442.0);
    }

    #[test]
    fn table_sizes_approximate_edge_array_bytes() {
        // Table I "size" column tracks the 8 B/entry edge-list array.
        for d in Dataset::ALL {
            let p = DatasetProfile::of(d);
            for scale in [GraphScale::InMemory, GraphScale::LargeScale] {
                let s = p.stats(scale);
                let computed_gb = s.edge_array_bytes() as f64 / 1e9;
                assert!(
                    (computed_gb - s.size_gb).abs() / s.size_gb < 0.25,
                    "{d} {scale}: computed {computed_gb} GB vs table {} GB",
                    s.size_gb
                );
            }
        }
    }

    #[test]
    fn densification_holds_for_most_datasets() {
        // The paper notes large-scale variants generally have higher
        // average degree (densification power law). Table I itself bears
        // this out for every dataset except OGBN-100M, whose expansion
        // doubled nodes but grew edges by only 1.56x — we transcribe the
        // table faithfully rather than "fixing" it.
        for d in Dataset::ALL {
            let p = DatasetProfile::of(d);
            if d == Dataset::Ogbn100M {
                assert!(p.densification() < 1.0);
            } else {
                assert!(
                    p.densification() > 1.0,
                    "{d}: densification {} not > 1",
                    p.densification()
                );
            }
        }
    }

    #[test]
    fn materialize_preserves_avg_degree() {
        let p = DatasetProfile::of(Dataset::Amazon);
        let m = p.materialize(GraphScale::LargeScale, 200_000, 42);
        let want = p.large_scale.avg_degree();
        let got = m.graph.avg_degree();
        assert!(
            (got - want).abs() / want < 0.35,
            "avg degree {got} vs target {want}"
        );
        assert!(m.graph.num_nodes() < m.full_stats().nodes as usize);
        assert_eq!(m.features.dim(), 32);
    }

    #[test]
    fn materialize_respects_edge_budget() {
        let p = DatasetProfile::of(Dataset::Reddit);
        let m = p.materialize(GraphScale::LargeScale, 300_000, 7);
        // Generator rounding can overshoot slightly; stay within 2x.
        assert!(
            m.graph.num_edges() < 600_000,
            "edges {} exceed budget band",
            m.graph.num_edges()
        );
        assert!(m.graph.num_edges() > 100_000);
    }

    #[test]
    fn materialization_is_deterministic_and_distinct_across_datasets() {
        let a1 = DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::InMemory, 50_000, 9);
        let a2 = DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::InMemory, 50_000, 9);
        assert_eq!(a1.graph, a2.graph);
        let b = DatasetProfile::of(Dataset::ProteinPi).materialize(GraphScale::InMemory, 50_000, 9);
        assert_ne!(a1.graph, b.graph);
    }

    #[test]
    fn display_names_match_paper() {
        let names: Vec<&str> = Dataset::ALL.iter().map(|d| d.name()).collect();
        assert_eq!(
            names,
            vec!["Reddit", "Movielens", "Amazon", "OGBN-100M", "Protein-PI"]
        );
        assert_eq!(format!("{}", GraphScale::LargeScale), "large-scale");
    }
}
