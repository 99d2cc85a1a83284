//! Kronecker fractal expansion (paper §V, reference \[7\]).
//!
//! The paper's large-scale datasets are synthesized from the public
//! in-memory datasets via Kronecker fractal expansion, which multiplies a
//! base graph `A` by a small seed graph `K`: the expanded graph `A ⊗ K`
//! has `|V_A|·|V_K|` nodes and `|E_A|·|E_K|` edges, with the degree of
//! expanded node `(u, i)` equal to `deg_A(u)·deg_K(i)`.
//!
//! Two properties the paper checks (Fig 13) fall out of this construction:
//!
//! * the **power-law degree distribution shape is preserved** (the
//!   expanded degree distribution is the multiplicative convolution of two
//!   power laws), and
//! * the **densification power law** holds: since edges scale by `|E_K|`
//!   while nodes scale by `|V_K|`, average degree grows by
//!   `avg_deg(K) > 1`, matching the observation \[53\] that larger
//!   real-world graphs are denser.

use crate::csr::CsrGraph;
use smartsage_sim::Xoshiro256;

/// Configuration for [`expand`].
#[derive(Debug, Clone, PartialEq)]
pub struct KroneckerConfig {
    /// Keep each expanded edge with this probability (1.0 = full product).
    /// Sub-sampling lets us hit a target edge count without changing the
    /// distribution shape.
    pub edge_keep_probability: f64,
    /// RNG seed for edge sub-sampling.
    pub seed: u64,
}

impl Default for KroneckerConfig {
    fn default() -> Self {
        KroneckerConfig {
            edge_keep_probability: 1.0,
            seed: 0,
        }
    }
}

/// Materializes the Kronecker product `base ⊗ seed`.
///
/// Expanded node `(u, i)` receives id `u * |V_seed| + i`; expanded edge
/// `((u,i),(v,j))` exists iff `(u,v) ∈ base` and `(i,j) ∈ seed`, subject
/// to `cfg.edge_keep_probability`.
///
/// # Panics
///
/// Panics if the expanded node count exceeds `u32::MAX` or the keep
/// probability is outside `[0, 1]`.
pub fn expand(base: &CsrGraph, seed: &CsrGraph, cfg: &KroneckerConfig) -> CsrGraph {
    assert!(
        (0.0..=1.0).contains(&cfg.edge_keep_probability),
        "edge keep probability must be in [0,1]"
    );
    let k = seed.num_nodes();
    let n = base.num_nodes();
    let expanded_nodes = n
        .checked_mul(k)
        .expect("expanded node count overflows usize");
    assert!(
        expanded_nodes <= u32::MAX as usize,
        "expanded graph too large to materialize"
    );
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let keep_all = cfg.edge_keep_probability >= 1.0;
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(
        ((base.num_edges() * seed.num_edges()) as f64 * cfg.edge_keep_probability) as usize,
    );
    for (u, v) in base.edges() {
        for (i, j) in seed.edges() {
            if keep_all || rng.chance(cfg.edge_keep_probability) {
                let src = u.raw() * k as u32 + i.raw();
                let dst = v.raw() * k as u32 + j.raw();
                edges.push((src, dst));
            }
        }
    }
    CsrGraph::from_edges(expanded_nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::NodeId;
    use crate::degree::DegreeStats;
    use crate::generate::{generate_power_law, generate_seed_graph, PowerLawConfig};

    fn tiny_base() -> CsrGraph {
        CsrGraph::from_edges(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    }

    fn tiny_seed() -> CsrGraph {
        CsrGraph::from_edges(2, [(0, 0), (0, 1), (1, 0)])
    }

    #[test]
    fn product_counts_multiply() {
        let base = tiny_base();
        let seed = tiny_seed();
        let g = expand(&base, &seed, &KroneckerConfig::default());
        assert_eq!(g.num_nodes() as u64, 3 * 2);
        assert_eq!(g.num_edges(), base.num_edges() * seed.num_edges());
        assert!(g.validate().is_ok());
    }

    #[test]
    fn expanded_degrees_are_products() {
        let base = tiny_base();
        let seed = tiny_seed();
        let g = expand(&base, &seed, &KroneckerConfig::default());
        for u in base.node_ids() {
            for i in seed.node_ids() {
                let expanded = NodeId::new(u.raw() * 2 + i.raw());
                assert_eq!(
                    g.degree(expanded),
                    base.degree(u) * seed.degree(i),
                    "degree of ({u},{i})"
                );
            }
        }
    }

    #[test]
    fn subsampling_thins_edges() {
        let base = generate_power_law(&PowerLawConfig {
            nodes: 200,
            avg_degree: 8.0,
            seed: 5,
            ..PowerLawConfig::default()
        });
        let seed = generate_seed_graph(4, 2.0, 6);
        let full = expand(&base, &seed, &KroneckerConfig::default());
        let half = expand(
            &base,
            &seed,
            &KroneckerConfig {
                edge_keep_probability: 0.5,
                seed: 1,
            },
        );
        let frac = half.num_edges() as f64 / full.num_edges() as f64;
        assert!((frac - 0.5).abs() < 0.05, "kept fraction {frac}");
    }

    #[test]
    fn expansion_densifies_and_preserves_power_law() {
        let base = generate_power_law(&PowerLawConfig {
            nodes: 2_000,
            avg_degree: 10.0,
            exponent: 2.1,
            seed: 9,
            ..PowerLawConfig::default()
        });
        let seed = generate_seed_graph(4, 2.5, 10);
        let g = expand(&base, &seed, &KroneckerConfig::default());
        // Densification: expanded average degree strictly above the base's.
        assert!(
            g.avg_degree() > base.avg_degree() * 1.5,
            "expanded avg {} vs base {}",
            g.avg_degree(),
            base.avg_degree()
        );
        // Power-law shape preserved: alpha estimates within a band.
        let a_base = DegreeStats::from_graph(&base).power_law_alpha;
        let a_exp = DegreeStats::from_graph(&g).power_law_alpha;
        assert!(
            (a_base - a_exp).abs() < 0.8,
            "alpha drifted: base {a_base} expanded {a_exp}"
        );
    }

    #[test]
    #[should_panic(expected = "keep probability")]
    fn bad_probability_panics() {
        expand(
            &tiny_base(),
            &tiny_seed(),
            &KroneckerConfig {
                edge_keep_probability: 1.5,
                seed: 0,
            },
        );
    }
}
