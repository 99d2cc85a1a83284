//! Synthetic power-law graph generation.
//!
//! Real-world graphs (and the paper's datasets) follow heavy-tailed degree
//! distributions. We synthesize them with a Chung–Lu style model: each node
//! draws an expected degree from a discrete Pareto (power-law) distribution
//! normalized to the requested average degree, then endpoints are selected
//! proportionally to expected degree. Optional community structure biases a
//! fraction of edges to stay inside a node's community, which gives the
//! feature/label structure GNN training can actually learn (used by the
//! functional trainer tests).

use crate::csr::{CsrGraph, NodeId};
use smartsage_sim::Xoshiro256;

/// Configuration for [`generate_power_law`].
#[derive(Debug, Clone, PartialEq)]
pub struct PowerLawConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Target average out-degree.
    pub avg_degree: f64,
    /// Power-law exponent `alpha` of the degree distribution (typically
    /// 2.0–2.5 for web-scale graphs).
    pub exponent: f64,
    /// Number of communities (`>= 1`). Edges prefer to stay inside the
    /// source node's community with probability [`Self::homophily`].
    pub communities: usize,
    /// Probability that an edge stays within its source community.
    pub homophily: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PowerLawConfig {
    fn default() -> Self {
        PowerLawConfig {
            nodes: 1_000,
            avg_degree: 16.0,
            exponent: 2.1,
            communities: 16,
            homophily: 0.8,
            seed: 0,
        }
    }
}

/// Community of a node under the deterministic block assignment used by the
/// generator: nodes are dealt round-robin across communities.
#[inline]
pub fn community_of(node: NodeId, communities: usize) -> usize {
    if communities <= 1 {
        0
    } else {
        node.index() % communities
    }
}

/// Draws a raw Pareto deviate with the given exponent (`x_min = 1`).
fn pareto_raw(rng: &mut Xoshiro256, exponent: f64) -> f64 {
    let a = exponent.max(1.5);
    let u = (1.0 - rng.f64()).max(1e-12);
    u.powf(-1.0 / (a - 1.0))
}

/// Generates a directed power-law graph.
///
/// The returned graph has exactly `cfg.nodes` nodes and approximately
/// `cfg.nodes * cfg.avg_degree` edges (each node's out-degree is the
/// rounded product of its weight and the average degree, with a minimum of
/// one edge per node so no node is isolated).
///
/// # Panics
///
/// Panics if `cfg.nodes` is zero or `cfg.avg_degree` is not positive.
pub fn generate_power_law(cfg: &PowerLawConfig) -> CsrGraph {
    assert!(cfg.nodes > 0, "graph must have at least one node");
    assert!(cfg.avg_degree > 0.0, "average degree must be positive");
    let mut rng = Xoshiro256::seed_from_u64(cfg.seed);
    let n = cfg.nodes;
    let communities = cfg.communities.max(1);

    // Per-node expected-degree weights: raw Pareto deviates normalized by
    // their *empirical* mean so the realized average degree matches the
    // target even for heavy tails, with a cap so no node's expected degree
    // exceeds the node count.
    let mut weights: Vec<f64> = (0..n).map(|_| pareto_raw(&mut rng, cfg.exponent)).collect();
    let cap = (n as f64 / cfg.avg_degree).max(1.0);
    for w in &mut weights {
        *w = w.min(cap);
    }
    let mean = weights.iter().sum::<f64>() / n as f64;
    for w in &mut weights {
        *w /= mean;
    }

    // Cumulative weight table per community for in-community target
    // sampling, plus a global table. We sample targets by binary search on
    // the cumulative sums — O(log n) per edge, deterministic.
    let mut global_cum = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &w in &weights {
        acc += w;
        global_cum.push(acc);
    }
    let global_total = acc;

    // community -> (member node indices, cumulative weights)
    let mut comm_members: Vec<Vec<u32>> = vec![Vec::new(); communities];
    for i in 0..n {
        comm_members[community_of(NodeId::new(i as u32), communities)].push(i as u32);
    }
    let comm_cum: Vec<Vec<f64>> = comm_members
        .iter()
        .map(|members| {
            let mut cum = Vec::with_capacity(members.len());
            let mut a = 0.0;
            for &m in members {
                a += weights[m as usize];
                cum.push(a);
            }
            cum
        })
        .collect();

    let sample_global = |rng: &mut Xoshiro256| -> u32 {
        let x = rng.f64() * global_total;
        match global_cum.binary_search_by(|probe| probe.partial_cmp(&x).expect("finite")) {
            Ok(i) => i as u32,
            Err(i) => (i.min(n - 1)) as u32,
        }
    };

    let mut edges: Vec<(u32, u32)> = Vec::with_capacity((n as f64 * cfg.avg_degree) as usize);
    for (src, &weight) in weights.iter().enumerate() {
        let expected = (weight * cfg.avg_degree).round().max(1.0) as usize;
        let comm = community_of(NodeId::new(src as u32), communities);
        let members = &comm_members[comm];
        let cum = &comm_cum[comm];
        let comm_total = cum.last().copied().unwrap_or(0.0);
        for _ in 0..expected {
            let dst = if communities > 1 && comm_total > 0.0 && rng.chance(cfg.homophily) {
                let x = rng.f64() * comm_total;
                let k = match cum.binary_search_by(|probe| probe.partial_cmp(&x).expect("finite")) {
                    Ok(i) => i,
                    Err(i) => i.min(members.len() - 1),
                };
                members[k]
            } else {
                sample_global(&mut rng)
            };
            edges.push((src as u32, dst));
        }
    }
    CsrGraph::from_edges(n, edges)
}

/// Generates a small, fully deterministic "seed" graph used as the
/// Kronecker expansion kernel. The seed is a power-law graph whose average
/// degree controls the densification rate of the expansion.
pub fn generate_seed_graph(nodes: usize, avg_degree: f64, seed: u64) -> CsrGraph {
    generate_power_law(&PowerLawConfig {
        nodes,
        avg_degree,
        exponent: 2.0,
        communities: 1,
        homophily: 0.0,
        seed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn respects_node_count_and_degree_target() {
        let cfg = PowerLawConfig {
            nodes: 5_000,
            avg_degree: 12.0,
            seed: 1,
            ..PowerLawConfig::default()
        };
        let g = generate_power_law(&cfg);
        assert_eq!(g.num_nodes(), 5_000);
        let avg = g.avg_degree();
        assert!(
            (avg - 12.0).abs() / 12.0 < 0.35,
            "avg degree {avg} too far from target 12"
        );
        assert!(g.validate().is_ok());
    }

    #[test]
    fn is_deterministic_per_seed() {
        let cfg = PowerLawConfig {
            nodes: 500,
            seed: 7,
            ..PowerLawConfig::default()
        };
        let a = generate_power_law(&cfg);
        let b = generate_power_law(&cfg);
        assert_eq!(a, b);
        let c = generate_power_law(&PowerLawConfig { seed: 8, ..cfg });
        assert_ne!(a, c);
    }

    #[test]
    fn produces_heavy_tail() {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 20_000,
            avg_degree: 16.0,
            exponent: 2.1,
            seed: 3,
            ..PowerLawConfig::default()
        });
        let stats = DegreeStats::from_graph(&g);
        // Heavy tail: max degree far above the mean.
        assert!(
            stats.max_degree as f64 > 8.0 * g.avg_degree(),
            "max degree {} not heavy-tailed vs avg {}",
            stats.max_degree,
            g.avg_degree()
        );
        // No isolated sources by construction.
        assert_eq!(stats.min_degree, stats.min_degree.max(1));
    }

    #[test]
    fn homophily_biases_edges_within_community() {
        let cfg = PowerLawConfig {
            nodes: 4_000,
            avg_degree: 10.0,
            communities: 8,
            homophily: 0.9,
            seed: 11,
            ..PowerLawConfig::default()
        };
        let g = generate_power_law(&cfg);
        let within = g
            .edges()
            .filter(|&(u, v)| community_of(u, 8) == community_of(v, 8))
            .count();
        let frac = within as f64 / g.num_edges() as f64;
        assert!(frac > 0.7, "within-community fraction {frac} too low");
        // And the unbiased control stays near 1/8.
        let g0 = generate_power_law(&PowerLawConfig {
            homophily: 0.0,
            ..cfg
        });
        let within0 = g0
            .edges()
            .filter(|&(u, v)| community_of(u, 8) == community_of(v, 8))
            .count();
        let frac0 = within0 as f64 / g0.num_edges() as f64;
        assert!(
            frac0 < 0.3,
            "control within-community fraction {frac0} too high"
        );
    }

    #[test]
    fn community_of_is_stable() {
        assert_eq!(community_of(NodeId::new(5), 4), 1);
        assert_eq!(community_of(NodeId::new(5), 1), 0);
        assert_eq!(community_of(NodeId::new(5), 0), 0);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_nodes_panics() {
        generate_power_law(&PowerLawConfig {
            nodes: 0,
            ..PowerLawConfig::default()
        });
    }

    #[test]
    fn seed_graph_is_small_and_valid() {
        let s = generate_seed_graph(8, 2.0, 42);
        assert_eq!(s.num_nodes(), 8);
        assert!(s.validate().is_ok());
        assert!(s.num_edges() >= 8); // at least one edge per node
    }
}
