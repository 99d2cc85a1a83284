//! Degree-distribution statistics (paper Fig 13).
//!
//! Figure 13 plots the number of nodes at each degree (log-log) before and
//! after Kronecker fractal expansion, to show that the power-law shape is
//! preserved while both axes grow. [`DegreeStats`] computes that histogram
//! plus a maximum-likelihood estimate of the power-law exponent.

use crate::csr::CsrGraph;
use smartsage_sim::Histogram;

/// Summary statistics of a graph's out-degree distribution.
#[derive(Debug, Clone, PartialEq)]
pub struct DegreeStats {
    /// Minimum out-degree.
    pub min_degree: u64,
    /// Maximum out-degree.
    pub max_degree: u64,
    /// Mean out-degree.
    pub avg_degree: f64,
    /// Power-of-two bucketed degree histogram.
    pub histogram: Histogram,
    /// MLE estimate of the power-law exponent `alpha` for the tail
    /// `degree >= xmin` (Clauset–Shalizi–Newman estimator with the
    /// continuous correction). 0.0 when the tail is empty.
    pub power_law_alpha: f64,
    /// The `xmin` used for the exponent estimate.
    pub xmin: u64,
}

impl DegreeStats {
    /// Computes statistics with a default `xmin` at the mean degree
    /// (a robust, simple choice for synthetic power-law graphs).
    pub fn from_graph(graph: &CsrGraph) -> DegreeStats {
        let xmin = graph.avg_degree().ceil().max(2.0) as u64;
        Self::from_graph_with_xmin(graph, xmin)
    }

    /// Computes statistics estimating the exponent over `degree >= xmin`.
    pub fn from_graph_with_xmin(graph: &CsrGraph, xmin: u64) -> DegreeStats {
        let mut histogram = Histogram::new();
        let mut min_degree = u64::MAX;
        let mut max_degree = 0u64;
        let mut tail_count = 0u64;
        let mut tail_log_sum = 0.0f64;
        let xmin = xmin.max(1);
        for node in graph.node_ids() {
            let d = graph.degree(node);
            histogram.record(d);
            min_degree = min_degree.min(d);
            max_degree = max_degree.max(d);
            if d >= xmin {
                tail_count += 1;
                tail_log_sum += (d as f64 / (xmin as f64 - 0.5)).ln();
            }
        }
        if graph.num_nodes() == 0 {
            min_degree = 0;
        }
        let power_law_alpha = if tail_count > 0 && tail_log_sum > 0.0 {
            1.0 + tail_count as f64 / tail_log_sum
        } else {
            0.0
        };
        DegreeStats {
            min_degree,
            max_degree,
            avg_degree: graph.avg_degree(),
            histogram,
            power_law_alpha,
            xmin,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_power_law, PowerLawConfig};

    #[test]
    fn stats_on_known_graph() {
        let g = CsrGraph::from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 0), (2, 0)]);
        let s = DegreeStats::from_graph_with_xmin(&g, 1);
        assert_eq!(s.min_degree, 0); // node 3 has no out-edges
        assert_eq!(s.max_degree, 3);
        assert!((s.avg_degree - 1.25).abs() < 1e-12);
        assert_eq!(s.histogram.total(), 4);
    }

    #[test]
    fn alpha_estimate_recovers_generator_exponent() {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 30_000,
            avg_degree: 12.0,
            exponent: 2.3,
            communities: 1,
            homophily: 0.0,
            seed: 21,
        });
        let s = DegreeStats::from_graph(&g);
        // The Chung–Lu realization flattens the tail slightly; accept a
        // generous band around the target exponent.
        assert!(
            s.power_law_alpha > 1.5 && s.power_law_alpha < 3.5,
            "alpha {} out of plausible band",
            s.power_law_alpha
        );
    }

    #[test]
    fn empty_graph_stats_are_safe() {
        let g = CsrGraph::from_edges(0, []);
        let s = DegreeStats::from_graph(&g);
        assert_eq!(s.min_degree, 0);
        assert_eq!(s.max_degree, 0);
        assert_eq!(s.power_law_alpha, 0.0);
    }
}
