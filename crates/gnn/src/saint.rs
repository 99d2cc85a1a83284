//! GraphSAINT random-walk sampling (paper §VI-F, Fig 20).
//!
//! GraphSAINT builds its training subgraph from random walks: from each
//! root, walk `length` steps, taking one uniformly random neighbor per
//! step. Relative to GraphSAGE fan-out sampling the access pattern is
//! *serial per walk* (each step depends on the previous one) and samples
//! exactly one neighbor per edge-list access — which the paper uses to
//! show SmartSAGE's ISP generalizes across sampling algorithms.
//!
//! The walk plan reuses [`SamplePlan`] with fan-out 1 per hop, so every
//! sampler and the ISP firmware replay walks identically.

use crate::sampler::{Fanouts, SamplePlan};
use smartsage_graph::{CsrGraph, NodeId};
use smartsage_sim::Xoshiro256;
use smartsage_store::{SampleTrace, TraceHop};

/// GraphSAINT random-walk configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalkConfig {
    /// Number of root nodes per batch.
    pub roots: usize,
    /// Steps per walk.
    pub length: usize,
}

impl Default for WalkConfig {
    /// GraphSAINT-RW defaults per the paper's setting: 1024-root batches
    /// (matching the GraphSAGE mini-batch) with 4-step walks.
    fn default() -> Self {
        WalkConfig {
            roots: 1024,
            length: 4,
        }
    }
}

/// Fan-out view of a walk: `length` hops of fan-out 1.
pub fn walk_fanouts(cfg: &WalkConfig) -> Fanouts {
    Fanouts::new(vec![1; cfg.length.max(1)])
}

/// Plans random walks from `roots` (one access per step per walk),
/// recording each step's frontier and the CSR degrees it read.
///
/// Dead ends (zero-degree nodes) stay in place, mirroring the self-loop
/// convention of the fan-out sampler.
pub fn plan_random_walk(
    graph: &CsrGraph,
    roots: &[NodeId],
    length: usize,
    rng: &mut Xoshiro256,
) -> SamplePlan {
    let mut plan = SamplePlan {
        trace: SampleTrace::default(),
        positions: Vec::with_capacity(length),
    };
    let mut current: Vec<NodeId> = roots.to_vec();
    for _ in 0..length {
        let degrees: Vec<u64> = current.iter().map(|&node| graph.degree(node)).collect();
        let mut positions = Vec::with_capacity(current.len());
        let mut next = Vec::with_capacity(current.len());
        for (&node, &degree) in current.iter().zip(&degrees) {
            next.push(if degree == 0 {
                node
            } else {
                let pos = rng.range_u64(degree);
                positions.push(pos);
                graph.neighbor(node, pos)
            });
        }
        plan.positions.push(positions);
        plan.trace.hops.push(TraceHop {
            fanout: 1,
            nodes: std::mem::replace(&mut current, next),
            degrees,
        });
    }
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
    use smartsage_store::CsrView;

    fn graph() -> CsrGraph {
        generate_power_law(&PowerLawConfig {
            nodes: 300,
            avg_degree: 6.0,
            seed: 31,
            ..PowerLawConfig::default()
        })
    }

    #[test]
    fn walk_structure() {
        let g = graph();
        let roots: Vec<NodeId> = (0..10u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(8);
        let plan = plan_random_walk(&g, &roots, 4, &mut rng);
        assert_eq!(plan.targets(), &roots[..]);
        assert_eq!(plan.trace.hops.len(), 4);
        for hop in &plan.trace.hops {
            assert_eq!(hop.fanout, 1);
            assert_eq!(hop.nodes.len(), 10);
        }
        assert_eq!(plan.trace.num_accesses(), 40);
        assert_eq!(plan.trace.num_sampled(), 40);
    }

    #[test]
    fn walks_are_connected_paths() {
        let g = graph();
        let roots: Vec<NodeId> = (5..15u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let plan = plan_random_walk(&g, &roots, 3, &mut rng);
        let batch = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
        // Step k starts from step k-1's sampled nodes.
        for k in 1..batch.hops.len() {
            assert_eq!(plan.trace.hops[k].nodes, batch.hops[k - 1].neighbors);
        }
        // Each step moves along a real edge (or self-loops at dead ends).
        for (hop, step) in batch.hops.iter().zip(&plan.trace.hops) {
            for (i, &from) in step.nodes.iter().enumerate() {
                let to = hop.neighbors[i];
                assert!(
                    g.neighbors(from).contains(&to) || (g.degree(from) == 0 && to == from),
                    "invalid walk step {from}->{to}"
                );
            }
        }
    }

    #[test]
    fn dead_ends_stay_in_place() {
        let g = CsrGraph::from_edges(2, [(0, 1)]); // node 1 is a sink
        let mut rng = Xoshiro256::seed_from_u64(1);
        let plan = plan_random_walk(&g, &[NodeId::new(0)], 3, &mut rng);
        let batch = plan.resolve_on(&mut CsrView::new(&g)).unwrap();
        // Walk: 0 -> 1 -> 1 -> 1.
        assert_eq!(batch.hops[0].neighbors, vec![NodeId::new(1)]);
        assert_eq!(batch.hops[1].neighbors, vec![NodeId::new(1)]);
        assert_eq!(batch.hops[2].neighbors, vec![NodeId::new(1)]);
    }

    #[test]
    fn walk_fanouts_match_config() {
        let f = walk_fanouts(&WalkConfig {
            roots: 16,
            length: 5,
        });
        assert_eq!(f.as_slice(), &[1, 1, 1, 1, 1]);
        assert_eq!(WalkConfig::default().roots, 1024);
    }
}
