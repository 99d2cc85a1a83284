//! Reference graph traversals used to validate samplers.
//!
//! The property tests assert that any sampled subgraph is contained in the
//! exact k-hop neighborhood of its target nodes; this module provides that
//! ground truth via plain BFS.

use crate::csr::{CsrGraph, NodeId};
use std::collections::BTreeSet;

/// Returns the set of nodes reachable from `roots` in at most `k` hops
/// (including the roots themselves).
pub fn k_hop_neighborhood(graph: &CsrGraph, roots: &[NodeId], k: usize) -> BTreeSet<NodeId> {
    let mut visited: BTreeSet<NodeId> = roots.iter().copied().collect();
    let mut frontier: Vec<NodeId> = roots.to_vec();
    for _ in 0..k {
        let mut next = Vec::new();
        for &u in &frontier {
            for &v in graph.neighbors(u) {
                if visited.insert(v) {
                    next.push(v);
                }
            }
        }
        frontier = next;
        if frontier.is_empty() {
            break;
        }
    }
    visited
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path_graph(n: u32) -> CsrGraph {
        CsrGraph::from_edges(n as usize, (0..n - 1).map(|i| (i, i + 1)))
    }

    #[test]
    fn zero_hops_is_roots_only() {
        let g = path_graph(5);
        let nh = k_hop_neighborhood(&g, &[NodeId::new(0)], 0);
        assert_eq!(nh.len(), 1);
        assert!(nh.contains(&NodeId::new(0)));
    }

    #[test]
    fn path_graph_hops_extend_linearly() {
        let g = path_graph(10);
        for k in 0..5 {
            assert_eq!(k_hop_neighborhood(&g, &[NodeId::new(0)], k).len(), k + 1);
        }
    }

    #[test]
    fn multiple_roots_union() {
        let g = path_graph(10);
        let nh = k_hop_neighborhood(&g, &[NodeId::new(0), NodeId::new(5)], 1);
        assert_eq!(nh.len(), 4); // {0,1} ∪ {5,6}
    }

    #[test]
    fn saturates_on_small_components() {
        let g = CsrGraph::from_edges(3, [(0, 1), (1, 0)]);
        let nh = k_hop_neighborhood(&g, &[NodeId::new(0)], 100);
        assert_eq!(nh.len(), 2); // node 2 unreachable
    }
}
