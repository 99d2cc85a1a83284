//! The sample **byte trace**: the exact access stream neighbor sampling
//! drives through a [`TopologyStore`], recorded for cost modeling.
//!
//! Sampling asks a topology store two batched questions per hop — the
//! frontier's degrees, then the drawn neighbor picks — and that call
//! stream *is* the storage workload of a mini-batch: which edge lists
//! are read, how long each one is, and how many fine-grained 8-byte
//! entries each contributes. [`SampleTrace`] holds it as flat per-hop
//! arrays; `smartsage-core`'s cost policies replay the trace against
//! per-system device models to turn one real storage execution into the
//! paper's Figs 14–21 numbers.
//!
//! One record, one reference recorder:
//!
//! * the sampler (`smartsage-gnn`) writes one record of a batch, its
//!   `SampledBatch`, which keeps the degrees the store answered for
//!   each hop's frontier; the batch's trace is that batch moved
//!   (`SampledBatch::into_trace`), and the pipeline hands it to the
//!   cost policy;
//! * [`TracingTopology`] wraps any store and records the stream as the
//!   storage interface observes it, independently of the sampler — the
//!   frontiers and degrees, and the picks it forwarded, hop by hop
//!   (Fig 5's memory trace reads the picks).
//!
//! `tests/cost_purity.rs` asserts the two agree access for access on
//! every tier and shard count.

use crate::error::StoreError;
use crate::topology::TopologyStore;
use crate::StoreStats;
use smartsage_graph::NodeId;

/// One hop's accesses in frontier order, as parallel arrays: access
/// `i` reads the edge list of `nodes[i]`, which is `degrees[i]` long.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Fan-out at this hop.
    pub fanout: usize,
    /// The frontier: one node per access.
    pub nodes: Vec<NodeId>,
    /// Each frontier node's out-degree, as the store answered it.
    pub degrees: Vec<u64>,
}

impl TraceHop {
    /// Neighbor positions drawn from access `i`: the hop's fan-out, or
    /// none for an isolated node.
    pub fn picks(&self, i: usize) -> usize {
        if self.degrees[i] > 0 {
            self.fanout
        } else {
            0
        }
    }
}

/// The complete byte trace of one mini-batch's sampling pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SampleTrace {
    /// Per-hop access streams, outermost first.
    pub hops: Vec<TraceHop>,
}

impl SampleTrace {
    /// Number of mini-batch targets (hop 0's frontier length).
    pub fn num_targets(&self) -> usize {
        self.hops.first().map_or(0, |h| h.nodes.len())
    }

    /// Total edge-list accesses across hops.
    pub fn num_accesses(&self) -> u64 {
        self.hops.iter().map(|h| h.nodes.len() as u64).sum()
    }

    /// Total sampled neighbor IDs the pass produces (isolated accesses
    /// contribute `fanout` self-loops, exactly as resolution does).
    pub fn num_sampled(&self) -> u64 {
        self.hops
            .iter()
            .map(|h| (h.nodes.len() * h.fanout) as u64)
            .sum()
    }
}

/// A [`TopologyStore`] decorator that records the sampling call stream
/// as a [`SampleTrace`], and the picks of each hop, while forwarding
/// every request to the inner store — the reference recorder the
/// sampler's own record is tested against.
///
/// Designed for the sampler's call discipline (`sample_group_on`, and
/// `sample_on`, its one-request case): one
/// [`degrees_into`](TopologyStore::degrees_into) opens a hop for the
/// whole group (every request's frontier, merged, and its degrees),
/// and the following
/// [`pick_neighbors_into`](TopologyStore::pick_neighbors_into) closes
/// it (the group's drawn picks, `fanout` per non-isolated access, kept
/// as they were forwarded). Values returned to the caller are the inner
/// store's, untouched.
#[derive(Debug)]
pub struct TracingTopology<'a> {
    inner: &'a mut dyn TopologyStore,
    trace: SampleTrace,
    picks: Vec<Vec<(NodeId, u64)>>,
}

impl<'a> TracingTopology<'a> {
    /// Wraps `inner`, recording from the next call on.
    pub fn new(inner: &'a mut dyn TopologyStore) -> TracingTopology<'a> {
        TracingTopology {
            inner,
            trace: SampleTrace::default(),
            picks: Vec::new(),
        }
    }

    /// Consumes the wrapper and returns the recorded trace and, per
    /// hop, the picks forwarded in the hop's pick call (`(node,
    /// position)` in request order; empty for a hop whose pick call has
    /// not come).
    pub fn into_parts(self) -> (SampleTrace, Vec<Vec<(NodeId, u64)>>) {
        (self.trace, self.picks)
    }
}

impl TopologyStore for TracingTopology<'_> {
    fn num_nodes(&self) -> usize {
        self.inner.num_nodes()
    }

    fn num_edges(&self) -> u64 {
        self.inner.num_edges()
    }

    fn degrees_into(&mut self, nodes: &[NodeId], out: &mut [u64]) -> Result<(), StoreError> {
        self.inner.degrees_into(nodes, out)?;
        self.trace.hops.push(TraceHop {
            fanout: 0,
            nodes: nodes.to_vec(),
            degrees: out.to_vec(),
        });
        self.picks.push(Vec::new());
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        self.inner.pick_neighbors_into(picks, out)?;
        // Close the hop the preceding degree read opened: `fanout`
        // picks per non-isolated access.
        if let Some(hop) = self.trace.hops.last_mut() {
            if hop.fanout == 0 {
                let nonzero = hop.degrees.iter().filter(|&&d| d > 0).count();
                hop.fanout = picks.len().checked_div(nonzero).unwrap_or(0);
            }
        }
        if let Some(hop) = self.picks.last_mut() {
            hop.extend_from_slice(picks);
        }
        Ok(())
    }

    fn stats(&self) -> StoreStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::InMemoryTopology;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    #[test]
    fn tracer_forwards_values_and_records_hops() {
        let graph = generate_power_law(&PowerLawConfig {
            nodes: 256,
            avg_degree: 6.0,
            seed: 3,
            ..PowerLawConfig::default()
        });
        let mut plain = InMemoryTopology::new(graph.clone());
        let mut inner = InMemoryTopology::new(graph);
        let mut tracer = TracingTopology::new(&mut inner);
        let frontier: Vec<NodeId> = (0..8u32).map(NodeId::new).collect();
        let mut want = vec![0u64; 8];
        let mut got = vec![0u64; 8];
        plain.degrees_into(&frontier, &mut want).unwrap();
        tracer.degrees_into(&frontier, &mut got).unwrap();
        assert_eq!(want, got, "the tracer must not change answers");
        let picks: Vec<(NodeId, u64)> = frontier
            .iter()
            .zip(&got)
            .filter(|(_, &d)| d > 0)
            .flat_map(|(&n, _)| [(n, 0u64), (n, 0u64)])
            .collect();
        let mut neighbors = vec![NodeId::default(); picks.len()];
        tracer.pick_neighbors_into(&picks, &mut neighbors).unwrap();
        let (trace, _) = tracer.into_parts();
        assert_eq!(trace.num_targets(), 8);
        assert_eq!(trace.hops.len(), 1);
        assert_eq!(trace.hops[0].fanout, 2);
        let hop = &trace.hops[0];
        assert_eq!((&hop.nodes, &hop.degrees), (&frontier, &got));
        for (i, &degree) in hop.degrees.iter().enumerate() {
            assert_eq!(hop.picks(i), if degree > 0 { 2 } else { 0 });
        }
        assert_eq!(trace.num_sampled(), 16);
    }

    #[test]
    fn empty_picks_batch_leaves_fanout_open() {
        // A hop whose picks batch is empty carries no fan-out evidence;
        // the tracer records 0 rather than guessing.
        let graph = generate_power_law(&PowerLawConfig {
            nodes: 16,
            avg_degree: 2.0,
            seed: 1,
            ..PowerLawConfig::default()
        });
        let mut inner = InMemoryTopology::new(graph);
        let mut tracer = TracingTopology::new(&mut inner);
        let frontier = [NodeId::new(0), NodeId::new(1)];
        let mut degrees = [0u64; 2];
        tracer.degrees_into(&frontier, &mut degrees).unwrap();
        tracer.pick_neighbors_into(&[], &mut []).unwrap();
        let (trace, picks) = tracer.into_parts();
        assert_eq!(trace.hops[0].fanout, 0);
        assert_eq!(trace.num_sampled(), 0);
        assert_eq!(picks, vec![Vec::new()]);
    }

    #[test]
    fn tracer_keeps_the_picks_it_forwarded_hop_by_hop() {
        // Two hops, each its degree read and then its picks: every pick
        // batch is recorded under its own hop, in the order forwarded,
        // and the answers are the inner store's.
        let graph = generate_power_law(&PowerLawConfig {
            nodes: 128,
            avg_degree: 5.0,
            seed: 9,
            ..PowerLawConfig::default()
        });
        let mut plain = InMemoryTopology::new(graph.clone());
        let mut inner = InMemoryTopology::new(graph);
        let mut tracer = TracingTopology::new(&mut inner);
        let mut forwarded = Vec::new();
        let mut frontier: Vec<NodeId> = (0..6u32).map(|i| NodeId::new(i * 19)).collect();
        for fanout in [3u64, 2] {
            let mut degrees = vec![0u64; frontier.len()];
            tracer.degrees_into(&frontier, &mut degrees).unwrap();
            let picks: Vec<(NodeId, u64)> = (frontier.iter().zip(&degrees))
                .filter(|(_, &d)| d > 0)
                .flat_map(|(&n, &d)| (0..fanout).map(move |j| (n, (j * 7) % d)))
                .collect();
            let mut got = vec![NodeId::default(); picks.len()];
            let mut want = vec![NodeId::default(); picks.len()];
            tracer.pick_neighbors_into(&picks, &mut got).unwrap();
            plain.pick_neighbors_into(&picks, &mut want).unwrap();
            assert_eq!(got, want, "the tracer must not change answers");
            forwarded.push(picks);
            frontier = got;
        }
        let (trace, picks) = tracer.into_parts();
        assert_eq!(picks, forwarded);
        assert_eq!(trace.hops.len(), 2);
        for (hop, picks) in trace.hops.iter().zip(&picks) {
            let drawn: usize = (0..hop.nodes.len()).map(|i| hop.picks(i)).sum();
            assert_eq!(drawn, picks.len());
        }
    }
}
