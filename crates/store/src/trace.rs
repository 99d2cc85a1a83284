//! The sample **byte trace**: the exact access stream neighbor-sampling
//! planning drives through a [`TopologyStore`], exported for cost
//! modeling.
//!
//! Planning asks a topology store two batched questions per hop — the
//! frontier's degrees, then the drawn neighbor picks — and that call
//! stream *is* the storage workload of a mini-batch: which edge lists
//! are read, how long each one is, and how many fine-grained 8-byte
//! entries each contributes. [`SampleTrace`] records it per hop and per
//! access; `smartsage-core`'s cost policies replay the trace against
//! per-system device models to turn one real storage execution into the
//! paper's Figs 14–21 numbers.
//!
//! Two producers exist, by design equal on the same plan:
//!
//! * [`TracingTopology`] wraps any store and records the stream exactly
//!   as the storage interface observes it (the export hook);
//! * `smartsage-core` rebuilds the identical trace from a finished
//!   `SamplePlan` (every access and every drawn position is in the
//!   plan), which is what the pipeline uses on the hot path — the walk
//!   planner never touches the store, so the plan is the one uniform
//!   source.
//!
//! The conformance suite asserts the two agree access-for-access.

use crate::error::StoreError;
use crate::topology::TopologyStore;
use crate::StoreStats;
use smartsage_graph::NodeId;

/// One planned edge-list access as the store observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceAccess {
    /// The node whose neighbor list is read.
    pub node: NodeId,
    /// The node's out-degree (the answer to the degree read).
    pub degree: u64,
    /// Neighbor positions drawn from this access (0 for isolated
    /// nodes, the hop's fan-out otherwise).
    pub picks: usize,
}

/// All accesses of one hop, in frontier order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceHop {
    /// Fan-out at this hop.
    pub fanout: usize,
    /// One access per frontier node.
    pub accesses: Vec<TraceAccess>,
}

/// The complete byte trace of one mini-batch's sampling plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleTrace {
    /// Number of mini-batch targets (hop 0's frontier length).
    pub num_targets: usize,
    /// Per-hop access streams, outermost first.
    pub hops: Vec<TraceHop>,
}

impl SampleTrace {
    /// An empty trace (no targets, no hops).
    pub fn empty() -> SampleTrace {
        SampleTrace {
            num_targets: 0,
            hops: Vec::new(),
        }
    }

    /// Total edge-list accesses across hops.
    pub fn num_accesses(&self) -> u64 {
        self.hops.iter().map(|h| h.accesses.len() as u64).sum()
    }

    /// Total sampled neighbor IDs the plan produces (isolated accesses
    /// contribute `fanout` self-loops, exactly as resolution does).
    pub fn num_sampled(&self) -> u64 {
        self.hops
            .iter()
            .map(|h| (h.accesses.len() * h.fanout) as u64)
            .sum()
    }
}

/// A [`TopologyStore`] decorator that records the planning call stream
/// as a [`SampleTrace`] while forwarding every request to the inner
/// store — the trace **export hook**.
///
/// Designed for `sample_on`'s call discipline: one
/// [`degrees_into`](TopologyStore::degrees_into) opens a hop (the
/// frontier and its degrees), and the following
/// [`pick_neighbors_into`](TopologyStore::pick_neighbors_into) closes
/// it (the drawn picks, `fanout` per non-isolated access, attributed in
/// frontier order). Values returned to the caller are the inner
/// store's, untouched.
#[derive(Debug)]
pub struct TracingTopology<'a> {
    inner: &'a mut dyn TopologyStore,
    trace: SampleTrace,
}

impl<'a> TracingTopology<'a> {
    /// Wraps `inner`, recording from the next call on.
    pub fn new(inner: &'a mut dyn TopologyStore) -> TracingTopology<'a> {
        TracingTopology {
            inner,
            trace: SampleTrace::empty(),
        }
    }

    /// Consumes the wrapper and returns the recorded trace.
    pub fn into_trace(self) -> SampleTrace {
        self.trace
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
        if self.trace.hops.is_empty() {
            self.trace.num_targets = nodes.len();
        }
        self.trace.hops.push(TraceHop {
            fanout: 0,
            accesses: nodes
                .iter()
                .zip(out.iter())
                .map(|(&node, &degree)| TraceAccess {
                    node,
                    degree,
                    picks: 0,
                })
                .collect(),
        });
        Ok(())
    }

    fn pick_neighbors_into(
        &mut self,
        picks: &[(NodeId, u64)],
        out: &mut [NodeId],
    ) -> Result<(), StoreError> {
        self.inner.pick_neighbors_into(picks, out)?;
        // Close the hop the preceding degree read opened: `fanout`
        // picks per non-isolated access, in frontier order.
        if let Some(hop) = self.trace.hops.last_mut() {
            if hop.fanout == 0 {
                let nonzero = hop.accesses.iter().filter(|a| a.degree > 0).count();
                if let Some(fanout) = picks.len().checked_div(nonzero) {
                    hop.fanout = fanout;
                    for access in hop.accesses.iter_mut() {
                        if access.degree > 0 {
                            access.picks = fanout;
                        }
                    }
                }
            }
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
        let trace = tracer.into_trace();
        assert_eq!(trace.num_targets, 8);
        assert_eq!(trace.hops.len(), 1);
        assert_eq!(trace.hops[0].fanout, 2);
        for access in &trace.hops[0].accesses {
            assert_eq!(access.picks, if access.degree > 0 { 2 } else { 0 });
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
        let trace = tracer.into_trace();
        assert_eq!(trace.hops[0].fanout, 0);
        assert_eq!(trace.num_sampled(), 0);
    }
}
