//! The byte trace the cost policies price.
//!
//! A sampled batch is its pass's one record: a
//! [`SampledBatch`](smartsage_gnn::SampledBatch) keeps each hop's
//! degrees as the store answered them, and its [`SampleTrace`] is that
//! batch moved (`SampledBatch::into_trace`: each frontier paired with
//! its degrees) — the pipeline stores it in the epoch's record and
//! hands it to the cost policy. The store-side
//! [`TracingTopology`](smartsage_store::TracingTopology) decorator is
//! the independent reference recorder; the conformance suite
//! (`tests/cost_purity.rs`) holds the two equal on random graphs across
//! every tier and shard count.
//!
//! `trace_of_plan` is kept, doc-hidden, only because `benchmark/`
//! spells it.

use smartsage_gnn::sampler::SamplePlan;
use smartsage_graph::CsrGraph;
use smartsage_store::SampleTrace;

// A copy of the trace `plan` recorded — the frozen `benchmark/`
// package's spelling of `plan.trace.clone()`.
// `_graph` is read by nothing (the degrees are the store's answers,
// kept in the plan). The parameter leaves with its last caller
// (`benchmark/`) in the next `benchmark` change — ROADMAP item 1.
#[doc(hidden)]
pub fn trace_of_plan(plan: &SamplePlan, _graph: &CsrGraph) -> SampleTrace {
    plan.trace.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::cost::testutil::{test_context, test_trace};
    use smartsage_gnn::sampler::plan_sample_on;
    use smartsage_gnn::Fanouts;
    use smartsage_graph::NodeId;
    use smartsage_sim::Xoshiro256;
    use smartsage_store::{CsrView, TopologyStore};

    #[test]
    fn trace_counts_match_the_plan() {
        let ctx = test_context(SystemKind::Dram);
        let targets: Vec<NodeId> = (0..16u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut topo = CsrView::new(ctx.graph());
        let plan =
            plan_sample_on(&mut topo, &targets, &Fanouts::new(vec![4, 3]), &mut rng).unwrap();
        let trace = trace_of_plan(&plan, ctx.graph());
        assert_eq!(trace, plan.trace);
        assert_eq!(
            trace,
            test_trace(&ctx, 16, 5),
            "the plan's trace is the batch moved"
        );
        assert_eq!(trace.num_targets(), 16);
        assert_eq!(trace.num_accesses(), 16 + 16 * 4);
        assert_eq!(trace.num_sampled(), 16 * 4 + 16 * 4 * 3);
        // The recorded picks resolve to a batch whose frontiers are the
        // trace's nodes, `picks(i)` store answers per access.
        let mut resolver = CsrView::new(ctx.graph());
        let batch = plan.resolve_on(&mut resolver).unwrap();
        let picks = trace
            .hops
            .iter()
            .map(|hop| (0..hop.nodes.len()).map(|i| hop.picks(i)));
        let picks: usize = picks.flatten().sum();
        assert_eq!(resolver.stats().nodes_gathered, picks as u64);
        assert_eq!(batch.into_trace(), trace);
    }
}
