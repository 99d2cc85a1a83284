//! The byte trace of a finished [`SamplePlan`].
//!
//! The sampler is the trace's one writer: a plan carries the
//! [`SampleTrace`] its pass recorded — each hop's frontier and the
//! degrees the store answered — and the pipeline moves `plan.trace`
//! into the cost policy. The store-side
//! [`TracingTopology`](smartsage_store::TracingTopology) decorator is
//! the independent reference recorder; the conformance suite
//! (`tests/cost_purity.rs`) holds the two equal on random graphs across
//! every tier and shard count.

use smartsage_gnn::SamplePlan;
use smartsage_graph::CsrGraph;
use smartsage_store::SampleTrace;

/// A copy of the trace `plan` recorded — the frozen `benchmark/`
/// package's spelling of `plan.trace.clone()`.
// `_graph` is read by nothing (the degrees are the store's answers,
// kept in the plan). The parameter leaves with its last caller
// (`benchmark/`) in the next `benchmark` PR — ROADMAP item 1.
pub fn trace_of_plan(plan: &SamplePlan, _graph: &CsrGraph) -> SampleTrace {
    plan.trace.clone()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use crate::cost::testutil::{test_context, test_plan};

    #[test]
    fn trace_counts_match_the_plan() {
        let ctx = test_context(SystemKind::Dram);
        let plan = test_plan(&ctx, 16, 5);
        let trace = trace_of_plan(&plan, ctx.graph());
        assert_eq!(trace, plan.trace);
        assert_eq!(trace.num_targets(), 16);
        assert_eq!(trace.num_accesses(), 16 + 16 * 4);
        assert_eq!(trace.num_sampled(), 16 * 4 + 16 * 4 * 3);
        for (k, hop) in trace.hops.iter().enumerate() {
            for (i, (node, drawn)) in plan.accesses(k).enumerate() {
                assert_eq!(node, hop.nodes[i]);
                assert_eq!(drawn.len(), hop.picks(i));
            }
        }
    }
}
