//! Property tests (proptest): cost policies are **pure functions of
//! the byte trace**.
//!
//! The unification contract has two halves, and each gets a property:
//!
//! 1. *One trace.* Sampling through any storage tier (in-memory CSR,
//!    paged graph file, in-storage sampler), at any shard count,
//!    produces the identical batch, and the trace the sampler recorded
//!    in it (`batch.into_trace()`, from the degrees the routed store
//!    answered) equals the trace the storage interface observes (the
//!    [`TracingTopology`] reference recorder) — access for access.
//! 2. *One cost per trace.* Feeding the same trace to a fresh policy
//!    yields the identical [`BatchCost`] — independent of which worker
//!    slot drives it and of how many slots the policy was built with.
//!
//! Together: modeled time cannot depend on the store tier, the job
//! count, or sweep ordering — only on the bytes the run touched.

use proptest::prelude::*;
use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::{Devices, RunContext};
use smartsage::core::cost::{make_policy, BatchCost, CostPolicy, StepOutcome};
use smartsage::gnn::sampler::{sample_on, Fanouts};
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{CsrGraph, Dataset, DatasetProfile, GraphScale, NodeId};
use smartsage::sim::{SimTime, Xoshiro256};
use smartsage::store::topology::{FileTopology, InMemoryTopology};
use smartsage::store::trace::TracingTopology;
use smartsage::store::{
    shard_ranges, write_graph_file, CsrView, FileStoreOptions, IspGatherOptions, IspSampleTopology,
    ScratchFile, ShardedTopology, SharedCsrFile, StoreRegistry, TopologyStore,
};
use std::sync::Arc;

fn arbitrary_graph(nodes: usize, seed: u64) -> CsrGraph {
    generate_power_law(&PowerLawConfig {
        nodes,
        avg_degree: 6.0,
        communities: 4,
        homophily: 0.6,
        exponent: 2.1,
        seed,
    })
}

/// Samples one full pass through `topology` behind the reference
/// recorder; returns the recorder's trace and the one the sampler wrote
/// into the batch. Every call that reached the store is in the
/// recording: two per hop. The degrees the batch kept are the store's
/// answers, so they must also be the graph's.
fn traced_plan(
    topology: &mut dyn TopologyStore,
    graph: &CsrGraph,
    targets: &[NodeId],
    fanouts: &Fanouts,
    seed: u64,
) -> (smartsage::store::SampleTrace, smartsage::store::SampleTrace) {
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let calls_before = topology.stats().gathers;
    let mut tracer = TracingTopology::new(topology);
    let batch = sample_on(&mut tracer, targets, fanouts, &mut rng).expect("sampling succeeds");
    let (seen, _) = tracer.into_parts();
    let trace = batch.into_trace();
    assert_eq!(
        seen.hops.len() as u64 * 2,
        topology.stats().gathers - calls_before,
        "the tracer dropped a store call"
    );
    for hop in &trace.hops {
        let degrees: Vec<u64> = hop.nodes.iter().map(|&n| graph.degree(n)).collect();
        assert_eq!(hop.degrees, degrees, "a tier answered a wrong degree");
    }
    (seen, trace)
}

fn drive(
    policy: &mut CostPolicy,
    devices: &mut Devices,
    worker: usize,
    trace: smartsage::store::SampleTrace,
) -> BatchCost {
    policy.begin(worker, SimTime::ZERO, trace);
    let mut now = SimTime::ZERO;
    loop {
        match policy.step(worker, devices, now) {
            StepOutcome::Running { next } => now = next.max(now),
            StepOutcome::Finished => return policy.take_result(worker),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn every_tier_observes_the_trace_the_plan_rebuilds(
        seed in 0u64..500,
        nodes in 100usize..400,
        fanout1 in 2usize..6,
        fanout2 in 2usize..5,
        targets in 2usize..12,
    ) {
        let graph = arbitrary_graph(nodes, seed);
        let t: Vec<NodeId> = (0..targets as u32).map(NodeId::new).collect();
        let fanouts = Fanouts::new(vec![fanout1, fanout2]);

        let file = ScratchFile::new("cost-purity-graph");
        write_graph_file(file.path(), &graph).expect("write graph file");

        let mut mem = InMemoryTopology::new(graph.clone());
        let (mem_seen, mem_plan) = traced_plan(&mut mem, &graph, &t, &fanouts, seed);
        prop_assert_eq!(
            &mem_seen, &mem_plan,
            "mem tier: recorder and sampler disagree"
        );

        let mut disk = FileTopology::new(Arc::new(
            SharedCsrFile::open(file.path()).expect("open graph file"),
        ));
        let (disk_seen, disk_plan) = traced_plan(&mut disk, &graph, &t, &fanouts, seed);
        prop_assert_eq!(
            &disk_seen, &disk_plan,
            "file tier: recorder and sampler disagree"
        );

        let mut isp = IspSampleTopology::over(
            Arc::new(
                SharedCsrFile::open_with(file.path(), FileStoreOptions::default())
                    .expect("open graph file"),
            ),
            IspGatherOptions::default(),
        );
        let (isp_seen, isp_plan) = traced_plan(&mut isp, &graph, &t, &fanouts, seed);
        prop_assert_eq!(
            &isp_seen, &isp_plan,
            "isp tier: recorder and sampler disagree"
        );

        // The determinism contract across tiers: one plan, one trace.
        prop_assert_eq!(&mem_plan, &disk_plan, "mem vs file trace");
        prop_assert_eq!(&mem_plan, &isp_plan, "mem vs isp trace");

        // And across *shard counts*: partitioning the topology over N
        // modeled devices routes each hop to its owning shard but never
        // changes the plan — so the (merged) trace a cost policy prices
        // is shard-agnostic by construction, the one-device partition
        // included.
        for shards in [1usize, 2, 3] {
            let ranges = shard_ranges(graph.num_nodes(), shards);
            // The registry's own partition — the files `open_tiers`
            // opens — once for the file tier and once, with its own
            // caches, for the isp tier.
            let open = || {
                StoreRegistry::new()
                    .open_graph_shards(&graph, shards, Default::default())
                    .expect("open shard files")
            };

            let mut sharded_mem = ShardedTopology::mem(Arc::new(graph.clone()), shards);
            let (seen, plan) = traced_plan(&mut sharded_mem, &graph, &t, &fanouts, seed);
            prop_assert_eq!(&seen, &plan, "sharded mem tier ({} shards)", shards);
            prop_assert_eq!(&plan, &mem_plan, "sharded mem vs unsharded trace");

            let mut sharded_disk =
                ShardedTopology::over_files(&open(), &ranges).expect("assemble sharded file topology");
            let (seen, plan) = traced_plan(&mut sharded_disk, &graph, &t, &fanouts, seed);
            prop_assert_eq!(&seen, &plan, "sharded file tier ({} shards)", shards);
            prop_assert_eq!(&plan, &mem_plan, "sharded file vs unsharded trace");

            let files = open();
            let mut sharded_isp =
                ShardedTopology::over_isp(&files, &ranges, IspGatherOptions::default())
                    .expect("assemble sharded isp topology");
            let (seen, plan) = traced_plan(&mut sharded_isp, &graph, &t, &fanouts, seed);
            prop_assert_eq!(&seen, &plan, "sharded isp tier ({} shards)", shards);
            prop_assert_eq!(&plan, &mem_plan, "sharded isp vs unsharded trace");
            for file in &files {
                let _ = std::fs::remove_file(file.path());
            }
        }
    }

    #[test]
    fn same_trace_prices_identically_on_a_fresh_policy(
        seed in 0u64..500,
        targets in 2usize..24,
    ) {
        let data = DatasetProfile::of(Dataset::Amazon)
            .materialize(GraphScale::LargeScale, 15_000, seed);
        for kind in SystemKind::ALL {
            let ctx = Arc::new(RunContext::new(data.clone(), SystemConfig::new(kind)));
            let t: Vec<NodeId> = (0..targets as u32).map(NodeId::new).collect();
            let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xC057);
            let batch = sample_on(
                &mut CsrView::new(ctx.graph()),
                &t,
                &Fanouts::new(vec![4, 3]),
                &mut rng,
            )
            .unwrap();
            let trace = batch.into_trace();
            let run = |worker: usize, workers: usize| {
                let mut devices = Devices::new(&ctx.config);
                let mut policy = make_policy(&ctx, workers);
                drive(&mut policy, &mut devices, worker, trace.clone())
            };
            let reference = run(0, 1);
            // Re-running on a fresh instance reproduces the cost...
            prop_assert_eq!(run(0, 1), reference, "{} is not trace-pure", kind);
            // ...and so does driving a different worker slot of a
            // wider policy: slot index and slot count are bookkeeping,
            // not model state.
            prop_assert_eq!(run(2, 4), reference, "{} depends on worker slot", kind);
        }
    }
}
