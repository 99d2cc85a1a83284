//! Integration: the functional training loop composes with every
//! cost policy — subgraphs resolve on the one real storage path, each
//! system's policy prices the same byte trace, and learning happens
//! regardless of which design point priced the data (the paper's
//! systems change *what sampling costs*, never *what it computes*).

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::{Devices, RunContext};
use smartsage::core::cost::{make_policy, StepOutcome};
use smartsage::gnn::model::{GraphSageModel, ModelDims};
use smartsage::gnn::sampler::{plan_sample_on, sample_on};
use smartsage::gnn::Fanouts;
use smartsage::graph::datasets::DEFAULT_NUM_CLASSES;
use smartsage::graph::generate::{generate_power_law, PowerLawConfig};
use smartsage::graph::{Dataset, DatasetProfile, FeatureTable, GraphScale, NodeId};
use smartsage::sim::{SimTime, Xoshiro256};
use smartsage::store::{CsrView, FeatureStore, InMemoryStore};
use std::sync::Arc;

/// Samples one batch, prices its trace on `kind`'s policy, and returns
/// the subgraph.
fn sample_via(
    kind: SystemKind,
    ctx: &Arc<RunContext>,
    targets: &[NodeId],
    seed: u64,
) -> smartsage::gnn::SampledBatch {
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(ctx, 1);
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let mut topo = CsrView::new(ctx.graph());
    let (plan, batch) = sample_on(&mut topo, targets, &Fanouts::new(vec![5, 3]), &mut rng).unwrap();
    policy.begin(0, SimTime::ZERO, plan.trace);
    let mut now = SimTime::ZERO;
    while let StepOutcome::Running { next } = policy.step(0, &mut devices, now) {
        now = next.max(now);
    }
    let _cost = policy.take_result(0);
    assert_eq!(batch.targets, targets, "{kind}: targets preserved");
    batch
}

#[test]
fn training_on_isp_produced_subgraphs_reduces_loss() {
    // Subgraphs are generated inside the simulated SSD; the model trains
    // on them exactly as it would on host-sampled ones.
    let data = DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 30_000, 1);
    let ctx = Arc::new(RunContext::new(
        data,
        SystemConfig::new(SystemKind::SmartSageHwSw),
    ));
    // Use a small feature table for the functional model.
    let mut table = InMemoryStore::unbounded(FeatureTable::new(12, DEFAULT_NUM_CLASSES, 3));
    let mut rng = Xoshiro256::seed_from_u64(2);
    let mut model = GraphSageModel::new(
        ModelDims {
            features: 12,
            hidden1: 16,
            hidden2: 16,
            classes: DEFAULT_NUM_CLASSES,
        },
        &mut rng,
    );
    let targets: Vec<NodeId> = (0..64u32).map(NodeId::new).collect();
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for step in 0..60 {
        let batch = sample_via(SystemKind::SmartSageHwSw, &ctx, &targets, 100 + step);
        let (x0, x1, x2) = model.gather_features_from(&batch, &mut table).unwrap();
        let cache = model.forward(&batch, x0, x1, x2);
        let labels: Vec<usize> = batch.targets.iter().map(|&t| table.label(t)).collect();
        let (loss, grads) = model.loss_and_gradients(&cache, &labels);
        model.apply_gradients(&grads, 0.4);
        first_loss.get_or_insert(loss);
        last_loss = loss;
    }
    let first = first_loss.expect("at least one step");
    assert!(
        last_loss < first * 0.6,
        "loss should fall training on ISP subgraphs: {first} -> {last_loss}"
    );
}

#[test]
fn every_system_trains_to_the_same_loss_trajectory() {
    // Because every system shares the one real storage path, training
    // is *numerically identical* across them — cost policies cannot
    // change learning outcomes.
    let mut reference: Option<Vec<f32>> = None;
    for kind in [
        SystemKind::Dram,
        SystemKind::SsdMmap,
        SystemKind::SmartSageHwSw,
        SystemKind::FpgaCsd,
    ] {
        let data =
            DatasetProfile::of(Dataset::ProteinPi).materialize(GraphScale::LargeScale, 25_000, 4);
        let ctx = Arc::new(RunContext::new(data, SystemConfig::new(kind)));
        let mut table = InMemoryStore::unbounded(FeatureTable::new(8, DEFAULT_NUM_CLASSES, 5));
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut model = GraphSageModel::new(
            ModelDims {
                features: 8,
                hidden1: 8,
                hidden2: 8,
                classes: DEFAULT_NUM_CLASSES,
            },
            &mut rng,
        );
        let targets: Vec<NodeId> = (0..32u32).map(NodeId::new).collect();
        let mut losses = Vec::new();
        for step in 0..5 {
            let batch = sample_via(kind, &ctx, &targets, 50 + step);
            let (x0, x1, x2) = model.gather_features_from(&batch, &mut table).unwrap();
            let cache = model.forward(&batch, x0, x1, x2);
            let labels: Vec<usize> = batch.targets.iter().map(|&t| table.label(t)).collect();
            let (loss, grads) = model.loss_and_gradients(&cache, &labels);
            model.apply_gradients(&grads, 0.2);
            losses.push(loss);
        }
        match &reference {
            None => reference = Some(losses),
            Some(want) => assert_eq!(&losses, want, "{kind} diverged from reference"),
        }
    }
}

#[test]
fn exact_mode_small_graph_runs_without_analytic_locality() {
    // When the materialized graph IS the whole dataset, the exact LRU
    // caches drive locality (RunContext::new_exact).
    let graph = generate_power_law(&PowerLawConfig {
        nodes: 500,
        avg_degree: 8.0,
        seed: 9,
        ..PowerLawConfig::default()
    });
    let data = smartsage::graph::datasets::MaterializedDataset {
        profile: DatasetProfile::of(Dataset::Reddit),
        scale: GraphScale::InMemory,
        graph: std::sync::Arc::new(graph),
        features: FeatureTable::new(8, 4, 0),
    };
    let ctx = Arc::new(RunContext::new_exact(
        data,
        SystemConfig::new(SystemKind::SsdMmap),
    ));
    assert!(ctx.locality.is_none());
    let targets: Vec<NodeId> = (0..16u32).map(NodeId::new).collect();
    let batch = sample_via(SystemKind::SsdMmap, &ctx, &targets, 1);
    assert_eq!(batch.targets.len(), 16);
    // Repeat pricing warms the exact caches inside the policy: the
    // second pass with the same trace must not be slower.
    let mut devices = Devices::new(&ctx.config);
    let mut policy = make_policy(&ctx, 1);
    let mut rng = Xoshiro256::seed_from_u64(1);
    let fanouts = Fanouts::new(vec![5, 3]);
    let plan =
        plan_sample_on(&mut CsrView::new(ctx.graph()), &targets, &fanouts, &mut rng).unwrap();
    let trace = plan.trace;
    let run = |policy: &mut Box<dyn smartsage::core::cost::CostPolicy>,
               devices: &mut Devices,
               at: SimTime,
               trace: smartsage::store::SampleTrace| {
        policy.begin(0, at, trace);
        let mut now = at;
        loop {
            match policy.step(0, devices, now) {
                StepOutcome::Running { next } => now = next.max(now),
                StepOutcome::Finished => return policy.take_result(0),
            }
        }
    };
    let cold = run(&mut policy, &mut devices, SimTime::ZERO, trace.clone());
    let warm = run(&mut policy, &mut devices, cold.done, trace);
    assert!(
        warm.sampling_time <= cold.sampling_time,
        "warm pass {} should not exceed cold pass {}",
        warm.sampling_time,
        cold.sampling_time
    );
}
