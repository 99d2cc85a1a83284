//! Integration: the functional training loop composes with every
//! cost policy — subgraphs resolve on the one real storage path, each
//! system's policy prices the same byte trace, and learning happens
//! regardless of which design point priced the data (the paper's
//! systems change *what sampling costs*, never *what it computes*).

use smartsage::core::config::{SystemConfig, SystemKind};
use smartsage::core::context::{Devices, RunContext};
use smartsage::core::cost::{make_policy, StepOutcome};
use smartsage::gnn::model::{GraphSageModel, ModelDims};
use smartsage::gnn::sampler::sample_on;
use smartsage::gnn::Fanouts;
use smartsage::graph::datasets::DEFAULT_NUM_CLASSES;
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
    let batch = sample_on(&mut topo, targets, &Fanouts::new(vec![5, 3]), &mut rng).unwrap();
    policy.begin(0, SimTime::ZERO, batch.clone().into_trace());
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
