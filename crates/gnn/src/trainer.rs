//! Mini-batch training loop (functional).
//!
//! This is the "consumer" side of the paper's producer/consumer pipeline
//! (Fig 4), run for real: sample → gather → forward → backward → SGD.
//! The integration tests use it to prove the reproduction trains — loss
//! decreases and accuracy beats chance on community-labeled graphs —
//! independent of which storage tier produced the subgraphs.
//!
//! The gather stage goes through a
//! [`FeatureStore`]: the `*_on` methods
//! accept any store (in-memory, file-backed, the in-storage-processing
//! [`IspGatherStore`](smartsage_store::IspGatherStore)),
//! [`Trainer::train_step_shared`] gathers through a thread-shared
//! [`SharedDynStore`] (the hand-off type concurrent training workers
//! use), and the historical [`FeatureTable`]-based methods are thin
//! shims over an [`InMemoryStore`].
//! Because stores resolve gathers to byte-identical values, the loss
//! trajectory of a run is independent of the store backing it — and of
//! how many workers share it — asserted end-to-end in
//! `tests/feature_store_training.rs` and
//! `tests/shared_store_concurrency.rs`.

use crate::model::{GraphSageModel, ModelDims};
use crate::sampler::{epoch_targets, plan_sample, plan_sample_on, Fanouts};
use smartsage_graph::{CsrGraph, FeatureTable, NodeId};
use smartsage_sim::Xoshiro256;
use smartsage_store::{FeatureStore, InMemoryStore, SharedDynStore, StoreError, TopologyStore};

/// Training configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Mini-batch size (paper default 1024; tests use small values).
    pub batch_size: usize,
    /// Per-layer sampling fan-outs.
    pub fanouts: Fanouts,
    /// SGD learning rate.
    pub learning_rate: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            batch_size: 1024,
            fanouts: Fanouts::paper_default(),
            learning_rate: 0.05,
        }
    }
}

/// A functional GraphSAGE trainer over one graph + feature table.
#[derive(Debug, Clone)]
pub struct Trainer {
    model: GraphSageModel,
    config: TrainConfig,
}

impl Trainer {
    /// Creates a trainer with a freshly initialized model.
    pub fn new(dims: ModelDims, config: TrainConfig, rng: &mut Xoshiro256) -> Self {
        Trainer {
            model: GraphSageModel::new(dims, rng),
            config,
        }
    }

    /// The current model.
    pub fn model(&self) -> &GraphSageModel {
        &self.model
    }

    /// Gathers the per-hop feature matrices of a resolved batch through
    /// `store` — the trainer's gather stage, shared by the training and
    /// evaluation paths.
    pub fn gather(
        &self,
        batch: &crate::sampler::SampledBatch,
        store: &mut dyn FeatureStore,
    ) -> Result<(crate::Matrix, crate::Matrix, crate::Matrix), StoreError> {
        self.model.gather_features_from(batch, store)
    }

    /// Runs one training step on `targets`, gathering features through
    /// `store`; returns the batch loss. Shim over
    /// [`Trainer::train_step_via`] with a zero-copy in-memory topology
    /// view, so sampling through storage shares this exact code path.
    pub fn train_step_on(
        &mut self,
        graph: &CsrGraph,
        store: &mut dyn FeatureStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<f32, StoreError> {
        self.train_step_via(
            &mut smartsage_store::CsrView::new(graph),
            store,
            targets,
            rng,
        )
    }

    /// Runs one training step on `targets`, sampling neighbors through
    /// `topology` and gathering features through `store` — **both**
    /// halves of the dataset served by stores, so training can run
    /// entirely through real storage I/O. Because topology and feature
    /// stores alike resolve to byte-identical values (the determinism
    /// contract), the loss trajectory is independent of which tiers
    /// back the run; `tests/topology_training.rs` asserts this
    /// end-to-end.
    pub fn train_step_via(
        &mut self,
        topology: &mut dyn TopologyStore,
        store: &mut dyn FeatureStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<f32, StoreError> {
        let plan = plan_sample_on(topology, targets, &self.config.fanouts, rng)?;
        let batch = plan.resolve_on(topology)?;
        let (x0, x1, x2) = self.gather(&batch, store)?;
        let cache = self.model.forward(&batch, x0, x1, x2);
        let labels: Vec<usize> = batch.targets.iter().map(|&t| store.label(t)).collect();
        let (loss, grads) = self.model.loss_and_gradients(&cache, &labels);
        self.model
            .apply_gradients(&grads, self.config.learning_rate);
        Ok(loss)
    }

    /// Runs one epoch through `store` (every node visited once as a
    /// target, in permuted order); returns the mean batch loss.
    pub fn train_epoch_on(
        &mut self,
        graph: &CsrGraph,
        store: &mut dyn FeatureStore,
        epoch_seed: u64,
        rng: &mut Xoshiro256,
    ) -> Result<f32, StoreError> {
        let n = graph.num_nodes();
        let bs = self.config.batch_size.min(n).max(1);
        let steps = n.div_ceil(bs);
        let mut total = 0.0;
        for step in 0..steps {
            let targets = epoch_targets(n, bs, step, epoch_seed);
            total += self.train_step_on(graph, store, &targets, rng)?;
        }
        Ok(total / steps as f32)
    }

    /// Classification accuracy on `targets` through `store` (forward
    /// only).
    pub fn accuracy_on(
        &self,
        graph: &CsrGraph,
        store: &mut dyn FeatureStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<f64, StoreError> {
        let plan = plan_sample(graph, targets, &self.config.fanouts, rng);
        let batch = plan.resolve(graph);
        let (x0, x1, x2) = self.gather(&batch, store)?;
        let cache = self.model.forward(&batch, x0, x1, x2);
        let preds = GraphSageModel::predictions(&cache);
        let correct = preds
            .iter()
            .zip(&batch.targets)
            .filter(|&(p, t)| *p == store.label(*t))
            .count();
        Ok(correct as f64 / targets.len().max(1) as f64)
    }

    /// Runs one training step through a thread-shared store
    /// ([`SharedDynStore`]) — the gather path concurrent training
    /// workers use: the store mutex is held only for the gather and the
    /// label lookups of this one step, never across the forward or
    /// backward pass, so N workers sharing one file-backed store
    /// overlap their compute while the shared page cache below them
    /// deduplicates the I/O.
    pub fn train_step_shared(
        &mut self,
        graph: &CsrGraph,
        store: &SharedDynStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<f32, StoreError> {
        let plan = plan_sample(graph, targets, &self.config.fanouts, rng);
        let batch = plan.resolve(graph);
        let (x0, x1, x2, labels) = {
            let mut store = store.lock().expect("feature store poisoned");
            let (x0, x1, x2) = self.gather(&batch, store.as_mut())?;
            let labels: Vec<usize> = batch.targets.iter().map(|&t| store.label(t)).collect();
            (x0, x1, x2, labels)
        };
        let cache = self.model.forward(&batch, x0, x1, x2);
        let (loss, grads) = self.model.loss_and_gradients(&cache, &labels);
        self.model
            .apply_gradients(&grads, self.config.learning_rate);
        Ok(loss)
    }

    /// Runs one training step on `targets`; returns the batch loss.
    /// Shim over [`Trainer::train_step_on`] with an in-memory store.
    pub fn train_step(
        &mut self,
        graph: &CsrGraph,
        features: &FeatureTable,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> f32 {
        let mut store = InMemoryStore::unbounded(features.clone());
        self.train_step_on(graph, &mut store, targets, rng)
            .expect("in-memory gathers cannot fail")
    }

    /// Runs one epoch (every node visited once as a target, in permuted
    /// order); returns the mean batch loss. Shim over
    /// [`Trainer::train_epoch_on`] with an in-memory store.
    pub fn train_epoch(
        &mut self,
        graph: &CsrGraph,
        features: &FeatureTable,
        epoch_seed: u64,
        rng: &mut Xoshiro256,
    ) -> f32 {
        let mut store = InMemoryStore::unbounded(features.clone());
        self.train_epoch_on(graph, &mut store, epoch_seed, rng)
            .expect("in-memory gathers cannot fail")
    }

    /// Classification accuracy on `targets` (forward only). Shim over
    /// [`Trainer::accuracy_on`] with an in-memory store.
    pub fn accuracy(
        &self,
        graph: &CsrGraph,
        features: &FeatureTable,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> f64 {
        let mut store = InMemoryStore::unbounded(features.clone());
        self.accuracy_on(graph, &mut store, targets, rng)
            .expect("in-memory gathers cannot fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    fn setup() -> (CsrGraph, FeatureTable) {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 600,
            avg_degree: 10.0,
            communities: 4,
            homophily: 0.9,
            seed: 88,
            ..PowerLawConfig::default()
        });
        let t = FeatureTable::new(12, 4, 7);
        (g, t)
    }

    fn config() -> TrainConfig {
        TrainConfig {
            batch_size: 64,
            fanouts: Fanouts::new(vec![5, 3]),
            learning_rate: 0.3,
        }
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (g, t) = setup();
        let mut rng = Xoshiro256::seed_from_u64(1);
        let dims = ModelDims {
            features: 12,
            hidden1: 16,
            hidden2: 16,
            classes: 4,
        };
        let mut trainer = Trainer::new(dims, config(), &mut rng);
        let first = trainer.train_epoch(&g, &t, 0, &mut rng);
        let mut last = first;
        for e in 1..5 {
            last = trainer.train_epoch(&g, &t, e, &mut rng);
        }
        assert!(
            last < first * 0.6,
            "loss should drop across epochs: {first} -> {last}"
        );
    }

    #[test]
    fn accuracy_beats_chance_after_training() {
        let (g, t) = setup();
        let mut rng = Xoshiro256::seed_from_u64(2);
        let dims = ModelDims {
            features: 12,
            hidden1: 16,
            hidden2: 16,
            classes: 4,
        };
        let mut trainer = Trainer::new(dims, config(), &mut rng);
        for e in 0..6 {
            trainer.train_epoch(&g, &t, e, &mut rng);
        }
        let targets: Vec<NodeId> = (0..200u32).map(NodeId::new).collect();
        let acc = trainer.accuracy(&g, &t, &targets, &mut rng);
        assert!(acc > 0.5, "accuracy {acc} should beat 0.25 chance easily");
    }

    #[test]
    fn shared_step_is_bit_identical_to_exclusive_step() {
        let (g, t) = setup();
        let dims = ModelDims {
            features: 12,
            hidden1: 8,
            hidden2: 8,
            classes: 4,
        };
        let targets: Vec<NodeId> = (0..32u32).map(NodeId::new).collect();
        let mut rng_a = Xoshiro256::seed_from_u64(9);
        let mut trainer_a = Trainer::new(dims, config(), &mut rng_a);
        let mut store_a = InMemoryStore::unbounded(t.clone());
        let loss_a = trainer_a
            .train_step_on(&g, &mut store_a, &targets, &mut rng_a)
            .unwrap();
        let mut rng_b = Xoshiro256::seed_from_u64(9);
        let mut trainer_b = Trainer::new(dims, config(), &mut rng_b);
        let store_b = smartsage_store::share_store(InMemoryStore::unbounded(t));
        let loss_b = trainer_b
            .train_step_shared(&g, &store_b, &targets, &mut rng_b)
            .unwrap();
        assert_eq!(loss_a.to_bits(), loss_b.to_bits());
        assert_eq!(store_b.lock().unwrap().stats().gathers, 3);
    }

    #[test]
    fn single_step_runs_on_tiny_batches() {
        let (g, t) = setup();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let dims = ModelDims {
            features: 12,
            hidden1: 8,
            hidden2: 8,
            classes: 4,
        };
        let mut trainer = Trainer::new(dims, config(), &mut rng);
        let loss = trainer.train_step(&g, &t, &[NodeId::new(0)], &mut rng);
        assert!(loss.is_finite() && loss > 0.0);
    }
}
