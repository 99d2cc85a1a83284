//! Mini-batch training loop (functional).
//!
//! This is the "consumer" side of the paper's producer/consumer pipeline
//! (Fig 4), run for real: sample → gather → forward → backward → SGD.
//! The integration tests use it to prove the reproduction trains — loss
//! decreases and accuracy beats chance on community-labeled graphs —
//! independent of which storage tier produced the subgraphs.
//!
//! Both halves of the dataset are served by stores: neighbors are
//! sampled through a [`TopologyStore`] and features gathered through a
//! [`FeatureStore`] (in-memory, file-backed, or the
//! in-storage-processing tiers), for training and evaluation alike.
//! Because stores resolve to byte-identical values, the loss trajectory
//! of a run is independent of the tiers backing it — and of how many
//! workers share one file — asserted end-to-end in
//! `tests/feature_store_training.rs`, `tests/topology_training.rs` and
//! `tests/shared_store_concurrency.rs`.

use crate::model::{ForwardCache, GraphSageModel, ModelDims};
use crate::sampler::{epoch_targets, sample_on, Fanouts};
use smartsage_graph::NodeId;
use smartsage_sim::Xoshiro256;
use smartsage_store::{FeatureStore, StoreError, TopologyStore};

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

    /// The sample → gather → forward stages shared by training and
    /// evaluation: one [`sample_on`] pass through `topology`, the
    /// per-hop feature matrices through `store`.
    fn forward_via(
        &self,
        topology: &mut dyn TopologyStore,
        store: &mut dyn FeatureStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<ForwardCache, StoreError> {
        let batch = sample_on(topology, targets, &self.config.fanouts, rng)?;
        let (x0, x1, x2) = self.model.gather_features_from(&batch, store)?;
        Ok(self.model.forward(&batch, x0, x1, x2))
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
        let cache = self.forward_via(topology, store, targets, rng)?;
        let labels: Vec<usize> = targets.iter().map(|&t| store.label(t)).collect();
        let (loss, grads) = self.model.loss_and_gradients(&cache, &labels);
        self.model
            .apply_gradients(&grads, self.config.learning_rate);
        Ok(loss)
    }

    /// Runs one epoch through the stores (every node visited once as a
    /// target, in permuted order); returns the mean batch loss.
    pub fn train_epoch_via(
        &mut self,
        topology: &mut dyn TopologyStore,
        store: &mut dyn FeatureStore,
        epoch_seed: u64,
        rng: &mut Xoshiro256,
    ) -> Result<f32, StoreError> {
        let n = topology.num_nodes();
        let bs = self.config.batch_size.min(n).max(1);
        let steps = n.div_ceil(bs);
        let mut total = 0.0;
        for step in 0..steps {
            let targets = epoch_targets(n, bs, step, epoch_seed);
            total += self.train_step_via(topology, store, &targets, rng)?;
        }
        Ok(total / steps as f32)
    }

    /// Classification accuracy on `targets` (forward only), sampled and
    /// gathered through the stores exactly like
    /// [`Trainer::train_step_via`] — so evaluating a storage-backed run
    /// reports its topology I/O and surfaces its typed errors.
    pub fn accuracy_via(
        &self,
        topology: &mut dyn TopologyStore,
        store: &mut dyn FeatureStore,
        targets: &[NodeId],
        rng: &mut Xoshiro256,
    ) -> Result<f64, StoreError> {
        let cache = self.forward_via(topology, store, targets, rng)?;
        let preds = GraphSageModel::predictions(&cache);
        let correct = preds
            .iter()
            .zip(targets)
            .filter(|&(p, t)| *p == store.label(*t))
            .count();
        Ok(correct as f64 / targets.len().max(1) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
    use smartsage_graph::{CsrGraph, FeatureTable};
    use smartsage_store::{CsrView, InMemoryStore};

    fn setup() -> (CsrGraph, InMemoryStore) {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 600,
            avg_degree: 10.0,
            communities: 4,
            homophily: 0.9,
            seed: 88,
            ..PowerLawConfig::default()
        });
        (g, InMemoryStore::unbounded(FeatureTable::new(12, 4, 7)))
    }

    fn trainer(hidden: usize, rng: &mut Xoshiro256) -> Trainer {
        let dims = ModelDims {
            features: 12,
            hidden1: hidden,
            hidden2: hidden,
            classes: 4,
        };
        let config = TrainConfig {
            batch_size: 64,
            fanouts: Fanouts::new(vec![5, 3]),
            learning_rate: 0.3,
        };
        Trainer::new(dims, config, rng)
    }

    #[test]
    fn loss_decreases_over_epochs() {
        let (g, mut store) = setup();
        let mut topo = CsrView::new(&g);
        let mut rng = Xoshiro256::seed_from_u64(1);
        let mut trainer = trainer(16, &mut rng);
        let mut epoch = |e| {
            trainer
                .train_epoch_via(&mut topo, &mut store, e, &mut rng)
                .unwrap()
        };
        let first = epoch(0);
        let mut last = first;
        for e in 1..5 {
            last = epoch(e);
        }
        assert!(
            last < first * 0.6,
            "loss should drop across epochs: {first} -> {last}"
        );
    }

    #[test]
    fn accuracy_beats_chance_after_training() {
        let (g, mut store) = setup();
        let mut topo = CsrView::new(&g);
        let mut rng = Xoshiro256::seed_from_u64(2);
        let mut trainer = trainer(16, &mut rng);
        for e in 0..6 {
            trainer
                .train_epoch_via(&mut topo, &mut store, e, &mut rng)
                .unwrap();
        }
        let targets: Vec<NodeId> = (0..200u32).map(NodeId::new).collect();
        let acc = trainer
            .accuracy_via(&mut topo, &mut store, &targets, &mut rng)
            .unwrap();
        assert!(acc > 0.5, "accuracy {acc} should beat 0.25 chance easily");
    }

    /// The loss of each of six steps, bit for bit, at `fit_mem`'s layer
    /// widths (128/64/64/16, fan-outs 25/10) on a 2 000-node graph; the
    /// constants are those of the textbook triple-loop kernels. Every
    /// output element of a product is summed in ascending reduction
    /// order from `+0.0`, and a kernel edit that reorders a sum moves
    /// these bits at the step named in the failure.
    #[test]
    fn loss_trajectory_is_pinned_bit_for_bit() {
        const PINNED: [u32; 6] = [
            0x402e_e59b,
            0x402b_7c49,
            0x402a_04da,
            0x4029_433f,
            0x4025_0794,
            0x4022_92c0,
        ];
        const SEED: u64 = 7;
        let g = generate_power_law(&PowerLawConfig {
            nodes: 2_000,
            seed: SEED,
            ..PowerLawConfig::default()
        });
        let mut topo = CsrView::new(&g);
        let mut store = InMemoryStore::new(FeatureTable::new(128, 16, SEED), g.num_nodes());
        let mut rng = Xoshiro256::seed_from_u64(SEED);
        let dims = ModelDims {
            features: 128,
            hidden1: 64,
            hidden2: 64,
            classes: 16,
        };
        let config = TrainConfig {
            batch_size: 64,
            fanouts: Fanouts::new(vec![25, 10]),
            learning_rate: 0.05,
        };
        let mut trainer = Trainer::new(dims, config, &mut rng);
        for (step, &want) in PINNED.iter().enumerate() {
            let targets = epoch_targets(g.num_nodes(), 64, step, SEED);
            let loss = trainer
                .train_step_via(&mut topo, &mut store, &targets, &mut rng)
                .unwrap();
            assert_eq!(
                loss.to_bits(),
                want,
                "step {step}: loss {loss} = {:#010x}, pinned {:#010x}",
                loss.to_bits(),
                want
            );
        }
    }

    #[test]
    fn single_step_runs_on_tiny_batches() {
        let (g, mut store) = setup();
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut trainer = trainer(8, &mut rng);
        let mut topo = CsrView::new(&g);
        let loss = trainer
            .train_step_via(&mut topo, &mut store, &[NodeId::new(0)], &mut rng)
            .unwrap();
        assert!(loss.is_finite() && loss > 0.0);
        // One sampling pass: a degree read and a pick batch per hop.
        assert_eq!(topo.stats().gathers, 4);
    }
}
