//! Two-layer GraphSAGE with mean aggregation (paper §II, Fig 2 step 4).
//!
//! For a depth-2 sampled tree (targets → s1 neighbors → s2 neighbors),
//! the model computes
//!
//! ```text
//! h1(v)   = ReLU(x(v)·W1s + mean(x(children(v)))·W1n + b1)   for v in {targets} ∪ hop-1
//! h2(t)   = ReLU(h1(t)·W2s + mean(h1(children(t)))·W2n + b2) for targets t
//! logits  = h2·Wo + bo
//! ```
//!
//! Forward and backward are implemented by hand; gradients are validated
//! against numeric differentiation in the tests, and end-to-end training
//! (loss decreasing on homophilous synthetic graphs) is exercised in
//! [`crate::trainer`].

use crate::sampler::SampledBatch;
use crate::tensor::{softmax_cross_entropy, Matrix};
use smartsage_sim::Xoshiro256;
use smartsage_store::{FeatureStore, StoreError};

/// Model hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelDims {
    /// Input feature dimension.
    pub features: usize,
    /// Hidden width of layer 1.
    pub hidden1: usize,
    /// Hidden width of layer 2.
    pub hidden2: usize,
    /// Number of output classes.
    pub classes: usize,
}

/// Parameter gradients from one backward pass.
#[derive(Debug, Clone)]
pub struct Gradients {
    w1_self: Matrix,
    w1_neigh: Matrix,
    b1: Vec<f32>,
    w2_self: Matrix,
    w2_neigh: Matrix,
    b2: Vec<f32>,
    w_out: Matrix,
    b_out: Vec<f32>,
}

/// The two-layer GraphSAGE model.
#[derive(Debug, Clone)]
pub struct GraphSageModel {
    dims: ModelDims,
    w1_self: Matrix,
    w1_neigh: Matrix,
    b1: Vec<f32>,
    w2_self: Matrix,
    w2_neigh: Matrix,
    b2: Vec<f32>,
    w_out: Matrix,
    b_out: Vec<f32>,
}

/// Everything the backward pass needs from forward.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    m: usize,
    s1: usize,
    s2: usize,
    x0: Matrix,
    x1: Matrix,
    n1_mean: Matrix,
    t_mean: Matrix,
    mask1: Vec<bool>,
    ht: Matrix,
    mask_t: Vec<bool>,
    h1_mean: Matrix,
    h2: Matrix,
    mask2: Vec<bool>,
    /// The logits (also returned separately for convenience).
    pub logits: Matrix,
}

impl GraphSageModel {
    /// Initializes the model with Xavier-style random weights.
    pub fn new(dims: ModelDims, rng: &mut Xoshiro256) -> Self {
        GraphSageModel {
            dims,
            w1_self: Matrix::randn(dims.features, dims.hidden1, rng),
            w1_neigh: Matrix::randn(dims.features, dims.hidden1, rng),
            b1: vec![0.0; dims.hidden1],
            w2_self: Matrix::randn(dims.hidden1, dims.hidden2, rng),
            w2_neigh: Matrix::randn(dims.hidden1, dims.hidden2, rng),
            b2: vec![0.0; dims.hidden2],
            w_out: Matrix::randn(dims.hidden2, dims.classes, rng),
            b_out: vec![0.0; dims.classes],
        }
    }

    /// Model hyperparameters.
    pub fn dims(&self) -> ModelDims {
        self.dims
    }

    /// Gathers the three per-hop feature matrices for `batch` through a
    /// [`FeatureStore`]. By the store determinism contract the matrices
    /// are byte-identical across store implementations; only the I/O
    /// counters differ.
    ///
    /// # Panics
    ///
    /// Panics if the batch does not have exactly 2 hops or the store
    /// dimension disagrees with the model.
    pub fn gather_features_from(
        &self,
        batch: &SampledBatch,
        store: &mut dyn FeatureStore,
    ) -> Result<(Matrix, Matrix, Matrix), StoreError> {
        assert_eq!(batch.hops.len(), 2, "model is depth-2");
        assert_eq!(store.dim(), self.dims.features, "feature dim mismatch");
        let f = store.dim();
        let x0 = Matrix::from_vec(batch.targets.len(), f, store.gather(&batch.targets)?);
        let x1 = Matrix::from_vec(
            batch.hops[0].neighbors.len(),
            f,
            store.gather(&batch.hops[0].neighbors)?,
        );
        let x2 = Matrix::from_vec(
            batch.hops[1].neighbors.len(),
            f,
            store.gather(&batch.hops[1].neighbors)?,
        );
        Ok((x0, x1, x2))
    }

    /// Forward pass over a depth-2 batch given its per-hop features.
    ///
    /// # Panics
    ///
    /// Panics on shape mismatches between the batch and the matrices.
    pub fn forward(
        &self,
        batch: &SampledBatch,
        x0: Matrix,
        x1: Matrix,
        x2: Matrix,
    ) -> ForwardCache {
        assert_eq!(batch.hops.len(), 2, "model is depth-2");
        let m = batch.targets.len();
        let s1 = batch.hops[0].fanout;
        let s2 = batch.hops[1].fanout;
        assert_eq!(x0.rows(), m);
        assert_eq!(x1.rows(), m * s1);
        assert_eq!(x2.rows(), m * s1 * s2);

        // Layer 1 on hop-1 nodes.
        let n1_mean = x2.group_mean(m * s1, s2);
        let mut h1 = x1.matmul(&self.w1_self);
        h1.add_scaled_inplace(&n1_mean.matmul(&self.w1_neigh), 1.0);
        h1.add_bias_inplace(&self.b1);
        let mask1 = h1.relu_inplace();

        // Layer 1 on targets (their neighbors are the hop-1 nodes).
        let t_mean = x1.group_mean(m, s1);
        let mut ht = x0.matmul(&self.w1_self);
        ht.add_scaled_inplace(&t_mean.matmul(&self.w1_neigh), 1.0);
        ht.add_bias_inplace(&self.b1);
        let mask_t = ht.relu_inplace();

        // Layer 2 on targets.
        let h1_mean = h1.group_mean(m, s1);
        let mut h2 = ht.matmul(&self.w2_self);
        h2.add_scaled_inplace(&h1_mean.matmul(&self.w2_neigh), 1.0);
        h2.add_bias_inplace(&self.b2);
        let mask2 = h2.relu_inplace();

        // Output projection.
        let mut logits = h2.matmul(&self.w_out);
        logits.add_bias_inplace(&self.b_out);

        ForwardCache {
            m,
            s1,
            s2,
            x0,
            x1,
            n1_mean,
            t_mean,
            mask1,
            ht,
            mask_t,
            h1_mean,
            h2,
            mask2,
            logits,
        }
    }

    /// Computes loss and gradients for `labels` given a forward cache.
    ///
    /// # Panics
    ///
    /// Panics if `labels.len()` differs from the batch size.
    pub fn loss_and_gradients(&self, cache: &ForwardCache, labels: &[usize]) -> (f32, Gradients) {
        let (loss, dlogits) = softmax_cross_entropy(&cache.logits, labels);

        // Output layer.
        let d_w_out = cache.h2.t_matmul(&dlogits);
        let d_b_out = col_sums(&dlogits);
        let mut d_h2 = dlogits.matmul_t(&self.w_out);
        d_h2.relu_backward_inplace(&cache.mask2);

        // Layer 2.
        let d_w2_self = cache.ht.t_matmul(&d_h2);
        let d_w2_neigh = cache.h1_mean.t_matmul(&d_h2);
        let d_b2 = col_sums(&d_h2);
        let mut d_ht = d_h2.matmul_t(&self.w2_self);
        d_ht.relu_backward_inplace(&cache.mask_t);
        let d_h1_mean = d_h2.matmul_t(&self.w2_neigh);
        let mut d_h1 = Matrix::group_mean_backward(&d_h1_mean, cache.s1);
        d_h1.relu_backward_inplace(&cache.mask1);

        // Layer 1 — gradients accumulate from the hop-1 path (d_h1) and
        // the target path (d_ht), both through the shared W1 parameters.
        let mut d_w1_self = cache.x1.t_matmul(&d_h1);
        d_w1_self.add_scaled_inplace(&cache.x0.t_matmul(&d_ht), 1.0);
        let mut d_w1_neigh = cache.n1_mean.t_matmul(&d_h1);
        d_w1_neigh.add_scaled_inplace(&cache.t_mean.t_matmul(&d_ht), 1.0);
        let mut d_b1 = col_sums(&d_h1);
        for (a, b) in d_b1.iter_mut().zip(col_sums(&d_ht)) {
            *a += b;
        }
        debug_assert_eq!(cache.m * cache.s1 * cache.s2, cache.x1.rows() * cache.s2);

        (
            loss,
            Gradients {
                w1_self: d_w1_self,
                w1_neigh: d_w1_neigh,
                b1: d_b1,
                w2_self: d_w2_self,
                w2_neigh: d_w2_neigh,
                b2: d_b2,
                w_out: d_w_out,
                b_out: d_b_out,
            },
        )
    }

    /// SGD update: `param -= lr * grad`.
    pub fn apply_gradients(&mut self, grads: &Gradients, lr: f32) {
        self.w1_self.add_scaled_inplace(&grads.w1_self, -lr);
        self.w1_neigh.add_scaled_inplace(&grads.w1_neigh, -lr);
        for (p, g) in self.b1.iter_mut().zip(&grads.b1) {
            *p -= lr * g;
        }
        self.w2_self.add_scaled_inplace(&grads.w2_self, -lr);
        self.w2_neigh.add_scaled_inplace(&grads.w2_neigh, -lr);
        for (p, g) in self.b2.iter_mut().zip(&grads.b2) {
            *p -= lr * g;
        }
        self.w_out.add_scaled_inplace(&grads.w_out, -lr);
        for (p, g) in self.b_out.iter_mut().zip(&grads.b_out) {
            *p -= lr * g;
        }
    }

    /// Predicted class per target from a forward cache.
    pub fn predictions(cache: &ForwardCache) -> Vec<usize> {
        (0..cache.logits.rows())
            .map(|r| {
                let row = cache.logits.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .collect()
    }
}

fn col_sums(m: &Matrix) -> Vec<f32> {
    let mut out = vec![0.0; m.cols()];
    for r in 0..m.rows() {
        for (o, &v) in out.iter_mut().zip(m.row(r)) {
            *o += v;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{sample_on, Fanouts};
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
    use smartsage_graph::{FeatureTable, NodeId};
    use smartsage_store::{CsrView, InMemoryStore};

    fn setup() -> (
        GraphSageModel,
        SampledBatch,
        Matrix,
        Matrix,
        Matrix,
        Vec<usize>,
    ) {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 100,
            avg_degree: 6.0,
            seed: 50,
            ..PowerLawConfig::default()
        });
        let mut store = InMemoryStore::unbounded(FeatureTable::new(6, 3, 1));
        let mut rng = Xoshiro256::seed_from_u64(10);
        let targets: Vec<NodeId> = (0..5u32).map(NodeId::new).collect();
        let fanouts = Fanouts::new(vec![3, 2]);
        let (_, batch) = sample_on(&mut CsrView::new(&g), &targets, &fanouts, &mut rng).unwrap();
        let dims = ModelDims {
            features: 6,
            hidden1: 5,
            hidden2: 4,
            classes: 3,
        };
        let model = GraphSageModel::new(dims, &mut rng);
        let (x0, x1, x2) = model.gather_features_from(&batch, &mut store).unwrap();
        let labels: Vec<usize> = batch.targets.iter().map(|&t| store.label(t)).collect();
        (model, batch, x0, x1, x2, labels)
    }

    #[test]
    fn forward_shapes() {
        let (model, batch, x0, x1, x2, _) = setup();
        let cache = model.forward(&batch, x0, x1, x2);
        assert_eq!(cache.logits.rows(), 5);
        assert_eq!(cache.logits.cols(), 3);
        assert_eq!(GraphSageModel::predictions(&cache).len(), 5);
    }

    #[test]
    fn gradients_match_numeric_differentiation() {
        let (mut model, batch, x0, x1, x2, labels) = setup();
        let cache = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
        let (_, grads) = model.loss_and_gradients(&cache, &labels);

        let eps = 2e-3f32;
        // Spot-check a handful of coordinates in every parameter tensor.
        let checks: Vec<(&str, usize, usize)> = vec![
            ("w1_self", 0, 0),
            ("w1_self", 3, 2),
            ("w1_neigh", 1, 4),
            ("w2_self", 2, 1),
            ("w2_neigh", 4, 3),
            ("w_out", 3, 2),
        ];
        for (name, r, c) in checks {
            let analytic = match name {
                "w1_self" => grads.w1_self.at(r, c),
                "w1_neigh" => grads.w1_neigh.at(r, c),
                "w2_self" => grads.w2_self.at(r, c),
                "w2_neigh" => grads.w2_neigh.at(r, c),
                "w_out" => grads.w_out.at(r, c),
                _ => unreachable!(),
            };
            let mut loss_at = |delta: f32| -> f32 {
                let field: &mut Matrix = match name {
                    "w1_self" => &mut model.w1_self,
                    "w1_neigh" => &mut model.w1_neigh,
                    "w2_self" => &mut model.w2_self,
                    "w2_neigh" => &mut model.w2_neigh,
                    "w_out" => &mut model.w_out,
                    _ => unreachable!(),
                };
                *field.at_mut(r, c) += delta;
                let cache = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
                let (loss, _) = model.loss_and_gradients(&cache, &labels);
                let field: &mut Matrix = match name {
                    "w1_self" => &mut model.w1_self,
                    "w1_neigh" => &mut model.w1_neigh,
                    "w2_self" => &mut model.w2_self,
                    "w2_neigh" => &mut model.w2_neigh,
                    "w_out" => &mut model.w_out,
                    _ => unreachable!(),
                };
                *field.at_mut(r, c) -= delta;
                loss
            };
            let numeric = (loss_at(eps) - loss_at(-eps)) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2_f32.max(0.2 * numeric.abs()),
                "{name}[{r},{c}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn bias_gradients_match_numeric() {
        let (mut model, batch, x0, x1, x2, labels) = setup();
        let cache = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
        let (_, grads) = model.loss_and_gradients(&cache, &labels);
        let eps = 2e-3f32;
        for idx in [0usize, 2] {
            let analytic = grads.b1[idx];
            model.b1[idx] += eps;
            let c1 = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
            let (lp, _) = model.loss_and_gradients(&c1, &labels);
            model.b1[idx] -= 2.0 * eps;
            let c2 = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
            let (lm, _) = model.loss_and_gradients(&c2, &labels);
            model.b1[idx] += eps;
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - analytic).abs() < 2e-2,
                "b1[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn sgd_steps_reduce_loss() {
        let (mut model, batch, x0, x1, x2, labels) = setup();
        let cache = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
        let (loss0, _) = model.loss_and_gradients(&cache, &labels);
        for _ in 0..30 {
            let cache = model.forward(&batch, x0.clone(), x1.clone(), x2.clone());
            let (_, grads) = model.loss_and_gradients(&cache, &labels);
            model.apply_gradients(&grads, 0.5);
        }
        let cache = model.forward(&batch, x0, x1, x2);
        let (loss1, _) = model.loss_and_gradients(&cache, &labels);
        assert!(
            loss1 < loss0 * 0.7,
            "loss should drop markedly: {loss0} -> {loss1}"
        );
    }
}
