//! GNN training substrate for the SmartSAGE reproduction.
//!
//! Implements the *functional* side of the paper's workload — real
//! GraphSAGE training, not a timing stub:
//!
//! * [`tensor::Matrix`] — the dense row-major `f32` matrix the layers are
//!   built on (matmul, transpose products, ReLU, softmax cross-entropy,
//!   grouped means), with gradients verified against numeric
//!   differentiation in tests.
//! * [`sampler`] — GraphSAGE neighbor sampling (paper Algorithm 1) in
//!   one pass through a topology store: [`sampler::sample_on`] draws
//!   the random *positions* once into a [`sampler::SamplePlan`] and
//!   resolves them to the [`sampler::SampledBatch`] in the same hop
//!   loop. Every system (DRAM, mmap, direct-I/O, ISP) prices that one
//!   plan and trains on that one batch — so the property "the ISP
//!   produces byte-identical subgraphs to the host sampler" holds by
//!   construction and is also asserted by tests.
//! * [`saint`] — the GraphSAINT random-walk sampler used by the paper's
//!   robustness study (Fig 20).
//! * [`model`] — a 2-layer GraphSAGE (mean aggregator) with full
//!   forward/backward and SGD.
//! * [`trainer`] — the mini-batch training loop (loss provably decreases
//!   on community-structured synthetic graphs).
//! * [`gpu`] — the GPU timing model (Tesla T4-class FLOPs, PCIe 3.0 x16)
//!   used by the pipeline simulator for the consumer "GNN training" stage.

#![forbid(unsafe_code)]

pub mod gpu;
pub mod model;
pub mod saint;
pub mod sampler;
pub mod tensor;
pub mod trainer;

pub use gpu::{GpuParams, TrainingCost};
pub use model::GraphSageModel;
pub use sampler::{merge_batches, sample_many_on, Fanouts, SamplePlan, SampleSpec, SampledBatch};
pub use tensor::Matrix;
