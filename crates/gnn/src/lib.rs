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
//!   one pass through a topology store: [`sample_group_on`] samples a
//!   group of requests (a merged serve group, a window of the offline
//!   pass) with one degree call and one pick call per hop, and writes
//!   one record per request, its [`SampledBatch`]: per hop, the degrees
//!   the store answered and the resolved neighbors. The batch's byte
//!   trace is that batch moved ([`SampledBatch::into_trace`]), not a
//!   second record. The offline pipeline samples each window of
//!   `queue_depth` batches as one group, and [`sampler::sample_on`] is
//!   its one-request case (the trainer, Fig 5, the examples). Every
//!   system (DRAM, mmap, direct-I/O, ISP) prices that one trace and
//!   trains on that one batch — so the property "the ISP produces
//!   byte-identical subgraphs to the host sampler" holds by
//!   construction and is also asserted by tests. A GraphSAINT random
//!   walk (the paper's robustness study, Fig 20) is the same loop at
//!   fan-out 1 per hop: one neighbor per step, a sink staying in place.
//! * [`model`] — a 2-layer GraphSAGE (mean aggregator) with full
//!   forward/backward and SGD.
//! * [`trainer`] — the mini-batch training loop (loss provably decreases
//!   on community-structured synthetic graphs).
//! * [`gpu`] — the GPU timing model (Tesla T4-class FLOPs, PCIe 3.0 x16)
//!   used by the pipeline simulator for the consumer "GNN training" stage.

pub mod gpu;
pub mod model;
pub mod sampler;
pub mod tensor;
pub mod trainer;

pub use gpu::{GpuParams, TrainingCost};
pub use model::GraphSageModel;
pub use sampler::{
    gather_union, merge_batches, sample_group_on, Fanouts, SampleSpec, SampledBatch,
};
pub use tensor::Matrix;
