//! GPU timing model for the consumer "GNN training" stage.
//!
//! The paper's platform trains on an NVIDIA Tesla T4 (§V). The pipeline
//! simulator only needs *how long* a mini-batch's forward+backward takes
//! and how many bytes must cross PCIe to the GPU — both derivable from
//! the batch dimensions. We use a roofline-style estimate: FLOPs at a
//! derated fraction of the T4's peak fp32 throughput, plus fixed kernel
//! launch overheads.

use crate::sampler::SampledBatch;
use smartsage_sim::SimDuration;

/// GPU and host→GPU link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuParams {
    /// Peak fp32 throughput in FLOP/s.
    pub peak_flops: f64,
    /// Achieved fraction of peak for these (skinny) GEMMs.
    pub efficiency: f64,
    /// Fixed overhead per kernel launch.
    pub kernel_overhead: SimDuration,
    /// Kernels per training step (fwd + bwd + optimizer).
    pub kernels_per_batch: u32,
    /// Host→GPU PCIe effective bandwidth (bytes/s).
    pub pcie_bytes_per_sec: u64,
    /// Host→GPU transfer latency.
    pub pcie_latency: SimDuration,
}

impl Default for GpuParams {
    /// Tesla T4 over PCIe gen3 x16: 8.1 TFLOPS fp32 at 25% efficiency,
    /// ~12 GB/s effective host link.
    fn default() -> Self {
        GpuParams {
            peak_flops: 8.1e12,
            efficiency: 0.25,
            kernel_overhead: SimDuration::from_micros(15),
            kernels_per_batch: 24,
            pcie_bytes_per_sec: 12_000_000_000,
            pcie_latency: SimDuration::from_micros(10),
        }
    }
}

/// Mini-batch dimensions from the pipeline's point of view.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchDims {
    /// Targets per batch.
    pub m: u64,
    /// Layer-1 fan-out.
    pub s1: u64,
    /// Layer-2 fan-out.
    pub s2: u64,
    /// Input feature dimension.
    pub features: u64,
    /// Hidden width (layers 1 and 2).
    pub hidden: u64,
    /// Output classes.
    pub classes: u64,
}

impl BatchDims {
    /// Dimensions implied by a resolved batch and feature/hidden sizes.
    pub fn of_batch(batch: &SampledBatch, features: u64, hidden: u64, classes: u64) -> BatchDims {
        let m = batch.targets.len() as u64;
        let s1 = batch.hops.first().map_or(1, |h| h.fanout as u64);
        let s2 = batch.hops.get(1).map_or(1, |h| h.fanout as u64);
        BatchDims {
            m,
            s1,
            s2,
            features,
            hidden,
            classes,
        }
    }

    /// Forward+backward FLOPs of the two-layer SAGE model
    /// (backward ≈ 2x forward for GEMM-dominated nets).
    pub fn flops(&self) -> f64 {
        let f = self.features as f64;
        let h = self.hidden as f64;
        let c = self.classes as f64;
        let m = self.m as f64;
        let n1 = m * self.s1 as f64;
        // Layer 1 over hop-1 nodes and targets: (X·W_self + mean·W_neigh).
        let l1 = 2.0 * (n1 + m) * f * h * 2.0;
        // Layer 2 over targets.
        let l2 = 2.0 * m * h * h * 2.0;
        // Output projection.
        let lo = 2.0 * m * h * c;
        (l1 + l2 + lo) * 3.0 // fwd + ~2x bwd
    }

    /// Bytes of input the batch ships to the GPU: gathered features for
    /// every sampled node + the subgraph structure.
    pub fn transfer_bytes(&self) -> u64 {
        let nodes = self.m + self.m * self.s1 + self.m * self.s1 * self.s2;
        nodes * self.features * 4 + (self.m * self.s1 + self.m * self.s1 * self.s2) * 8
    }
}

/// Cost of training one mini-batch on the GPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainingCost {
    /// GPU compute time (kernel launches + GEMM time).
    pub compute: SimDuration,
    /// Bytes to move host→GPU before compute can start.
    pub transfer_bytes: u64,
}

impl GpuParams {
    /// Estimates the training cost of a batch with the given dimensions.
    pub fn batch_cost(&self, dims: &BatchDims) -> TrainingCost {
        let gemm_secs = dims.flops() / (self.peak_flops * self.efficiency);
        let compute = SimDuration::from_secs_f64(gemm_secs)
            + self.kernel_overhead.mul_u64(self.kernels_per_batch as u64);
        TrainingCost {
            compute,
            transfer_bytes: dims.transfer_bytes(),
        }
    }

    /// Pure transfer delay of `bytes` over the host→GPU link (unloaded).
    pub fn transfer_delay(&self, bytes: u64) -> SimDuration {
        let occupancy = SimDuration::from_secs_f64(bytes as f64 / self.pcie_bytes_per_sec as f64);
        occupancy + self.pcie_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_dims() -> BatchDims {
        BatchDims {
            m: 1024,
            s1: 25,
            s2: 10,
            features: 602,
            hidden: 256,
            classes: 16,
        }
    }

    #[test]
    fn flops_scale_with_batch() {
        let d = paper_dims();
        let double = BatchDims { m: 2048, ..d };
        assert!((double.flops() / d.flops() - 2.0).abs() < 0.01);
    }

    #[test]
    fn paper_batch_lands_in_tens_of_milliseconds() {
        // A Reddit-like batch should take ~10-100 ms on a T4 — the
        // magnitude that makes DRAM-backed data preparation keep up but
        // mmap-backed preparation starve the GPU (Fig 7).
        let cost = GpuParams::default().batch_cost(&paper_dims());
        let ms = cost.compute.as_millis_f64();
        assert!((5.0..200.0).contains(&ms), "compute {ms} ms");
    }

    #[test]
    fn transfer_bytes_count_features_and_structure() {
        let d = BatchDims {
            m: 2,
            s1: 2,
            s2: 2,
            features: 4,
            hidden: 8,
            classes: 2,
        };
        // nodes = 2 + 4 + 8 = 14; features 14*4*4 = 224; ids (4+8)*8 = 96.
        assert_eq!(d.transfer_bytes(), 224 + 96);
    }

    #[test]
    fn transfer_delay_includes_latency() {
        let p = GpuParams::default();
        let d = p.transfer_delay(12_000_000); // 1 ms of occupancy
        assert!(d >= SimDuration::from_millis(1));
        assert!(d <= SimDuration::from_micros(1100));
    }

    #[test]
    fn of_batch_reads_fanouts() {
        use crate::sampler::{sample_on, Fanouts};
        use smartsage_graph::generate::{generate_power_law, PowerLawConfig};
        use smartsage_graph::NodeId;
        use smartsage_sim::Xoshiro256;
        let g = generate_power_law(&PowerLawConfig {
            nodes: 50,
            avg_degree: 4.0,
            seed: 3,
            ..PowerLawConfig::default()
        });
        let mut rng = Xoshiro256::seed_from_u64(0);
        let (_, batch) = sample_on(
            &mut smartsage_store::CsrView::new(&g),
            &[NodeId::new(0), NodeId::new(1)],
            &Fanouts::new(vec![3, 2]),
            &mut rng,
        )
        .unwrap();
        let dims = BatchDims::of_batch(&batch, 16, 32, 4);
        assert_eq!(dims.m, 2);
        assert_eq!(dims.s1, 3);
        assert_eq!(dims.s2, 2);
    }
}
