//! Measurement records a pipeline run reports and the experiment
//! drivers read: stage breakdown, transfer accounting, FPGA phases.

use smartsage_sim::SimDuration;

/// Time attributed to each stage of the training pipeline (paper Fig 6 /
/// Fig 18 stacked bars).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageBreakdown {
    /// Neighbor sampling (data preparation step 2).
    pub sampling: SimDuration,
    /// Feature table lookup (step 3).
    pub feature_lookup: SimDuration,
    /// CPU→GPU transfer (step between 3 and 4).
    pub cpu_to_gpu: SimDuration,
    /// GNN training on the GPU (steps 4-5).
    pub gnn_train: SimDuration,
    /// Everything else (framework overhead, queueing, command issue).
    pub other: SimDuration,
}

impl StageBreakdown {
    /// Sum of all stages.
    pub fn total(&self) -> SimDuration {
        self.sampling + self.feature_lookup + self.cpu_to_gpu + self.gnn_train + self.other
    }

    /// Per-stage fractions `[sampling, feature, transfer, train, other]`
    /// of the total (all zeros when empty).
    pub fn fractions(&self) -> [f64; 5] {
        let total = self.total();
        if total.is_zero() {
            return [0.0; 5];
        }
        [
            self.sampling.ratio(total),
            self.feature_lookup.ratio(total),
            self.cpu_to_gpu.ratio(total),
            self.gnn_train.ratio(total),
            self.other.ratio(total),
        ]
    }

    /// Accumulates another breakdown.
    pub fn accumulate(&mut self, other: &StageBreakdown) {
        self.sampling += other.sampling;
        self.feature_lookup += other.feature_lookup;
        self.cpu_to_gpu += other.cpu_to_gpu;
        self.gnn_train += other.gnn_train;
        self.other += other.other;
    }
}

/// Data-movement accounting for one run (paper Fig 10 / the ~20x
/// SSD→CPU transfer reduction claim).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TransferStats {
    /// Bytes moved SSD→host (blocks + DMA results).
    pub ssd_to_host_bytes: u64,
    /// Bytes moved host→SSD (NSconfig blobs).
    pub host_to_ssd_bytes: u64,
    /// Useful payload bytes (the dense sampled-ID lists).
    pub useful_bytes: u64,
}

impl TransferStats {
    /// Over-fetch factor: bytes moved per useful byte.
    pub fn amplification(&self) -> f64 {
        if self.useful_bytes == 0 {
            0.0
        } else {
            self.ssd_to_host_bytes as f64 / self.useful_bytes as f64
        }
    }
}

/// Phase timing detail for the FPGA-CSD cost policy (paper Fig 19's
/// bars).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FpgaPhases {
    /// Time moving edge-list chunks SSD→FPGA over the in-device P2P link.
    pub ssd_to_fpga: SimDuration,
    /// Bytes moved SSD→FPGA.
    pub ssd_to_fpga_bytes: u64,
    /// FPGA gather-unit sampling time.
    pub sampling: SimDuration,
    /// Time moving the subgraph FPGA→CPU.
    pub fpga_to_cpu: SimDuration,
}

impl FpgaPhases {
    /// Accumulates another batch's phases.
    pub fn accumulate(&mut self, other: &FpgaPhases) {
        self.ssd_to_fpga += other.ssd_to_fpga;
        self.ssd_to_fpga_bytes += other.ssd_to_fpga_bytes;
        self.sampling += other.sampling;
        self.fpga_to_cpu += other.fpga_to_cpu;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractions_sum_to_one() {
        let b = StageBreakdown {
            sampling: SimDuration::from_micros(50),
            feature_lookup: SimDuration::from_micros(20),
            cpu_to_gpu: SimDuration::from_micros(10),
            gnn_train: SimDuration::from_micros(15),
            other: SimDuration::from_micros(5),
        };
        let f = b.fractions();
        let sum: f64 = f.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((f[0] - 0.5).abs() < 1e-9);
        assert_eq!(b.total(), SimDuration::from_micros(100));
    }

    #[test]
    fn empty_breakdown_is_safe() {
        let b = StageBreakdown::default();
        assert_eq!(b.fractions(), [0.0; 5]);
        assert!(b.total().is_zero());
    }

    #[test]
    fn accumulate_adds_fields() {
        let mut a = StageBreakdown {
            sampling: SimDuration::from_micros(1),
            ..StageBreakdown::default()
        };
        let b = StageBreakdown {
            sampling: SimDuration::from_micros(2),
            gnn_train: SimDuration::from_micros(3),
            ..StageBreakdown::default()
        };
        a.accumulate(&b);
        assert_eq!(a.sampling, SimDuration::from_micros(3));
        assert_eq!(a.gnn_train, SimDuration::from_micros(3));
    }

    #[test]
    fn amplification() {
        let t = TransferStats {
            ssd_to_host_bytes: 2000,
            host_to_ssd_bytes: 10,
            useful_bytes: 100,
        };
        assert!((t.amplification() - 20.0).abs() < 1e-12);
        assert_eq!(TransferStats::default().amplification(), 0.0);
    }
}
