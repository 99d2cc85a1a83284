//! DRAM bandwidth accounting for the Fig 5 characterization.
//!
//! Fig 5's right axis reports *achieved / peak* DRAM bandwidth during
//! neighbor sampling. Achieved traffic is the LLC miss stream (line
//! fills); the elapsed time comes from a latency-limited execution model:
//! each miss costs the effective (MLP-overlapped) DRAM latency, each hit
//! a few core cycles, and per-access sampling compute runs concurrently.

use smartsage_sim::SimDuration;

/// Accumulates the memory traffic and time of a characterized region.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthMeter {
    /// Peak DRAM bandwidth (bytes/s), e.g. the paper's 125 GB/s.
    pub peak_bytes_per_sec: f64,
    /// Effective per-miss latency after MLP overlap.
    pub miss_latency: SimDuration,
    /// Per-hit cost (L3 hit latency amortized).
    pub hit_cost: SimDuration,
    /// Cache line size (fill granularity).
    pub line_bytes: u64,
    hits: u64,
    misses: u64,
    workers: u32,
}

impl BandwidthMeter {
    /// Creates a meter for `workers` concurrent workers over a DRAM of
    /// `peak_bytes_per_sec` peak bandwidth filled in `line_bytes` lines
    /// (Fig 5 passes the modeled DRAM's), with a 25 ns effective miss
    /// latency (90 ns loads overlapped by the out-of-order window, plus
    /// dependent address generation) and a 6 ns hit cost.
    pub fn new(workers: u32, peak_bytes_per_sec: u64, line_bytes: u64) -> Self {
        BandwidthMeter {
            peak_bytes_per_sec: peak_bytes_per_sec as f64,
            miss_latency: SimDuration::from_nanos(25),
            hit_cost: SimDuration::from_nanos(6),
            line_bytes,
            hits: 0,
            misses: 0,
            workers: workers.max(1),
        }
    }

    /// Records `hits` cache hits and `misses` misses.
    pub fn record(&mut self, hits: u64, misses: u64) {
        self.hits += hits;
        self.misses += misses;
    }

    /// Elapsed time of the measured region under the latency-limited
    /// model, assuming the access stream is divided evenly across
    /// workers running in parallel.
    pub fn elapsed(&self) -> SimDuration {
        let serial = self.hit_cost.mul_u64(self.hits) + self.miss_latency.mul_u64(self.misses);
        serial.mul_f64(1.0 / self.workers as f64)
    }

    /// Bytes filled from DRAM (miss stream).
    pub fn bytes_filled(&self) -> u64 {
        self.misses * self.line_bytes
    }

    /// Achieved bandwidth as a fraction of peak, in `[0, 1]`.
    pub fn utilization(&self) -> f64 {
        let t = self.elapsed().as_secs_f64();
        if t <= 0.0 {
            return 0.0;
        }
        let achieved = self.bytes_filled() as f64 / t;
        (achieved / self.peak_bytes_per_sec).min(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A meter over the paper platform's DRAM: 125 GB/s, 64 B lines.
    fn meter(workers: u32) -> BandwidthMeter {
        BandwidthMeter::new(workers, 125_000_000_000, 64)
    }

    #[test]
    fn empty_meter_reports_zero() {
        let m = meter(1);
        assert_eq!(m.utilization(), 0.0);
        assert_eq!(m.bytes_filled(), 0);
        assert!(m.elapsed().is_zero());
    }

    #[test]
    fn all_miss_stream_utilization() {
        let mut m = meter(1);
        m.record(0, 1_000_000);
        // 64 MB over 15 ms = ~4.27 GB/s = ~3.4% of peak.
        let util = m.utilization();
        assert!(util > 0.02 && util < 0.05, "utilization {util}");
    }

    #[test]
    fn workers_scale_throughput() {
        let mut one = meter(1);
        let mut twelve = meter(12);
        one.record(400_000, 600_000);
        twelve.record(400_000, 600_000);
        assert!((twelve.utilization() / one.utilization() - 12.0).abs() < 0.01);
    }

    #[test]
    fn paper_band_is_reachable() {
        // ~62% miss rate, 12 workers: should land in the paper's 10-40%
        // utilization band.
        let mut m = meter(12);
        m.record(380_000, 620_000);
        let util = m.utilization();
        assert!(util > 0.1 && util < 0.5, "utilization {util}");
    }

    #[test]
    fn utilization_is_clamped() {
        let mut m = meter(1000);
        m.record(0, 10_000_000);
        assert!(m.utilization() <= 1.0);
    }
}
