//! Main-memory device models: DRAM and Optane PMEM.
//!
//! The paper's in-memory baselines store the edge-list array in host DRAM
//! (the oracular design of §VI-C) or in Optane DC PMEM NVDIMMs. Neighbor
//! sampling against these devices is latency-bound fine-grained random
//! reads (Fig 5: 62% LLC miss rate, 8-byte transactions, 21% bandwidth
//! utilization), so the model charges each access an effective load
//! latency — base latency divided by the memory-level parallelism the
//! out-of-order core extracts — plus line-granular occupancy on a shared
//! bandwidth link for multi-worker contention.

use smartsage_sim::{Link, SimDuration, SimTime};

/// Memory device parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct MemDeviceParams {
    /// Idle load-to-use latency.
    pub load_latency: SimDuration,
    /// Peak bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Memory-level parallelism: how many independent misses the core
    /// overlaps (effective per-access latency = `load_latency / mlp`).
    pub mlp: f64,
    /// Cache-line / access granularity in bytes.
    pub line_bytes: u64,
}

impl MemDeviceParams {
    /// Host DDR4 defaults matching the paper's platform: 90 ns loads,
    /// 125 GB/s peak (the number quoted with Fig 5), MLP 6, 64 B lines.
    pub fn dram() -> Self {
        MemDeviceParams {
            load_latency: SimDuration::from_nanos(90),
            bytes_per_sec: 125_000_000_000,
            mlp: 6.0,
            line_bytes: 64,
        }
    }

    /// Optane DC PMEM (NVDIMM) defaults: ~3x DRAM read latency, ~40 GB/s
    /// read bandwidth, lower sustainable MLP, 256 B internal access size.
    pub fn pmem() -> Self {
        MemDeviceParams {
            load_latency: SimDuration::from_nanos(300),
            bytes_per_sec: 40_000_000_000,
            mlp: 4.0,
            line_bytes: 256,
        }
    }

    /// Effective latency of one dependent random access.
    pub fn effective_latency(&self) -> SimDuration {
        self.load_latency.mul_f64(1.0 / self.mlp.max(1.0))
    }
}

/// A main-memory device shared by all workers.
#[derive(Debug, Clone)]
pub struct MemDevice {
    params: MemDeviceParams,
    channel: Link,
    accesses: u64,
}

impl MemDevice {
    /// Creates the device.
    ///
    /// # Panics
    ///
    /// Panics if bandwidth is zero (via [`Link::new`]).
    pub fn new(params: MemDeviceParams) -> Self {
        let channel = Link::new(params.bytes_per_sec, SimDuration::ZERO);
        MemDevice {
            params,
            channel,
            accesses: 0,
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &MemDeviceParams {
        &self.params
    }

    /// Performs `count` random accesses touching `bytes_each` bytes each,
    /// arriving at `at`; returns the completion time.
    ///
    /// Latency: `count × effective_latency` (dependent chain per worker).
    /// Bandwidth: each access occupies the shared channel for its
    /// line-rounded footprint, so concurrent workers push each other
    /// toward the bandwidth ceiling.
    pub fn random_access(&mut self, at: SimTime, count: u64, bytes_each: u64) -> SimTime {
        if count == 0 {
            return at;
        }
        self.accesses += count;
        let lines = bytes_each.div_ceil(self.params.line_bytes).max(1);
        let footprint = count * lines * self.params.line_bytes;
        let bus_done = self.channel.transfer(at, footprint);
        let latency_chain = self.params.effective_latency().mul_u64(count);
        // The worker perceives max(latency chain, its share of bus time).
        bus_done.max(at + latency_chain)
    }

    /// Total accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total bytes that crossed the memory channel.
    pub fn bytes_moved(&self) -> u64 {
        self.channel.bytes_moved()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dram_faster_than_pmem() {
        assert!(
            MemDeviceParams::dram().effective_latency()
                < MemDeviceParams::pmem().effective_latency()
        );
        assert!(MemDeviceParams::dram().bytes_per_sec > MemDeviceParams::pmem().bytes_per_sec);
    }

    #[test]
    fn latency_chain_dominates_sparse_access() {
        let mut m = MemDevice::new(MemDeviceParams::dram());
        // 1000 dependent 8-byte reads: ~1000 * 15ns = 15us; bus time for
        // 64 KB at 125 GB/s is 0.5us — latency-bound.
        let done = m.random_access(SimTime::ZERO, 1000, 8);
        let lat = done.since_epoch();
        assert!(lat >= SimDuration::from_micros(14), "latency {lat}");
        assert!(lat <= SimDuration::from_micros(20), "latency {lat}");
        assert_eq!(m.accesses(), 1000);
    }

    #[test]
    fn bandwidth_bounds_bulk_streams() {
        let mut m = MemDevice::new(MemDeviceParams::dram());
        // 30517 x 4 KiB = 1ms at peak; the latency chain is only ~0.46ms.
        let done = m.random_access(SimTime::ZERO, 30_517, 4096);
        let t = done.since_epoch();
        assert!(t >= SimDuration::from_micros(999), "stream time {t}");
        assert!(t <= SimDuration::from_micros(1100), "stream time {t}");
    }

    #[test]
    fn concurrent_workers_contend_for_bandwidth() {
        let mut m = MemDevice::new(MemDeviceParams::dram());
        // Two simultaneous bandwidth-heavy scans (4 KiB per access, so the
        // bus — not the latency chain — dominates); the second's bus
        // occupancy queues behind the first's.
        let d1 = m.random_access(SimTime::ZERO, 2_000_000, 4096);
        let d2 = m.random_access(SimTime::ZERO, 2_000_000, 4096);
        assert!(d2 > d1);
    }

    #[test]
    fn zero_count_is_a_noop() {
        let mut m = MemDevice::new(MemDeviceParams::dram());
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(m.random_access(t, 0, 8), t);
        assert_eq!(m.accesses(), 0);
    }
}
