//! Host software-stack cost parameters.
//!
//! Defaults are derived from the latencies the paper attributes to each
//! path: "several tens of microseconds of latency in traversing through
//! the system software stack to maintain the page cache" (§I) for the
//! mmap path, versus a lean syscall for direct I/O and a single `ioctl`
//! per coalesced ISP command (§IV-C).

use smartsage_sim::SimDuration;

/// Costs of the host OS / driver stack.
#[derive(Debug, Clone, PartialEq)]
pub struct HostIoParams {
    /// OS page size for the mmap path.
    pub os_page_bytes: u64,
    /// Kernel cost of a major page fault on the mmap path: trap, VMA
    /// walk, page-cache allocation/insertion, I/O submission via the
    /// block layer, page-table fixup, return to user.
    pub fault_cost: SimDuration,
    /// Cost of touching an already-resident mmap page (TLB pressure and
    /// occasional minor faults amortized per access).
    pub minor_hit_cost: SimDuration,
    /// Cost of one `pread(O_DIRECT)` syscall: user→kernel crossing, block
    /// layer, NVMe doorbell, completion — excluding device time.
    pub direct_io_syscall_cost: SimDuration,
    /// Cost of a hit in the user-space scratchpad buffer (hash probe +
    /// memcpy of one chunk).
    pub scratchpad_hit_cost: SimDuration,
    /// Cost of one `ioctl` issuing a (possibly coalesced) ISP command.
    pub ioctl_cost: SimDuration,
    /// Host CPU time to process one target node's sampling *logic* (RNG,
    /// index arithmetic, writing sampled IDs) — charged per edge-list
    /// access on CPU-side sampling paths, per the characterization that
    /// sampling has "little compute intensity" (§III-B).
    pub sample_compute_per_access: SimDuration,
}

impl Default for HostIoParams {
    fn default() -> Self {
        HostIoParams {
            os_page_bytes: 4096,
            fault_cost: SimDuration::from_micros(16),
            minor_hit_cost: SimDuration::from_nanos(250),
            direct_io_syscall_cost: SimDuration::from_micros(3),
            scratchpad_hit_cost: SimDuration::from_nanos(150),
            ioctl_cost: SimDuration::from_micros(5),
            sample_compute_per_access: SimDuration::from_nanos(100),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_order_sanely() {
        let p = HostIoParams::default();
        // The whole point of the design: a fault costs much more than a
        // direct-I/O syscall, which costs more than cache hits.
        assert!(p.fault_cost > p.direct_io_syscall_cost);
        assert!(p.direct_io_syscall_cost > p.minor_hit_cost);
        assert!(p.minor_hit_cost > p.scratchpad_hit_cost);
    }
}
