//! In-memory pricing: DRAM (oracular) and Optane PMEM.
//!
//! The edge-list array resides in a byte-addressable memory device;
//! sampling is a chain of fine-grained random loads (paper §III-B) whose
//! time is dominated by effective load latency, plus a small per-access
//! host-CPU cost. One step prices one hop of the trace (accesses within
//! a hop are independent and execute back-to-back on the worker's core).

use super::{Cursor, Priced};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use smartsage_sim::SimTime;

/// DRAM / PMEM pricing: which memory device holds the edge lists.
#[derive(Debug)]
pub(super) struct MemPricing {
    dram: bool,
}

impl MemPricing {
    /// Pricing for `kind`: oracular `Dram`, or Optane `Pmem`.
    pub(super) fn new(kind: SystemKind) -> Self {
        MemPricing {
            dram: kind == SystemKind::Dram,
        }
    }

    /// Prices hop `c.hop`.
    pub(super) fn step(
        &self,
        ctx: &RunContext,
        c: &mut Cursor,
        devices: &mut Devices,
        t: SimTime,
    ) -> Priced {
        let hop = &c.trace.hops[c.hop];
        // Reads this hop: per access, two offset-table entries plus one
        // 8-byte load per sampled position.
        let accesses = hop.nodes.len() as u64;
        let drawn: usize = (0..hop.nodes.len()).map(|i| hop.picks(i)).sum();
        let reads = accesses * 2 + drawn as u64;
        let device = if self.dram {
            &mut devices.host_dram
        } else {
            &mut devices.pmem
        };
        let mem_done = device.random_access(t, reads, 8);
        // Host sampling logic runs concurrently with the loads; the
        // slower of the two gates the hop.
        let compute = ctx
            .config
            .devices
            .hostio
            .sample_compute_per_access
            .mul_u64(accesses);
        c.hop += 1;
        c.after_hop(mem_done.max(t + compute))
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SystemKind;
    use crate::cost::testutil::{price, test_context, test_trace};

    #[test]
    fn dram_batch_time_is_latency_dominated() {
        let ctx = test_context(SystemKind::Dram);
        let trace = test_trace(&ctx, 32, 1);
        let accesses = trace.num_accesses();
        let cost = price(&ctx, trace);
        // Time should be on the order of accesses x (tens of ns each).
        let per_access = cost.sampling_time.as_nanos_f64() / accesses as f64;
        assert!(
            (10.0..2_000.0).contains(&per_access),
            "per-access {per_access} ns"
        );
        assert_eq!(cost.ssd_to_host_bytes, 0);
    }

    #[test]
    fn pmem_slower_than_dram_by_small_factor() {
        let run = |kind| {
            let ctx = test_context(kind);
            price(&ctx, test_trace(&ctx, 64, 2))
        };
        let rd = run(SystemKind::Dram);
        let rp = run(SystemKind::Pmem);
        let ratio = rp.sampling_time.ratio(rd.sampling_time);
        assert!(
            (1.2..8.0).contains(&ratio),
            "PMEM/DRAM sampling ratio {ratio}"
        );
    }
}
