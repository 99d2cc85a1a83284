//! Host-driven SSD pricing: `SSD (mmap)` and `SmartSAGE (SW)`.
//!
//! Both keep sampling on the host CPU and read the edge-list array from
//! the SSD, fetching each accessed node's neighbor-ID chunk in block
//! granularity (paper Fig 10a). They differ only in the software path
//! ([`HostPath`]):
//!
//! * `SsdMmap` goes through the OS page cache — faults cost "several
//!   tens of microseconds" of kernel time per missing page;
//! * `SmartSageSw` uses `O_DIRECT` + a user-space scratchpad — the
//!   paper's latency-optimized software runtime (SmartSAGE (SW)).
//!
//! Accesses step one at a time per worker (queue depth 1 per sampling
//! thread: each edge-list read depends on the previous control flow),
//! which is exactly why these paths are latency-bound.

use super::{Cursor, Priced};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use smartsage_hostio::HostPath;
use smartsage_sim::{SimDuration, SimTime, Xoshiro256};

/// The two host paths: the path its kind selects and its cache-hit draws.
#[derive(Debug)]
pub(super) struct HostPricing {
    path: HostPath,
    rng: Xoshiro256,
}

impl HostPricing {
    /// Pricing for `kind`: `SsdMmap` reads through the OS page cache,
    /// `SmartSageSw` through direct I/O and its scratchpad.
    pub(super) fn new(ctx: &RunContext, kind: SystemKind) -> HostPricing {
        let path = match kind {
            SystemKind::SsdMmap => HostPath::Mmap,
            _ => HostPath::DirectIo,
        };
        let rng = Xoshiro256::seed_from_u64(0x5EED_0001 ^ ctx.layout.total_bytes());
        HostPricing { path, rng }
    }

    /// Prices access `c.access` of hop `c.hop`.
    pub(super) fn step(
        &mut self,
        ctx: &RunContext,
        c: &mut Cursor,
        devices: &mut Devices,
        mut t: SimTime,
    ) -> Priced {
        // Both verdicts are drawn on every step, host cache first,
        // whether or not the access reads.
        let host_hit = self.rng.chance(match self.path {
            HostPath::Mmap => ctx.locality.page_cache_hit,
            HostPath::DirectIo => ctx.locality.scratchpad_hit,
        });
        let ssd_hit = self.rng.chance(ctx.locality.ssd_buffer_hit);
        let params = &ctx.config.devices.hostio;
        let hop = &c.trace.hops[c.hop];
        // Offset-table lookup: resident in host DRAM for all systems
        // (it is ~1% of the edge array).
        t += SimDuration::from_nanos(30);
        // Fetch the node's neighbor-ID chunk in block granularity.
        let range = ctx.layout.edge_list_range(ctx.graph(), hop.nodes[c.access]);
        let out = self
            .path
            .read(params, &mut devices.ssd, t, range, host_hit, ssd_hit);
        c.ssd_to_host += out.blocks_read * params.os_page_bytes;
        // Attribute non-device time as software overhead.
        c.overhead += out.software.min(out.done - t);
        t = out.done;
        // Host-side sampling compute for this access.
        t += params.sample_compute_per_access;
        c.access += 1;
        if c.access >= hop.nodes.len() {
            c.access = 0;
            c.hop += 1;
        }
        c.after_hop(t)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SystemKind;
    use crate::cost::testutil::{price, test_context, test_trace};
    use smartsage_sim::SimDuration;
    use std::sync::Arc;

    #[test]
    fn mmap_is_orders_of_magnitude_slower_than_dram_sampling() {
        let ctx = test_context(SystemKind::SsdMmap);
        let trace = test_trace(&ctx, 32, 5);
        let accesses = trace.num_accesses();
        let r = price(&ctx, trace);
        let per_access_us = r.sampling_time.as_micros_f64() / accesses as f64;
        // Misses cost ~70-90us; with a decent hit rate the blended cost
        // should still be tens of microseconds.
        assert!(
            (3.0..200.0).contains(&per_access_us),
            "per-access {per_access_us} us"
        );
        assert!(r.ssd_to_host_bytes > 0);
        assert!(r.overhead_time > SimDuration::ZERO);
    }

    #[test]
    fn a_missed_access_pays_a_fault_per_block_or_one_syscall() {
        for kind in [SystemKind::SsdMmap, SystemKind::SmartSageSw] {
            let mut ctx = (*test_context(kind)).clone();
            ctx.locality.page_cache_hit = 0.0;
            ctx.locality.scratchpad_hit = 0.0;
            let ctx = Arc::new(ctx);
            let trace = test_trace(&ctx, 16, 4);
            let p = &ctx.config.devices.hostio;
            let want: SimDuration = trace
                .hops
                .iter()
                .flat_map(|hop| &hop.nodes)
                .map(|&node| {
                    let range = ctx.layout.edge_list_range(ctx.graph(), node);
                    match range.block_count(p.os_page_bytes) {
                        0 => SimDuration::ZERO,
                        blocks if kind == SystemKind::SsdMmap => p.fault_cost.mul_u64(blocks),
                        _ => p.direct_io_syscall_cost,
                    }
                })
                .sum();
            let r = price(&ctx, trace);
            assert_eq!(r.overhead_time, want, "{kind}");
            assert!(r.overhead_time < r.sampling_time, "{kind}");
        }
    }

    #[test]
    fn direct_io_beats_mmap() {
        let run = |kind| {
            let ctx = test_context(kind);
            price(&ctx, test_trace(&ctx, 48, 6))
        };
        let rm = run(SystemKind::SsdMmap);
        let rd = run(SystemKind::SmartSageSw);
        let speedup = rm.sampling_time.ratio(rd.sampling_time);
        assert!(
            speedup > 1.1,
            "direct I/O speedup over mmap is only {speedup}"
        );
    }

    #[test]
    fn transfers_are_block_granular() {
        let ctx = test_context(SystemKind::SsdMmap);
        let trace = test_trace(&ctx, 16, 9);
        let useful = trace.num_sampled() * 8;
        let r = price(&ctx, trace);
        assert_eq!(r.ssd_to_host_bytes % 4096, 0);
        // Over-fetch: block-granular chunks dwarf the useful sample IDs.
        assert!(r.ssd_to_host_bytes > useful);
    }
}
