//! FPGA-based CSD pricing (paper §VI-D, Fig 9 and Fig 19).
//!
//! A SmartSSD-style device: the FPGA sits next to the SSD behind an
//! in-package PCIe switch. In-storage sampling then requires a **two-step
//! P2P data movement** — (1) SSD→FPGA transfer of the coarse edge-list
//! chunks, (2) FPGA-local sampling (fast, hardwired gather), (3)
//! FPGA→CPU transfer of the sampled subgraph. The paper's finding, which
//! this model reproduces, is that step (1) re-introduces exactly the
//! over-fetch the firmware ISP eliminates, so the FPGA CSD fails to beat
//! even the software-only direct-I/O design.

use super::{pages, Cursor, Priced};
use crate::context::{Devices, RunContext};
use crate::metrics::FpgaPhases;
use smartsage_sim::{Link, SimTime, Xoshiro256};

/// FPGA-CSD pricing: the in-device P2P link and the flash-hit draws.
#[derive(Debug)]
pub(super) struct FpgaPricing {
    /// The in-device P2P link between the SSD and the FPGA.
    p2p: Link,
    rng: Xoshiro256,
}

impl FpgaPricing {
    /// Pricing for `ctx`'s FPGA parameters.
    pub(super) fn new(ctx: &RunContext) -> Self {
        let fpga = &ctx.config.devices.fpga;
        FpgaPricing {
            p2p: Link::new(fpga.p2p_bytes_per_sec, fpga.p2p_latency),
            rng: Xoshiro256::seed_from_u64(0xF96A_0003 ^ ctx.layout.total_bytes()),
        }
    }

    /// Prices the batch's kernel issue, one chunk of its accesses, or
    /// the final subgraph transfer.
    pub(super) fn step(
        &mut self,
        ctx: &RunContext,
        c: &mut Cursor,
        devices: &mut Devices,
        t: SimTime,
    ) -> Priced {
        let params = &ctx.config.devices;
        let Some(phases) = &mut c.fpga else {
            // One command + FPGA kernel invocation for the whole batch.
            c.fpga = Some(FpgaPhases::default());
            return Priced::More(t + params.hostio.ioctl_cost + params.fpga.kernel_overhead);
        };

        if let Some(hop) = c.trace.hops.get(c.hop) {
            // Process one chunk of accesses: flash fill, P2P move of the
            // block-granular chunks to the FPGA, then the gather.
            let chunk_end = (c.access + params.fpga.p2p_queue_depth).min(hop.nodes.len());
            let block = params.hostio.os_page_bytes;
            let page_bytes = devices.ssd.page_bytes();
            let isp_hit_rate = ctx.locality.ssd_buffer_hit;
            let rng = &mut self.rng;
            let mut flash_done = t;
            let mut p2p_bytes = 0u64;
            let mut samples = 0u64;
            for i in c.access..chunk_end {
                samples += hop.picks(i).max(1) as u64;
                let range = ctx.layout.edge_list_range(ctx.graph(), hop.nodes[i]);
                if range.len == 0 {
                    continue;
                }
                p2p_bytes += range.block_count(block) * block;
                let fetched = devices.ssd.fetch_pages(t, pages(page_bytes, range), |_| {
                    Some(rng.chance(isp_hit_rate))
                });
                flash_done = flash_done.max(fetched);
                // Firmware still shepherds each P2P block command.
                let (_, fw) = devices
                    .ssd
                    .cores
                    .exec_raw(t, params.ssd.nvme.per_io_firmware_cost);
                flash_done = flash_done.max(fw);
            }
            // Step 1: SSD→FPGA chunk movement (the two-step penalty).
            let p2p_done = self.p2p.transfer(flash_done, p2p_bytes);
            phases.ssd_to_fpga += p2p_done.saturating_elapsed_since(t);
            phases.ssd_to_fpga_bytes += p2p_bytes;
            // Step 2: FPGA gather (hardwired, fast).
            let gather = params.fpga.sample_cost.mul_u64(samples);
            phases.sampling += gather;
            c.access = chunk_end;
            if c.access >= hop.nodes.len() {
                c.access = 0;
                c.hop += 1;
            }
            return Priced::More(p2p_done + gather);
        }

        // Step 3: FPGA→CPU transfer of the dense subgraph.
        let sampled_bytes = c.trace.num_sampled() * 8;
        let done = devices.ssd.dma_to_host(t, sampled_bytes);
        phases.fpga_to_cpu += done.saturating_elapsed_since(t);
        c.ssd_to_host += sampled_bytes;
        Priced::Last(done)
    }
}

#[cfg(test)]
mod tests {
    use crate::config::SystemKind;
    use crate::cost::testutil::{price, test_context, test_trace};
    use crate::cost::BatchCost;
    use smartsage_sim::SimDuration;

    fn run(kind: SystemKind, seed: u64) -> BatchCost {
        let ctx = test_context(kind);
        price(&ctx, test_trace(&ctx, 64, seed))
    }

    #[test]
    fn fpga_reports_phase_breakdown() {
        let ctx = test_context(SystemKind::FpgaCsd);
        let r = price(&ctx, test_trace(&ctx, 32, 1));
        let phases = r.fpga.expect("fpga detail");
        assert!(phases.ssd_to_fpga > SimDuration::ZERO);
        assert!(phases.ssd_to_fpga_bytes > 0);
        assert!(phases.sampling > SimDuration::ZERO);
        assert!(phases.fpga_to_cpu > SimDuration::ZERO);
    }

    #[test]
    fn fpga_is_slower_than_firmware_isp() {
        // The paper's §VI-D conclusion.
        let rf = run(SystemKind::FpgaCsd, 5);
        let ri = run(SystemKind::SmartSageHwSw, 5);
        assert!(
            rf.sampling_time > ri.sampling_time,
            "FPGA {} should trail firmware ISP {}",
            rf.sampling_time,
            ri.sampling_time
        );
    }

    #[test]
    fn fpga_does_not_beat_software_only() {
        let rf = run(SystemKind::FpgaCsd, 6);
        let rs = run(SystemKind::SmartSageSw, 6);
        // "failing to achieve any performance advantage even over our
        // software-only SmartSAGE(SW)" — allow parity but no clear win.
        assert!(
            rf.sampling_time.mul_f64(1.25) > rs.sampling_time,
            "FPGA {} should not clearly beat SW {}",
            rf.sampling_time,
            rs.sampling_time
        );
    }
}
