//! FPGA-based CSD cost policy (paper §VI-D, Fig 9 and Fig 19).
//!
//! A SmartSSD-style device: the FPGA sits next to the SSD behind an
//! in-package PCIe switch. In-storage sampling then requires a **two-step
//! P2P data movement** — (1) SSD→FPGA transfer of the coarse edge-list
//! chunks, (2) FPGA-local sampling (fast, hardwired gather), (3)
//! FPGA→CPU transfer of the sampled subgraph. The paper's finding, which
//! this model reproduces, is that step (1) re-introduces exactly the
//! over-fetch the firmware ISP eliminates, so the FPGA CSD fails to beat
//! even the software-only direct-I/O design.

use super::{fetch_pages, BatchCost, CostPolicy, StepOutcome};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::metrics::FpgaPhases;
use smartsage_sim::{Link, SimDuration, SimTime, Xoshiro256};
use smartsage_store::SampleTrace;
use std::sync::Arc;

#[derive(Debug)]
struct Cursor {
    trace: SampleTrace,
    hop: usize,
    access: usize,
    started: SimTime,
    now: SimTime,
    issued: bool,
    phases: FpgaPhases,
    ssd_to_host: u64,
}

/// The FPGA-CSD cost policy.
#[derive(Debug)]
pub struct FpgaPolicy {
    ctx: Arc<RunContext>,
    /// The in-device P2P link between the SSD and the FPGA.
    p2p: Link,
    rng: Xoshiro256,
    cursors: Vec<Option<Cursor>>,
    finished: Vec<Option<BatchCost>>,
}

impl FpgaPolicy {
    /// Creates the policy.
    pub fn new(ctx: Arc<RunContext>, workers: usize) -> Self {
        let fpga = &ctx.config.devices.fpga;
        let p2p = Link::new(fpga.p2p_bytes_per_sec, fpga.p2p_latency);
        let rng = Xoshiro256::seed_from_u64(0xF96A_0003 ^ ctx.layout.total_bytes());
        FpgaPolicy {
            ctx,
            p2p,
            rng,
            cursors: (0..workers).map(|_| None).collect(),
            finished: (0..workers).map(|_| None).collect(),
        }
    }
}

impl CostPolicy for FpgaPolicy {
    fn kind(&self) -> SystemKind {
        SystemKind::FpgaCsd
    }

    fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace) {
        assert!(self.cursors[worker].is_none(), "worker {worker} is busy");
        self.cursors[worker] = Some(Cursor {
            trace,
            hop: 0,
            access: 0,
            started: at,
            now: at,
            issued: false,
            phases: FpgaPhases::default(),
            ssd_to_host: 0,
        });
    }

    fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome {
        let ctx = &*self.ctx;
        let params = &ctx.config.devices;
        let isp_hit_rate = ctx.locality.map(|l| l.ssd_buffer_hit_isp);
        let cursor = self.cursors[worker].as_mut().expect("no active batch");
        let mut t = now.max(cursor.now);

        if !cursor.issued {
            // One command + FPGA kernel invocation for the whole batch.
            t = t + params.hostio.ioctl_cost + params.fpga.kernel_overhead;
            cursor.issued = true;
            cursor.now = t;
            return StepOutcome::Running { next: t };
        }

        if cursor.hop < cursor.trace.hops.len() {
            // Process one chunk of accesses: flash fill, P2P move of the
            // block-granular chunks to the FPGA, then the gather.
            let hop = &cursor.trace.hops[cursor.hop];
            let chunk_end = (cursor.access + params.fpga.p2p_queue_depth).min(hop.nodes.len());
            let block = params.hostio.os_page_bytes;
            let mut flash_done = t;
            let mut p2p_bytes = 0u64;
            let mut samples = 0u64;
            for i in cursor.access..chunk_end {
                samples += hop.picks(i).max(1) as u64;
                let range = ctx.layout.edge_list_range(ctx.graph(), hop.nodes[i]);
                if range.len == 0 {
                    continue;
                }
                p2p_bytes += range.block_count(block) * block;
                let fetched = fetch_pages(&mut devices.ssd, &mut self.rng, isp_hit_rate, t, range);
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
            cursor.phases.ssd_to_fpga += p2p_done.saturating_elapsed_since(t);
            cursor.phases.ssd_to_fpga_bytes += p2p_bytes;
            // Step 2: FPGA gather (hardwired, fast).
            let gather = params.fpga.sample_cost.mul_u64(samples);
            cursor.phases.sampling += gather;
            t = p2p_done + gather;
            cursor.now = t;
            cursor.access = chunk_end;
            if cursor.access >= hop.nodes.len() {
                cursor.access = 0;
                cursor.hop += 1;
            }
            return StepOutcome::Running { next: t };
        }

        // Step 3: FPGA→CPU transfer of the dense subgraph.
        let sampled_bytes = cursor.trace.num_sampled() * 8;
        let done = devices.ssd.dma_to_host(t, sampled_bytes);
        cursor.phases.fpga_to_cpu += done.saturating_elapsed_since(t);
        cursor.ssd_to_host += sampled_bytes;
        cursor.now = done;
        let cursor = self.cursors[worker].take().expect("cursor");
        self.finished[worker] = Some(BatchCost {
            done: cursor.now,
            sampling_time: cursor.now - cursor.started,
            overhead_time: SimDuration::ZERO,
            ssd_to_host_bytes: cursor.ssd_to_host,
            host_to_ssd_bytes: 0,
            fpga: Some(cursor.phases),
        });
        StepOutcome::Finished
    }

    fn take_result(&mut self, worker: usize) -> BatchCost {
        self.finished[worker].take().expect("no finished batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::testutil::{drive, test_context, test_trace};
    use crate::cost::{HostPolicy, IspPolicy};

    #[test]
    fn fpga_reports_phase_breakdown() {
        let ctx = test_context(SystemKind::FpgaCsd);
        let mut devices = Devices::new(&ctx.config);
        let mut p = FpgaPolicy::new(Arc::clone(&ctx), 1);
        let r = drive(
            &mut p,
            &mut devices,
            0,
            SimTime::ZERO,
            test_trace(&ctx, 32, 1),
        );
        let phases = r.fpga.expect("fpga detail");
        assert!(phases.ssd_to_fpga > SimDuration::ZERO);
        assert!(phases.ssd_to_fpga_bytes > 0);
        assert!(phases.sampling > SimDuration::ZERO);
        assert!(phases.fpga_to_cpu > SimDuration::ZERO);
    }

    #[test]
    fn fpga_is_slower_than_firmware_isp() {
        // The paper's §VI-D conclusion.
        let ctx_f = test_context(SystemKind::FpgaCsd);
        let mut dev_f = Devices::new(&ctx_f.config);
        let mut pf = FpgaPolicy::new(Arc::clone(&ctx_f), 1);
        let rf = drive(
            &mut pf,
            &mut dev_f,
            0,
            SimTime::ZERO,
            test_trace(&ctx_f, 64, 5),
        );
        let ctx_i = test_context(SystemKind::SmartSageHwSw);
        let mut dev_i = Devices::new(&ctx_i.config);
        let mut pi = IspPolicy::new(Arc::clone(&ctx_i), 1, false);
        let ri = drive(
            &mut pi,
            &mut dev_i,
            0,
            SimTime::ZERO,
            test_trace(&ctx_i, 64, 5),
        );
        assert!(
            rf.sampling_time > ri.sampling_time,
            "FPGA {} should trail firmware ISP {}",
            rf.sampling_time,
            ri.sampling_time
        );
    }

    #[test]
    fn fpga_does_not_beat_software_only() {
        let ctx_f = test_context(SystemKind::FpgaCsd);
        let mut dev_f = Devices::new(&ctx_f.config);
        let mut pf = FpgaPolicy::new(Arc::clone(&ctx_f), 1);
        let rf = drive(
            &mut pf,
            &mut dev_f,
            0,
            SimTime::ZERO,
            test_trace(&ctx_f, 64, 6),
        );
        let ctx_s = test_context(SystemKind::SmartSageSw);
        let mut dev_s = Devices::new(&ctx_s.config);
        let mut ps = HostPolicy::new(Arc::clone(&ctx_s), 1, SystemKind::SmartSageSw);
        let rs = drive(
            &mut ps,
            &mut dev_s,
            0,
            SimTime::ZERO,
            test_trace(&ctx_s, 64, 6),
        );
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
