//! In-storage-processing cost policy: `SmartSAGE (HW/SW)` and the
//! oracle CSD.
//!
//! The full SmartSAGE design (paper §IV, Fig 11): the host driver issues
//! one vendor NVMe command per coalescing group, DMAs the `NSconfig`
//! descriptor in, and the SSD firmware's ISP control unit + subgraph
//! generator do everything else — FTL translation, bulk flash page
//! fetches into the DRAM page buffer, fine-grained neighbor gathers on
//! the embedded cores, and a single dense subgraph DMA back to the host.
//!
//! Two properties distinguish this path from the host policies:
//!
//! * **Internal parallelism** — the subgraph generator keeps
//!   `isp_queue_depth` flash page requests in flight (Fig 11 step 3-4),
//!   converting the host paths' queue-depth-1 latency chains into
//!   channel-parallel bandwidth, and
//! * **Transfer reduction** — only sampled node IDs cross PCIe
//!   (Fig 10b), cutting SSD→host traffic by an order of magnitude.
//!
//! The same implementation serves `SmartSAGE (oracle)` by scheduling ISP
//! work on a dedicated core complex instead of the firmware-shared one
//! (§VI-C: "dedicated, ISP-purposed embedded cores like Newport").

use super::{fetch_pages, BatchCost, CostPolicy, StepOutcome};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::nsconfig::{NsConfig, TargetDescriptor};
use smartsage_sim::{SimDuration, SimTime, Xoshiro256};
use smartsage_store::SampleTrace;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Host issues the next ISP command; firmware picks it up and DMAs
    /// the NSconfig in.
    Issue,
    /// The subgraph generator is streaming through the command's
    /// edge-list accesses.
    Process,
    /// Completed subgraph is DMA'd back to the host.
    Return,
}

#[derive(Debug)]
struct Cursor {
    trace: SampleTrace,
    /// Per-hop access counts per target (tree block sizes).
    per_target: Vec<usize>,
    cmd: usize,
    num_cmds: usize,
    hop: usize,
    /// Index within the current command's slice of the current hop.
    access: usize,
    phase: Phase,
    started: SimTime,
    now: SimTime,
    overhead: SimDuration,
    host_to_ssd: u64,
    ssd_to_host: u64,
}

impl Cursor {
    /// Targets covered by command `c` at coalescing granularity `g`.
    fn cmd_targets(&self, g: usize) -> (usize, usize) {
        let total = self.trace.num_targets();
        let start = self.cmd * g;
        (start.min(total), ((self.cmd + 1) * g).min(total))
    }

    /// The current command's access-index range within hop `h`.
    fn cmd_hop_range(&self, g: usize, h: usize) -> (usize, usize) {
        let (t0, t1) = self.cmd_targets(g);
        let block = self.per_target[h];
        (t0 * block, t1 * block)
    }
}

/// The ISP cost policy (shared-core HW/SW or dedicated-core oracle).
#[derive(Debug)]
pub struct IspPolicy {
    ctx: Arc<RunContext>,
    oracle: bool,
    rng: Xoshiro256,
    cursors: Vec<Option<Cursor>>,
    finished: Vec<Option<BatchCost>>,
}

impl IspPolicy {
    /// Creates the policy; `oracle` selects the dedicated-core complex.
    pub fn new(ctx: Arc<RunContext>, workers: usize, oracle: bool) -> Self {
        let rng = Xoshiro256::seed_from_u64(0x15B0_0002 ^ ctx.layout.total_bytes());
        IspPolicy {
            ctx,
            oracle,
            rng,
            cursors: (0..workers).map(|_| None).collect(),
            finished: (0..workers).map(|_| None).collect(),
        }
    }

    /// Builds the real `NSconfig` blob for one command (functional
    /// fidelity: the bytes that cross PCIe are a decodable descriptor).
    /// Targets and degrees come straight from the trace — hop 0's
    /// frontier *is* the target list, for both samplers.
    fn build_nsconfig(&self, cursor: &Cursor, g: usize) -> NsConfig {
        let (t0, t1) = cursor.cmd_targets(g);
        let graph = self.ctx.graph();
        let block = self.ctx.config.devices.hostio.os_page_bytes;
        let hop0 = &cursor.trace.hops[0];
        let targets = (t0..t1)
            .map(|i| {
                let node = hop0.nodes[i];
                let range = self.ctx.layout.edge_list_range(graph, node);
                TargetDescriptor {
                    node,
                    lba: range.offset / block,
                    offset_in_block: (range.offset % block) as u16,
                    degree: hop0.degrees[i],
                }
            })
            .collect();
        NsConfig {
            seed: 0x5A6E_0000 ^ cursor.cmd as u64,
            fanouts: cursor.trace.hops.iter().map(|h| h.fanout as u16).collect(),
            targets,
        }
    }
}

impl CostPolicy for IspPolicy {
    fn kind(&self) -> SystemKind {
        if self.oracle {
            SystemKind::SmartSageOracle
        } else {
            SystemKind::SmartSageHwSw
        }
    }

    fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace) {
        assert!(self.cursors[worker].is_none(), "worker {worker} is busy");
        let m = trace.num_targets().max(1);
        let per_target: Vec<usize> = trace.hops.iter().map(|h| h.nodes.len() / m).collect();
        let g = self.ctx.config.coalescing_granularity as usize;
        let num_cmds = trace.num_targets().div_ceil(g).max(1);
        self.cursors[worker] = Some(Cursor {
            trace,
            per_target,
            cmd: 0,
            num_cmds,
            hop: 0,
            access: 0,
            phase: Phase::Issue,
            started: at,
            now: at,
            overhead: SimDuration::ZERO,
            host_to_ssd: 0,
            ssd_to_host: 0,
        });
    }

    fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome {
        let ctx = &*self.ctx;
        let g = ctx.config.coalescing_granularity as usize;
        let params = &ctx.config.devices;
        let isp_hit_rate = ctx.locality.map(|l| l.ssd_buffer_hit_isp);

        let nscfg = {
            let cursor = self.cursors[worker].as_ref().expect("no active batch");
            (cursor.phase == Phase::Issue).then(|| self.build_nsconfig(cursor, g))
        };
        let cursor = self.cursors[worker].as_mut().expect("no active batch");
        let mut t = now.max(cursor.now);

        match cursor.phase {
            Phase::Issue => {
                let blob = nscfg.expect("built above").encode();
                // Host: one ioctl; firmware: polling pickup + decode.
                t += params.hostio.ioctl_cost;
                cursor.overhead += params.hostio.ioctl_cost;
                t += params.ssd.nvme.isp_pickup_delay();
                let cores = if self.oracle {
                    &mut devices.oracle_cores
                } else {
                    &mut devices.ssd.cores
                };
                let (_, decoded) = cores.exec_raw(t, params.ssd.nvme.isp_command_cost);
                let dma_done = devices.ssd.dma_from_host(decoded, blob.len() as u64);
                cursor.host_to_ssd += blob.len() as u64;
                cursor.now = dma_done;
                cursor.hop = 0;
                let (start, _) = cursor.cmd_hop_range(g, 0);
                cursor.access = start;
                cursor.phase = Phase::Process;
                StepOutcome::Running { next: dma_done }
            }
            Phase::Process => {
                let (_, hop_end) = cursor.cmd_hop_range(g, cursor.hop);
                let chunk_end = (cursor.access + params.isp_queue_depth).min(hop_end);
                let hop = &cursor.trace.hops[cursor.hop];
                // Core work for the chunk: per-access bookkeeping + FTL
                // translation + per-sample gather cost. Its pages are
                // all queued at the chunk start: the generator keeps
                // the whole chunk in flight simultaneously.
                let mut core_work = SimDuration::ZERO;
                let mut flash_done = t;
                for i in cursor.access..chunk_end {
                    core_work += params.isp_access_cost
                        + devices.ssd.ftl.translate_cost()
                        + params.isp_sample_cost.mul_u64(hop.picks(i) as u64);
                    let range = ctx.layout.edge_list_range(ctx.graph(), hop.nodes[i]);
                    let fetched =
                        fetch_pages(&mut devices.ssd, &mut self.rng, isp_hit_rate, t, range);
                    flash_done = flash_done.max(fetched);
                }
                let cores = if self.oracle {
                    &mut devices.oracle_cores
                } else {
                    &mut devices.ssd.cores
                };
                // The HW/SW design time-shares the firmware cores: every
                // cycle of ISP work displaces FTL/host-interface duties,
                // inflating effective service time (paper §VI-B). The
                // oracle's dedicated cores have no such share.
                let share = cores.params().firmware_share;
                let core_work = core_work.mul_f64(1.0 / (1.0 - share));
                let (_, core_done) = cores.exec_raw(t, core_work);
                t = core_done.max(flash_done);
                cursor.now = t;
                cursor.access = chunk_end;
                if cursor.access >= hop_end {
                    cursor.hop += 1;
                    if cursor.hop >= cursor.trace.hops.len() {
                        cursor.phase = Phase::Return;
                    } else {
                        let (start, _) = cursor.cmd_hop_range(g, cursor.hop);
                        cursor.access = start;
                    }
                }
                StepOutcome::Running { next: t }
            }
            Phase::Return => {
                // Completion pickup by the firmware polling loop, then a
                // single dense DMA of the command's sampled IDs.
                t += params.ssd.nvme.isp_pickup_delay();
                let (t0, t1) = cursor.cmd_targets(g);
                let mut sampled: u64 = 0;
                for (h, hop) in cursor.trace.hops.iter().enumerate() {
                    let block = cursor.per_target[h];
                    sampled += ((t1 - t0) * block * hop.fanout) as u64;
                }
                let bytes = sampled * 8;
                let done = devices.ssd.dma_to_host(t, bytes);
                cursor.ssd_to_host += bytes;
                cursor.now = done;
                cursor.cmd += 1;
                if cursor.cmd < cursor.num_cmds {
                    cursor.phase = Phase::Issue;
                    return StepOutcome::Running { next: done };
                }
                let cursor = self.cursors[worker].take().expect("cursor");
                self.finished[worker] = Some(BatchCost {
                    done: cursor.now,
                    sampling_time: cursor.now - cursor.started,
                    overhead_time: cursor.overhead,
                    ssd_to_host_bytes: cursor.ssd_to_host,
                    host_to_ssd_bytes: cursor.host_to_ssd,
                    fpga: None,
                });
                StepOutcome::Finished
            }
        }
    }

    fn take_result(&mut self, worker: usize) -> BatchCost {
        self.finished[worker].take().expect("no finished batch")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemConfig;
    use crate::context::RunContext;
    use crate::cost::testutil::{drive, test_context, test_trace};
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale};

    #[test]
    fn isp_sends_back_only_the_subgraph() {
        let ctx = test_context(SystemKind::SmartSageHwSw);
        let mut devices = Devices::new(&ctx.config);
        let mut p = IspPolicy::new(Arc::clone(&ctx), 1, false);
        let trace = test_trace(&ctx, 32, 4);
        let sampled = trace.num_sampled();
        let r = drive(&mut p, &mut devices, 0, SimTime::ZERO, trace);
        assert_eq!(r.ssd_to_host_bytes, sampled * 8);
        assert!(r.host_to_ssd_bytes > 0, "NSconfig must be DMA'd");
    }

    #[test]
    fn oracle_is_at_least_as_fast_as_shared_cores() {
        let ctx_h = test_context(SystemKind::SmartSageHwSw);
        let mut dev_h = Devices::new(&ctx_h.config);
        let mut ph = IspPolicy::new(Arc::clone(&ctx_h), 1, false);
        let rh = drive(
            &mut ph,
            &mut dev_h,
            0,
            SimTime::ZERO,
            test_trace(&ctx_h, 64, 8),
        );
        let ctx_o = test_context(SystemKind::SmartSageOracle);
        let mut dev_o = Devices::new(&ctx_o.config);
        let mut po = IspPolicy::new(Arc::clone(&ctx_o), 1, true);
        let ro = drive(
            &mut po,
            &mut dev_o,
            0,
            SimTime::ZERO,
            test_trace(&ctx_o, 64, 8),
        );
        assert!(
            ro.sampling_time <= rh.sampling_time,
            "oracle {} should be <= shared {}",
            ro.sampling_time,
            rh.sampling_time
        );
    }

    #[test]
    fn finer_coalescing_is_slower() {
        let data =
            DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 20_000, 11);
        let run = |granularity: u32| {
            let cfg = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(granularity);
            let ctx = Arc::new(RunContext::new(data.clone(), cfg));
            let mut devices = Devices::new(&ctx.config);
            let mut p = IspPolicy::new(Arc::clone(&ctx), 1, false);
            let trace = test_trace(&ctx, 64, 2);
            drive(&mut p, &mut devices, 0, SimTime::ZERO, trace).sampling_time
        };
        let coarse = run(64);
        let fine = run(1);
        assert!(
            fine > coarse.mul_f64(1.5),
            "granularity 1 ({fine}) should be much slower than 64 ({coarse})"
        );
    }

    #[test]
    fn nsconfig_blob_is_decodable() {
        let ctx = test_context(SystemKind::SmartSageHwSw);
        let p = IspPolicy::new(Arc::clone(&ctx), 1, false);
        let trace = test_trace(&ctx, 8, 1);
        let m = trace.num_targets().max(1);
        let cursor = Cursor {
            per_target: trace.hops.iter().map(|h| h.nodes.len() / m).collect(),
            trace,
            cmd: 0,
            num_cmds: 1,
            hop: 0,
            access: 0,
            phase: Phase::Issue,
            started: SimTime::ZERO,
            now: SimTime::ZERO,
            overhead: SimDuration::ZERO,
            host_to_ssd: 0,
            ssd_to_host: 0,
        };
        let cfg = p.build_nsconfig(&cursor, 1024);
        let decoded = NsConfig::decode(&cfg.encode()).expect("round trip");
        assert_eq!(decoded.targets.len(), 8);
        assert_eq!(decoded.fanouts, vec![4, 3]);
        // Degrees in the descriptor match the graph.
        for t in &decoded.targets {
            assert_eq!(t.degree, ctx.graph().degree(t.node));
        }
    }
}
