//! In-storage-processing pricing: `SmartSAGE (HW/SW)` and the oracle
//! CSD.
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
//! * **Internal parallelism** — the subgraph generator keeps a chunk of
//!   `ssd.isp.queue_depth` edge-list accesses in flight (Fig 11 step
//!   3-4), converting the host paths' queue-depth-1 latency chains into
//!   channel-parallel bandwidth, and
//! * **Transfer reduction** — only sampled node IDs cross PCIe
//!   (Fig 10b), cutting SSD→host traffic by an order of magnitude.
//!
//! The firmware itself is the device's ([`Ssd::isp_decode`],
//! [`Ssd::isp_chunk`]) — the same calls the ISP store tiers price their
//! device time with; this policy supplies the command split, the
//! `NSconfig` DMA, the polling-loop pickups and the result DMA. It
//! serves `SmartSAGE (oracle)` unchanged: that configuration gives the
//! device a dedicated ISP core complex (`ssd.isp.cores`).
//!
//! [`Ssd::isp_decode`]: smartsage_storage::Ssd::isp_decode
//! [`Ssd::isp_chunk`]: smartsage_storage::Ssd::isp_chunk

use super::{pages, Cursor, Priced};
use crate::context::{Devices, RunContext};
use crate::nsconfig::{NsConfig, TargetDescriptor};
use smartsage_sim::{SimTime, Xoshiro256};
use smartsage_store::SampleTrace;

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Phase {
    /// Host issues the next ISP command; firmware picks it up and DMAs
    /// the NSconfig in.
    #[default]
    Issue,
    /// The subgraph generator is streaming through the command's
    /// edge-list accesses.
    Process,
    /// Completed subgraph is DMA'd back to the host.
    Return,
}

/// Which ISP command a batch in flight is on, and in which phase.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct Command {
    index: usize,
    phase: Phase,
}

/// ISP commands a batch of `n` targets needs at coalescing granularity
/// `g` (Fig 15's x-axis): one per `g` targets, and at least one.
fn commands(n: usize, g: usize) -> usize {
    n.div_ceil(g).max(1)
}

/// Targets `[t0, t1)` of a batch of `n` covered by command `cmd` at
/// coalescing granularity `g`.
fn cmd_targets(n: usize, cmd: usize, g: usize) -> (usize, usize) {
    ((cmd * g).min(n), ((cmd + 1) * g).min(n))
}

/// Accesses per target at hop `h` (the sampling tree's block size).
fn per_target(trace: &SampleTrace, h: usize) -> usize {
    trace.hops[h].nodes.len() / trace.num_targets().max(1)
}

/// Command `cmd`'s access-index range within hop `h`.
fn cmd_hop_range(trace: &SampleTrace, cmd: usize, g: usize, h: usize) -> (usize, usize) {
    let (t0, t1) = cmd_targets(trace.num_targets(), cmd, g);
    let block = per_target(trace, h);
    (t0 * block, t1 * block)
}

/// Builds the real `NSconfig` blob for command `cmd` (functional
/// fidelity: the bytes that cross PCIe are a decodable descriptor).
/// Targets and degrees come straight from the trace — hop 0's frontier
/// *is* the target list, for both samplers.
fn nsconfig(ctx: &RunContext, trace: &SampleTrace, cmd: usize, g: usize) -> NsConfig {
    let (t0, t1) = cmd_targets(trace.num_targets(), cmd, g);
    let block = ctx.config.devices.hostio.os_page_bytes;
    let hop0 = &trace.hops[0];
    let targets = (t0..t1)
        .map(|i| {
            let node = hop0.nodes[i];
            let range = ctx.layout.edge_list_range(ctx.graph(), node);
            TargetDescriptor {
                node,
                lba: range.offset / block,
                offset_in_block: (range.offset % block) as u16,
                degree: hop0.degrees[i],
            }
        })
        .collect();
    NsConfig {
        seed: 0x5A6E_0000 ^ cmd as u64,
        fanouts: trace.hops.iter().map(|h| h.fanout as u16).collect(),
        targets,
    }
}

/// ISP pricing (HW/SW or oracle: the device's ISP cores decide).
#[derive(Debug)]
pub(super) struct IspPricing {
    rng: Xoshiro256,
}

impl IspPricing {
    /// Pricing over `ctx`'s graph layout.
    pub(super) fn new(ctx: &RunContext) -> Self {
        IspPricing {
            rng: Xoshiro256::seed_from_u64(0x15B0_0002 ^ ctx.layout.total_bytes()),
        }
    }

    /// Prices one phase of command `c.cmd`: its issue, one chunk of
    /// its accesses, or its return.
    pub(super) fn step(
        &mut self,
        ctx: &RunContext,
        c: &mut Cursor,
        devices: &mut Devices,
        mut t: SimTime,
    ) -> Priced {
        let g = ctx.config.coalescing_granularity as usize;
        let params = &ctx.config.devices;
        let cmd = c.cmd.index;
        match c.cmd.phase {
            Phase::Issue => {
                let blob = nsconfig(ctx, &c.trace, cmd, g).encode();
                // Host: one ioctl; firmware: polling pickup + decode.
                t += params.hostio.ioctl_cost;
                c.overhead += params.hostio.ioctl_cost;
                t += params.ssd.nvme.isp_pickup_delay();
                let decoded = devices.ssd.isp_decode(t);
                let dma_done = devices.ssd.dma_from_host(decoded, blob.len() as u64);
                c.host_to_ssd += blob.len() as u64;
                c.hop = 0;
                c.access = cmd_hop_range(&c.trace, cmd, g, 0).0;
                c.cmd.phase = Phase::Process;
                Priced::More(dma_done)
            }
            Phase::Process => {
                // One firmware chunk of this hop's accesses: each answers
                // its picks out of its edge list's pages.
                let hop_end = cmd_hop_range(&c.trace, cmd, g, c.hop).1;
                let hop = &c.trace.hops[c.hop];
                let isp_hit_rate = ctx.locality.ssd_buffer_hit;
                let page_bytes = devices.ssd.page_bytes();
                let mut accesses = (c.access..hop_end).map(|i| {
                    let range = ctx.layout.edge_list_range(ctx.graph(), hop.nodes[i]);
                    (hop.picks(i) as u64, pages(page_bytes, range))
                });
                let rng = &mut self.rng;
                let done = devices
                    .ssd
                    .isp_chunk(t, &mut accesses, |_| Some(rng.chance(isp_hit_rate)));
                c.access = hop_end - accesses.len();
                if c.access >= hop_end {
                    c.hop += 1;
                    if c.hop >= c.trace.hops.len() {
                        c.cmd.phase = Phase::Return;
                    } else {
                        c.access = cmd_hop_range(&c.trace, cmd, g, c.hop).0;
                    }
                }
                Priced::More(done)
            }
            Phase::Return => {
                // Completion pickup by the firmware polling loop, then a
                // single dense DMA of the command's sampled IDs.
                t += params.ssd.nvme.isp_pickup_delay();
                let (t0, t1) = cmd_targets(c.trace.num_targets(), cmd, g);
                let sampled: u64 = (0..c.trace.hops.len())
                    .map(|h| ((t1 - t0) * per_target(&c.trace, h) * c.trace.hops[h].fanout) as u64)
                    .sum();
                let bytes = sampled * 8;
                let done = devices.ssd.dma_to_host(t, bytes);
                c.ssd_to_host += bytes;
                c.cmd = Command {
                    index: cmd + 1,
                    phase: Phase::Issue,
                };
                if c.cmd.index < commands(c.trace.num_targets(), g) {
                    Priced::More(done)
                } else {
                    Priced::Last(done)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{SystemConfig, SystemKind};
    use crate::cost::testutil::{price, test_context, test_trace};
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale};
    use std::sync::Arc;

    #[test]
    fn isp_sends_back_only_the_subgraph() {
        let ctx = test_context(SystemKind::SmartSageHwSw);
        let trace = test_trace(&ctx, 32, 4);
        let sampled = trace.num_sampled();
        let r = price(&ctx, trace);
        assert_eq!(r.ssd_to_host_bytes, sampled * 8);
        assert!(r.host_to_ssd_bytes > 0, "NSconfig must be DMA'd");
    }

    #[test]
    fn oracle_is_at_least_as_fast_as_shared_cores() {
        let run = |kind| {
            let ctx = test_context(kind);
            price(&ctx, test_trace(&ctx, 64, 8))
        };
        let rh = run(SystemKind::SmartSageHwSw);
        let ro = run(SystemKind::SmartSageOracle);
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
            price(&ctx, test_trace(&ctx, 64, 2)).sampling_time
        };
        let coarse = run(64);
        let fine = run(1);
        assert!(
            fine > coarse.mul_f64(1.5),
            "granularity 1 ({fine}) should be much slower than 64 ({coarse})"
        );
    }

    #[test]
    fn coalescing_conserves_targets() {
        // The split that prices Fig 15, over every batch below 2048
        // targets at every granularity: max(1, ceil(n / g)) commands,
        // whose target ranges tile 0..n in order, at most g each.
        for n in 0..2048 {
            for g in 1..2048 {
                let cmds = commands(n, g);
                assert_eq!(
                    cmds,
                    if n == 0 { 1 } else { (n - 1) / g + 1 },
                    "n {n} g {g}"
                );
                let mut next = 0;
                for cmd in 0..cmds {
                    let (t0, t1) = cmd_targets(n, cmd, g);
                    assert_eq!(t0, next, "n {n} g {g} cmd {cmd} leaves a gap");
                    assert!(t1 - t0 <= g, "n {n} g {g} cmd {cmd} holds {}", t1 - t0);
                    next = t1;
                }
                assert_eq!(next, n, "n {n} g {g} drops targets");
            }
        }
    }

    #[test]
    fn nsconfig_blob_is_decodable() {
        let ctx = test_context(SystemKind::SmartSageHwSw);
        let trace = test_trace(&ctx, 8, 1);
        let cfg = nsconfig(&ctx, &trace, 0, 1024);
        let decoded = NsConfig::decode(&cfg.encode()).expect("round trip");
        assert_eq!(decoded.targets.len(), 8);
        assert_eq!(decoded.fanouts, vec![4, 3]);
        // Degrees in the descriptor match the graph.
        for t in &decoded.targets {
            assert_eq!(t.degree, ctx.graph().degree(t.node));
        }
    }
}
