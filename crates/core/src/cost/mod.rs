//! Cost policies: per-system device models replayed over the **byte
//! trace** of the one real storage path.
//!
//! Sampling and gathering execute exactly once, through the store
//! tiers (`smartsage_store`); what distinguishes the paper's seven
//! design points is *what that access stream costs* on each system's
//! hardware. A [`SampleTrace`] captures the stream — every edge-list
//! access and its degree, hop by hop, as the sampler recorded it — and a
//! [`CostPolicy`] maps it through that system's device models
//! (DRAM/PMEM random access, mmap page faults, direct I/O, ISP
//! firmware cores + flash channels, FPGA P2P links) to modeled time
//! and modeled link traffic ([`BatchCost`]). The Figs 14–21 numbers
//! are these costs, so every figure is auditable against the actual
//! I/O the run performed.
//!
//! The pipeline drives policies through a cursor-style interface:
//! [`CostPolicy::begin`] installs a batch's trace for a worker, and
//! repeated [`CostPolicy::step`] calls advance it through virtual
//! time, so that concurrent workers interleave their accesses on the
//! shared devices in global time order (the property the queueing
//! models rely on). Policies never touch the stores: a policy's output
//! is a pure function of the traces it is fed and the step times it is
//! driven at — the purity the figure-equivalence and proptest suites
//! pin down.

mod fpga;
mod host;
mod isp;
mod mem;
mod trace;

pub use fpga::FpgaPolicy;
pub use host::HostPolicy;
pub use isp::IspPolicy;
pub use mem::MemPolicy;
pub use trace::trace_of_plan;

use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::metrics::FpgaPhases;
use smartsage_hostio::ByteRange;
use smartsage_sim::{SimDuration, SimTime, Xoshiro256};
use smartsage_storage::Ssd;
use smartsage_store::SampleTrace;
use std::sync::Arc;

/// Result of advancing a worker's batch by one step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// More work remains; call `step` again at (or after) `next`.
    Running {
        /// Earliest time the next step can make progress.
        next: SimTime,
    },
    /// The batch finished; retrieve its cost with
    /// [`CostPolicy::take_result`].
    Finished,
}

/// The modeled cost of one mini-batch on one system: what the
/// [`SampleTrace`] cost to execute on that design point's hardware.
///
/// This is pure accounting — the subgraph itself is resolved and its
/// features gathered by the pipeline, on the real storage path, once,
/// independent of which policy priced the batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCost {
    /// Virtual time the batch finished sampling.
    pub done: SimTime,
    /// End-to-end modeled sampling latency (begin → done).
    pub sampling_time: SimDuration,
    /// Portion of `sampling_time` spent on software overhead (page
    /// faults, syscalls, ioctls) rather than useful device work.
    pub overhead_time: SimDuration,
    /// Modeled bytes shipped SSD → host for this batch.
    pub ssd_to_host_bytes: u64,
    /// Modeled bytes shipped host → SSD (ISP command blobs).
    pub host_to_ssd_bytes: u64,
    /// FPGA pipeline phase breakdown (FPGA policy only).
    pub fpga: Option<FpgaPhases>,
}

/// A per-system cost model over the sample byte trace.
///
/// Implementations hold per-worker cursors internally; the pipeline
/// addresses them by worker index. A policy instance owns the system's
/// RNG state (cache-hit draws), so draws interleave across workers in
/// global virtual-time order exactly as concurrent accesses would.
pub trait CostPolicy {
    /// Which design point this policy prices.
    fn kind(&self) -> SystemKind;

    /// Installs a new batch's trace for `worker`, starting at `at`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the worker already has an active
    /// batch.
    fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace);

    /// Advances `worker`'s batch. `now` is the current virtual time (at
    /// or after the previously returned `next`).
    fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome;

    /// Removes and returns the finished batch cost of `worker`.
    ///
    /// # Panics
    ///
    /// Implementations may panic if the worker's batch is not finished.
    fn take_result(&mut self, worker: usize) -> BatchCost;
}

/// The flash leg the in-device policies ([`IspPolicy`], [`FpgaPolicy`])
/// share, and their queueing discipline over the device's one page
/// fetch ([`Ssd::fetch_page`]): every flash page `range` touches is
/// issued at `at` — the chunk start, so a whole access chunk is in
/// flight together and ends behind a barrier on its slowest read —
/// under a verdict drawn at `hit_rate` when the full-scale locality
/// model imposes one. Buffer hits are free and FTL cost is the
/// caller's (pooled into the chunk's core work). Returns when the
/// slowest *missing* page is in the buffer, `at` when none missed.
///
/// The store-side ISP tiers (`smartsage_store`'s `IspDevice::pass`)
/// run the same fetch under a page-granular sliding window with
/// per-page FTL time on the cores. Making either discipline the other
/// moves the figure fixture or the `isp_golden` constants, so both are
/// kept and pinned.
fn fetch_pages(
    ssd: &mut Ssd,
    rng: &mut Xoshiro256,
    hit_rate: Option<f64>,
    at: SimTime,
    range: ByteRange,
) -> SimTime {
    let Some((first, last)) = range.blocks(ssd.page_bytes()) else {
        return at;
    };
    (first..=last).fold(at, |done, lpn| {
        let forced = hit_rate.map(|p| rng.chance(p));
        match ssd.fetch_page(at, lpn, forced) {
            (true, _) => done,
            (false, ready) => done.max(ready),
        }
    })
}

/// Instantiates the cost policy for `ctx.config.kind`.
pub fn make_policy(ctx: &Arc<RunContext>, workers: usize) -> Box<dyn CostPolicy> {
    let kind = ctx.config.kind;
    let ctx = Arc::clone(ctx);
    match kind {
        SystemKind::Dram | SystemKind::Pmem => Box::new(MemPolicy::new(ctx, workers, kind)),
        SystemKind::SsdMmap | SystemKind::SmartSageSw => {
            Box::new(HostPolicy::new(ctx, workers, kind))
        }
        SystemKind::SmartSageHwSw => Box::new(IspPolicy::new(ctx, workers, false)),
        SystemKind::SmartSageOracle => Box::new(IspPolicy::new(ctx, workers, true)),
        SystemKind::FpgaCsd => Box::new(FpgaPolicy::new(ctx, workers)),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::SystemConfig;
    use crate::context::RunContext;
    use smartsage_gnn::sampler::plan_sample_on;
    use smartsage_gnn::{Fanouts, SamplePlan};
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale, NodeId};
    use smartsage_sim::Xoshiro256;

    /// A small large-scale-profile context for cost-policy tests.
    pub fn test_context(kind: SystemKind) -> Arc<RunContext> {
        let data =
            DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 20_000, 11);
        Arc::new(RunContext::new(data, SystemConfig::new(kind)))
    }

    /// A plan of `targets` targets with small fan-outs.
    pub fn test_plan(ctx: &RunContext, targets: usize, seed: u64) -> SamplePlan {
        let t: Vec<NodeId> = (0..targets as u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut topo = smartsage_store::CsrView::new(ctx.graph());
        plan_sample_on(&mut topo, &t, &Fanouts::new(vec![4, 3]), &mut rng).unwrap()
    }

    /// The byte trace of [`test_plan`], the form policies consume.
    pub fn test_trace(ctx: &RunContext, targets: usize, seed: u64) -> SampleTrace {
        test_plan(ctx, targets, seed).trace
    }

    /// Drives one worker's batch to completion; returns its cost.
    pub fn drive(
        policy: &mut dyn CostPolicy,
        devices: &mut Devices,
        worker: usize,
        at: SimTime,
        trace: SampleTrace,
    ) -> BatchCost {
        policy.begin(worker, at, trace);
        let mut now = at;
        let mut guard = 0u64;
        loop {
            match policy.step(worker, devices, now) {
                StepOutcome::Running { next } => {
                    now = next.max(now);
                }
                StepOutcome::Finished => return policy.take_result(worker),
            }
            guard += 1;
            assert!(guard < 10_000_000, "cost policy failed to terminate");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::context::Devices;

    #[test]
    fn every_policy_is_a_pure_function_of_the_trace() {
        // The unification contract: feeding the same trace to a fresh
        // policy instance yields the identical modeled cost — costs
        // depend on the byte trace, never on hidden state.
        for kind in SystemKind::ALL {
            let ctx = test_context(kind);
            let run = || {
                let mut devices = Devices::new(&ctx.config);
                let mut policy = make_policy(&ctx, 1);
                let trace = test_trace(&ctx, 8, 42);
                drive(&mut *policy, &mut devices, 0, SimTime::ZERO, trace)
            };
            assert_eq!(run(), run(), "{kind} cost is not trace-pure");
        }
    }

    #[test]
    fn relative_speed_ordering_holds() {
        // Single-worker sampling latency: DRAM < PMEM < ISP < direct-I/O
        // < mmap — the paper's headline ordering (Figs 14, 18).
        let mut times = std::collections::BTreeMap::new();
        for kind in [
            SystemKind::Dram,
            SystemKind::Pmem,
            SystemKind::SmartSageHwSw,
            SystemKind::SmartSageSw,
            SystemKind::SsdMmap,
        ] {
            let ctx = test_context(kind);
            let mut devices = Devices::new(&ctx.config);
            let mut policy = make_policy(&ctx, 1);
            let trace = test_trace(&ctx, 64, 7);
            let cost = drive(&mut *policy, &mut devices, 0, SimTime::ZERO, trace);
            times.insert(kind, cost.sampling_time);
        }
        assert!(times[&SystemKind::Dram] < times[&SystemKind::Pmem]);
        assert!(times[&SystemKind::Pmem] < times[&SystemKind::SmartSageHwSw]);
        assert!(times[&SystemKind::SmartSageHwSw] < times[&SystemKind::SmartSageSw]);
        assert!(times[&SystemKind::SmartSageSw] < times[&SystemKind::SsdMmap]);
    }

    #[test]
    fn isp_moves_far_fewer_bytes_than_mmap() {
        let run = |kind| {
            let ctx = test_context(kind);
            let mut devices = Devices::new(&ctx.config);
            let mut policy = make_policy(&ctx, 1);
            let trace = test_trace(&ctx, 64, 3);
            drive(&mut *policy, &mut devices, 0, SimTime::ZERO, trace)
        };
        let mmap = run(SystemKind::SsdMmap);
        let isp = run(SystemKind::SmartSageHwSw);
        assert!(
            mmap.ssd_to_host_bytes > 5 * isp.ssd_to_host_bytes,
            "mmap {} vs isp {}",
            mmap.ssd_to_host_bytes,
            isp.ssd_to_host_bytes
        );
    }
}
