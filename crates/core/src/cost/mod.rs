//! Cost policies: per-system device models replayed over the **byte
//! trace** of the one real storage path.
//!
//! Sampling and gathering execute exactly once, through the store
//! tiers (`smartsage_store`); what distinguishes the paper's seven
//! design points is *what that access stream costs* on each system's
//! hardware. A [`SampleTrace`] captures the stream — every edge-list
//! access and its degree, hop by hop, as the sampler recorded it — and
//! the run's [`CostPolicy`] maps it through that system's device models
//! (DRAM/PMEM random access, mmap page faults, direct I/O, ISP
//! firmware cores + flash channels, FPGA P2P links) to modeled time
//! and modeled link traffic ([`BatchCost`]). The Figs 14–21 numbers
//! are these costs, so every figure is auditable against the actual
//! I/O the run performed.
//!
//! [`CostPolicy`] is one driver over four pricing states (`mem`,
//! `host`, `isp`, `fpga`). The driver owns every batch in flight — one
//! slot per worker, idle, running a cursor, or done with its cost —
//! and a pricing state owns only its devices' private state and RNG,
//! plus one step function over the cursor. [`CostPolicy::begin`]
//! installs a batch's trace for a worker, and repeated
//! [`CostPolicy::step`] calls advance it through virtual time, so that
//! concurrent workers interleave their accesses on the shared devices
//! in global time order (the property the queueing models rely on).
//! Policies never touch the stores: a policy's output is a pure
//! function of the traces it is fed and the step times it is driven
//! at — the purity the figure-equivalence and proptest suites pin down.
//!
//! The in-device policies (`isp`, `fpga`) queue flash pages one way:
//! each chunk's pages go to the device's one batch fetch,
//! [`Ssd::fetch_pages`](smartsage_storage::Ssd::fetch_pages), issued at
//! the chunk start and done on the slowest miss. The `isp` policy runs
//! the device's own ISP firmware
//! ([`Ssd::isp_chunk`](smartsage_storage::Ssd::isp_chunk)), the same
//! calls the store-side ISP tiers price their `device_ns` with.

// Modeled time is a pure function of the trace: no host clock. Pricing
// cannot fail on any trace; the only panics are the driver's two
// misuse checks.
#![deny(
    clippy::disallowed_methods,
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic
)]

mod fpga;
mod host;
mod isp;
mod mem;
mod trace;

pub use trace::trace_of_plan;

use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use crate::metrics::FpgaPhases;
use fpga::FpgaPricing;
use host::HostPricing;
use isp::IspPricing;
use mem::MemPricing;
use smartsage_hostio::ByteRange;
use smartsage_sim::{SimDuration, SimTime};
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

/// A batch in flight: its trace, how far pricing has got, and the
/// running totals its [`BatchCost`] is assembled from.
#[derive(Debug)]
struct Cursor {
    trace: SampleTrace,
    hop: usize,
    /// Access index within hop `hop`.
    access: usize,
    started: SimTime,
    /// Virtual time the last step's work ended.
    now: SimTime,
    overhead: SimDuration,
    host_to_ssd: u64,
    ssd_to_host: u64,
    /// The ISP policy's command progress.
    cmd: isp::Command,
    /// The FPGA policy's phase breakdown, `Some` once its kernel is
    /// issued.
    fpga: Option<FpgaPhases>,
}

impl Cursor {
    /// The outcome of a step ending at `t` that may have finished the
    /// last hop.
    fn after_hop(&self, t: SimTime) -> Priced {
        if self.hop < self.trace.hops.len() {
            Priced::More(t)
        } else {
            Priced::Last(t)
        }
    }
}

/// What one pricing step did, by the virtual time its work ended.
enum Priced {
    /// More steps follow.
    More(SimTime),
    /// The batch is finished.
    Last(SimTime),
}

/// One worker's batch, from `begin` to `take_result`.
#[derive(Debug)]
enum Slot {
    Idle,
    Running(Cursor),
    Done(BatchCost),
}

/// The device state one design point prices with.
#[derive(Debug)]
enum Pricing {
    Mem(MemPricing),
    Host(HostPricing),
    Isp(IspPricing),
    Fpga(FpgaPricing),
}

/// The cost model of one design point over the sample byte trace.
///
/// Batches in flight are addressed by worker index. The policy owns the
/// system's RNG state (cache-hit draws), so draws interleave across
/// workers in global virtual-time order exactly as concurrent accesses
/// would.
#[derive(Debug)]
pub struct CostPolicy {
    ctx: Arc<RunContext>,
    pricing: Pricing,
    slots: Vec<Slot>,
}

impl CostPolicy {
    /// Installs a new batch's trace for `worker`, starting at `at`.
    ///
    /// # Panics
    ///
    /// Panics if the worker's previous batch was not taken.
    pub fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace) {
        #[expect(clippy::panic, reason = "a busy worker is a driver bug, not input")]
        let Slot::Idle = self.slots[worker] else {
            panic!("worker {worker} is busy")
        };
        self.slots[worker] = Slot::Running(Cursor {
            trace,
            hop: 0,
            access: 0,
            started: at,
            now: at,
            overhead: SimDuration::ZERO,
            host_to_ssd: 0,
            ssd_to_host: 0,
            cmd: isp::Command::default(),
            fpga: None,
        });
    }

    /// Advances `worker`'s batch by one step. `now` is the current
    /// virtual time (at or after the previously returned `next`). A
    /// trace with no hops finishes on its first step, at its start
    /// time, having moved nothing.
    ///
    /// # Panics
    ///
    /// Panics if the worker has no running batch.
    pub fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome {
        let Slot::Running(c) = &mut self.slots[worker] else {
            misuse(worker, "running")
        };
        let t = now.max(c.now);
        let ctx = &*self.ctx;
        let priced = if c.trace.hops.is_empty() {
            Priced::Last(c.now)
        } else {
            match &mut self.pricing {
                Pricing::Mem(p) => p.step(ctx, c, devices, t),
                Pricing::Host(p) => p.step(ctx, c, devices, t),
                Pricing::Isp(p) => p.step(ctx, c, devices, t),
                Pricing::Fpga(p) => p.step(ctx, c, devices, t),
            }
        };
        match priced {
            Priced::More(next) => {
                c.now = next;
                StepOutcome::Running { next }
            }
            Priced::Last(done) => {
                let cost = BatchCost {
                    done,
                    sampling_time: done - c.started,
                    overhead_time: c.overhead,
                    ssd_to_host_bytes: c.ssd_to_host,
                    host_to_ssd_bytes: c.host_to_ssd,
                    fpga: c.fpga,
                };
                self.slots[worker] = Slot::Done(cost);
                StepOutcome::Finished
            }
        }
    }

    /// Removes and returns the finished batch cost of `worker`.
    ///
    /// # Panics
    ///
    /// Panics if the worker's batch is not finished.
    pub fn take_result(&mut self, worker: usize) -> BatchCost {
        let Slot::Done(cost) = self.slots[worker] else {
            misuse(worker, "finished")
        };
        self.slots[worker] = Slot::Idle;
        cost
    }
}

/// The driver's report of a call without the batch it needs.
#[expect(clippy::panic, reason = "a call out of order is a driver bug")]
fn misuse(worker: usize, wanted: &str) -> ! {
    panic!("worker {worker} has no {wanted} batch")
}

/// The flash pages of `page_bytes` each that `range` touches, ascending:
/// what the in-device policies (`isp`, `fpga`) hand
/// [`Ssd::fetch_pages`](smartsage_storage::Ssd::fetch_pages) for one
/// edge-list access.
fn pages(page_bytes: u64, range: ByteRange) -> impl Iterator<Item = u64> {
    range
        .blocks(page_bytes)
        .into_iter()
        .flat_map(|(first, last)| first..=last)
}

/// The cost policy for `ctx.config.kind`, with `workers` idle slots.
pub fn make_policy(ctx: &Arc<RunContext>, workers: usize) -> CostPolicy {
    let kind = ctx.config.kind;
    let pricing = match kind {
        SystemKind::Dram | SystemKind::Pmem => Pricing::Mem(MemPricing::new(kind)),
        SystemKind::SsdMmap | SystemKind::SmartSageSw => Pricing::Host(HostPricing::new(ctx, kind)),
        SystemKind::SmartSageHwSw | SystemKind::SmartSageOracle => {
            Pricing::Isp(IspPricing::new(ctx))
        }
        SystemKind::FpgaCsd => Pricing::Fpga(FpgaPricing::new(ctx)),
    };
    CostPolicy {
        ctx: Arc::clone(ctx),
        pricing,
        slots: (0..workers).map(|_| Slot::Idle).collect(),
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use super::*;
    use crate::config::SystemConfig;
    use crate::context::RunContext;
    use smartsage_gnn::sampler::sample_on;
    use smartsage_gnn::Fanouts;
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale, NodeId};
    use smartsage_sim::Xoshiro256;

    /// A small large-scale-profile context for cost-policy tests.
    pub fn test_context(kind: SystemKind) -> Arc<RunContext> {
        let data =
            DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 20_000, 11);
        Arc::new(RunContext::new(data, SystemConfig::new(kind)))
    }

    /// The byte trace of a batch of `targets` targets with small
    /// fan-outs, the form policies consume.
    pub fn test_trace(ctx: &RunContext, targets: usize, seed: u64) -> SampleTrace {
        let t: Vec<NodeId> = (0..targets as u32).map(NodeId::new).collect();
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let mut topo = smartsage_store::CsrView::new(ctx.graph());
        sample_on(&mut topo, &t, &Fanouts::new(vec![4, 3]), &mut rng)
            .unwrap()
            .into_trace()
    }

    /// Drives one worker's batch to completion; returns its cost.
    pub fn drive(
        policy: &mut CostPolicy,
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

    /// Prices `trace` on a fresh policy and fresh devices for `ctx`.
    pub fn price(ctx: &Arc<RunContext>, trace: SampleTrace) -> BatchCost {
        let mut devices = Devices::new(&ctx.config);
        drive(
            &mut make_policy(ctx, 1),
            &mut devices,
            0,
            SimTime::ZERO,
            trace,
        )
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
            let run = || price(&ctx, test_trace(&ctx, 8, 42));
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
            let cost = price(&ctx, test_trace(&ctx, 64, 7));
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
            price(&ctx, test_trace(&ctx, 64, 3))
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

    #[test]
    fn step_counts_per_system_are_pinned() {
        // Step granularity is part of the model: concurrent workers
        // interleave on the shared devices once per step. One hop per
        // step (mem), one access per step (host), issue / chunk /
        // return per command (isp), issue / chunk / return per batch
        // (fpga) — counted for one fixed 16-target trace.
        for (kind, want) in [
            (SystemKind::Dram, 2),
            (SystemKind::Pmem, 2),
            (SystemKind::SsdMmap, 80),
            (SystemKind::SmartSageSw, 80),
            (SystemKind::SmartSageHwSw, 22),
            (SystemKind::SmartSageOracle, 22),
            (SystemKind::FpgaCsd, 42),
        ] {
            let ctx = test_context(kind);
            let mut devices = Devices::new(&ctx.config);
            let mut policy = make_policy(&ctx, 1);
            policy.begin(0, SimTime::ZERO, test_trace(&ctx, 16, 3));
            let mut now = SimTime::ZERO;
            let mut steps = 1;
            while let StepOutcome::Running { next } = policy.step(0, &mut devices, now) {
                now = next;
                steps += 1;
            }
            assert_eq!(steps, want, "{kind} step count");
        }
    }

    #[test]
    fn an_empty_ssd_page_buffer_prices_and_counts_like_the_default_one() {
        // Every lookup imposes its full-scale verdict, so the buffer's
        // capacity decides nothing a policy prices or counts.
        use smartsage_storage::{ssd::SsdParams, Ssd};
        for kind in SystemKind::ALL {
            let ctx = test_context(kind);
            let mut empty = Devices::new(&ctx.config);
            empty.ssd = Ssd::new(SsdParams {
                buffer_pages: 0,
                ..ctx.config.devices.ssd.clone()
            });
            let run = |devices: &mut Devices| {
                let trace = test_trace(&ctx, 16, 3);
                let cost = drive(&mut make_policy(&ctx, 1), devices, 0, SimTime::ZERO, trace);
                (cost, devices.ssd.buffer.hits(), devices.ssd.buffer.misses())
            };
            assert_eq!(
                run(&mut Devices::new(&ctx.config)),
                run(&mut empty),
                "{kind}"
            );
        }
    }

    #[test]
    fn no_cost_policy_leaves_page_buffer_residency_behind() {
        // The policies' device carries the full-size buffer; each of
        // their lookups is counted and holds no page.
        for kind in SystemKind::ALL {
            let ctx = test_context(kind);
            let mut devices = Devices::new(&ctx.config);
            assert_eq!(devices.ssd.buffer.keys().capacity(), 131_072);
            let trace = test_trace(&ctx, 16, 3);
            drive(
                &mut make_policy(&ctx, 1),
                &mut devices,
                0,
                SimTime::ZERO,
                trace,
            );
            let buffer = &devices.ssd.buffer;
            assert!(buffer.keys().is_empty(), "{kind}");
            let ssd_backed = !matches!(kind, SystemKind::Dram | SystemKind::Pmem);
            assert_eq!(buffer.hits() + buffer.misses() > 0, ssd_backed, "{kind}");
        }
    }

    #[test]
    fn a_trace_with_no_hops_finishes_at_its_start_having_moved_nothing() {
        let at = SimTime::ZERO + SimDuration::from_micros(7);
        for kind in SystemKind::ALL {
            let ctx = test_context(kind);
            let mut devices = Devices::new(&ctx.config);
            let mut policy = make_policy(&ctx, 1);
            policy.begin(0, at, SampleTrace::default());
            assert_eq!(
                policy.step(0, &mut devices, at),
                StepOutcome::Finished,
                "{kind}"
            );
            let cost = policy.take_result(0);
            assert_eq!(
                cost,
                BatchCost {
                    done: at,
                    sampling_time: SimDuration::ZERO,
                    overhead_time: SimDuration::ZERO,
                    ssd_to_host_bytes: 0,
                    host_to_ssd_bytes: 0,
                    fpga: None,
                },
                "{kind}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_begin_panics() {
        let ctx = test_context(SystemKind::Dram);
        let mut p = make_policy(&ctx, 1);
        let t = test_trace(&ctx, 2, 3);
        p.begin(0, SimTime::ZERO, t.clone());
        p.begin(0, SimTime::ZERO, t);
    }

    #[test]
    #[should_panic(expected = "no finished batch")]
    fn take_result_before_finished_panics() {
        let ctx = test_context(SystemKind::SsdMmap);
        let mut devices = Devices::new(&ctx.config);
        let mut p = make_policy(&ctx, 1);
        p.begin(0, SimTime::ZERO, test_trace(&ctx, 2, 3));
        assert!(matches!(
            p.step(0, &mut devices, SimTime::ZERO),
            StepOutcome::Running { .. }
        ));
        p.take_result(0);
    }

    #[test]
    #[should_panic(expected = "no running batch")]
    fn step_without_begin_panics() {
        let ctx = test_context(SystemKind::FpgaCsd);
        let mut devices = Devices::new(&ctx.config);
        make_policy(&ctx, 2).step(1, &mut devices, SimTime::ZERO);
    }
}
