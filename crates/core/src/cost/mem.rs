//! In-memory cost policies: DRAM (oracular) and Optane PMEM.
//!
//! The edge-list array resides in a byte-addressable memory device;
//! sampling is a chain of fine-grained random loads (paper §III-B) whose
//! time is dominated by effective load latency, plus a small per-access
//! host-CPU cost. One step prices one hop of the trace (accesses within
//! a hop are independent and execute back-to-back on the worker's core).

use super::{BatchCost, CostPolicy, StepOutcome};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use smartsage_sim::{SimDuration, SimTime};
use smartsage_store::SampleTrace;
use std::sync::Arc;

#[derive(Debug)]
struct Cursor {
    trace: SampleTrace,
    hop: usize,
    started: SimTime,
    now: SimTime,
}

/// DRAM / PMEM cost policy.
#[derive(Debug)]
pub struct MemPolicy {
    ctx: Arc<RunContext>,
    kind: SystemKind,
    cursors: Vec<Option<Cursor>>,
    finished: Vec<Option<BatchCost>>,
}

impl MemPolicy {
    /// The policy for `kind`: oracular `Dram`, or Optane `Pmem`.
    pub fn new(ctx: Arc<RunContext>, workers: usize, kind: SystemKind) -> Self {
        MemPolicy {
            ctx,
            kind,
            cursors: (0..workers).map(|_| None).collect(),
            finished: (0..workers).map(|_| None).collect(),
        }
    }
}

impl CostPolicy for MemPolicy {
    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace) {
        assert!(self.cursors[worker].is_none(), "worker {worker} is busy");
        self.cursors[worker] = Some(Cursor {
            trace,
            hop: 0,
            started: at,
            now: at,
        });
    }

    fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome {
        let cursor = self.cursors[worker].as_mut().expect("no active batch");
        let now = now.max(cursor.now);
        let hop = &cursor.trace.hops[cursor.hop];
        // Reads this hop: per access, two offset-table entries plus one
        // 8-byte load per sampled position.
        let accesses = hop.nodes.len() as u64;
        let drawn: usize = (0..hop.nodes.len()).map(|i| hop.picks(i)).sum();
        let reads = accesses * 2 + drawn as u64;
        let device = match self.kind {
            SystemKind::Dram => &mut devices.host_dram,
            _ => &mut devices.pmem,
        };
        let mem_done = device.random_access(now, reads, 8);
        // Host sampling logic runs concurrently with the loads; the
        // slower of the two gates the hop.
        let compute = self
            .ctx
            .config
            .devices
            .hostio
            .sample_compute_per_access
            .mul_u64(accesses);
        let done = mem_done.max(now + compute);
        cursor.now = done;
        cursor.hop += 1;
        if cursor.hop < cursor.trace.hops.len() {
            return StepOutcome::Running { next: done };
        }
        let cursor = self.cursors[worker].take().expect("cursor");
        self.finished[worker] = Some(BatchCost {
            done,
            sampling_time: done - cursor.started,
            overhead_time: SimDuration::ZERO,
            ssd_to_host_bytes: 0,
            host_to_ssd_bytes: 0,
            fpga: None,
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

    #[test]
    fn dram_batch_time_is_latency_dominated() {
        let ctx = test_context(SystemKind::Dram);
        let mut devices = Devices::new(&ctx.config);
        let mut p = MemPolicy::new(Arc::clone(&ctx), 1, SystemKind::Dram);
        let trace = test_trace(&ctx, 32, 1);
        let accesses = trace.num_accesses();
        let cost = drive(&mut p, &mut devices, 0, SimTime::ZERO, trace);
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
        let trace_of = |ctx: &Arc<RunContext>| test_trace(ctx, 64, 2);
        let ctx_d = test_context(SystemKind::Dram);
        let mut dev_d = Devices::new(&ctx_d.config);
        let mut pd = MemPolicy::new(Arc::clone(&ctx_d), 1, SystemKind::Dram);
        let rd = drive(&mut pd, &mut dev_d, 0, SimTime::ZERO, trace_of(&ctx_d));
        let ctx_p = test_context(SystemKind::Pmem);
        let mut dev_p = Devices::new(&ctx_p.config);
        let mut pp = MemPolicy::new(Arc::clone(&ctx_p), 1, SystemKind::Pmem);
        let rp = drive(&mut pp, &mut dev_p, 0, SimTime::ZERO, trace_of(&ctx_p));
        let ratio = rp.sampling_time.ratio(rd.sampling_time);
        assert!(
            (1.2..8.0).contains(&ratio),
            "PMEM/DRAM sampling ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "busy")]
    fn double_begin_panics() {
        let ctx = test_context(SystemKind::Dram);
        let mut p = MemPolicy::new(Arc::clone(&ctx), 1, SystemKind::Dram);
        let t = test_trace(&ctx, 2, 3);
        p.begin(0, SimTime::ZERO, t.clone());
        p.begin(0, SimTime::ZERO, t);
    }
}
