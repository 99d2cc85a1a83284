//! Host-driven SSD cost policies: `SSD (mmap)` and `SmartSAGE (SW)`.
//!
//! Both keep sampling on the host CPU and read the edge-list array from
//! the SSD, fetching each accessed node's neighbor-ID chunk in block
//! granularity (paper Fig 10a). They differ only in the software path:
//!
//! * `SsdMmap` goes through the OS page cache — faults cost "several
//!   tens of microseconds" of kernel time per missing page;
//! * `SmartSageSw` uses `O_DIRECT` + a user-space scratchpad — the
//!   paper's latency-optimized software runtime (SmartSAGE (SW)).
//!
//! Both are one [`HostPolicy`] over the reader its kind selects.
//!
//! Accesses step one at a time per worker (queue depth 1 per sampling
//! thread: each edge-list read depends on the previous control flow),
//! which is exactly why these paths are latency-bound.

use super::{BatchCost, CostPolicy, StepOutcome};
use crate::config::SystemKind;
use crate::context::{Devices, RunContext};
use smartsage_hostio::{DirectIoReader, MmapReader};
use smartsage_sim::{SimDuration, SimTime, Xoshiro256};
use smartsage_store::SampleTrace;
use std::sync::Arc;

#[derive(Debug)]
struct Cursor {
    trace: SampleTrace,
    hop: usize,
    access: usize,
    started: SimTime,
    now: SimTime,
    overhead: SimDuration,
    ssd_bytes: u64,
}

/// Which reader a host policy drives.
#[derive(Debug)]
enum Reader {
    Mmap(MmapReader),
    DirectIo(DirectIoReader),
}

/// Common implementation of the two host paths.
#[derive(Debug)]
pub struct HostPolicy {
    ctx: Arc<RunContext>,
    kind: SystemKind,
    reader: Reader,
    rng: Xoshiro256,
    cursors: Vec<Option<Cursor>>,
    finished: Vec<Option<BatchCost>>,
}

impl HostPolicy {
    /// Builds the host policy for `kind`: `SsdMmap` reads through the
    /// OS page cache, `SmartSageSw` through direct I/O and its
    /// scratchpad.
    pub fn new(ctx: Arc<RunContext>, workers: usize, kind: SystemKind) -> HostPolicy {
        let devices = &ctx.config.devices;
        // Caches sized for the scaled graph when running exact; the
        // analytic mode imposes hit decisions anyway, so keep the
        // exact cache under it small.
        let cache_bytes = |full_bytes: u64| match ctx.locality {
            Some(_) => full_bytes.min(64 * 1024 * 1024),
            None => full_bytes,
        };
        let reader = match kind {
            SystemKind::SsdMmap => Reader::Mmap(MmapReader::new(
                cache_bytes(devices.host_cache_bytes),
                devices.hostio.clone(),
            )),
            _ => Reader::DirectIo(DirectIoReader::new(
                cache_bytes(devices.scratchpad_bytes),
                devices.hostio.clone(),
            )),
        };
        let rng = Xoshiro256::seed_from_u64(0x5EED_0001 ^ ctx.layout.total_bytes());
        HostPolicy {
            ctx,
            kind,
            reader,
            rng,
            cursors: (0..workers).map(|_| None).collect(),
            finished: (0..workers).map(|_| None).collect(),
        }
    }

    fn host_hit_override(&mut self) -> Option<bool> {
        let locality = self.ctx.locality?;
        let p = match self.kind {
            SystemKind::SsdMmap => locality.page_cache_hit,
            _ => locality.scratchpad_hit,
        };
        Some(self.rng.chance(p))
    }

    fn ssd_hit_override(&mut self) -> Option<bool> {
        let locality = self.ctx.locality?;
        Some(self.rng.chance(locality.ssd_buffer_hit_host))
    }
}

impl CostPolicy for HostPolicy {
    fn kind(&self) -> SystemKind {
        self.kind
    }

    fn begin(&mut self, worker: usize, at: SimTime, trace: SampleTrace) {
        assert!(self.cursors[worker].is_none(), "worker {worker} is busy");
        self.cursors[worker] = Some(Cursor {
            trace,
            hop: 0,
            access: 0,
            started: at,
            now: at,
            overhead: SimDuration::ZERO,
            ssd_bytes: 0,
        });
    }

    fn step(&mut self, worker: usize, devices: &mut Devices, now: SimTime) -> StepOutcome {
        let host_override = self.host_hit_override();
        let ssd_override = self.ssd_hit_override();
        let ctx = &*self.ctx;
        let params = &ctx.config.devices.hostio;
        let cursor = self.cursors[worker].as_mut().expect("no active batch");
        let mut t = now.max(cursor.now);

        let hop = &cursor.trace.hops[cursor.hop];
        let node = hop.nodes[cursor.access];
        // Offset-table lookup: resident in host DRAM for all systems
        // (it is ~1% of the edge array).
        t += SimDuration::from_nanos(30);
        // Fetch the node's neighbor-ID chunk in block granularity.
        let range = ctx.layout.edge_list_range(ctx.graph(), node);
        if range.len > 0 {
            let out = match &mut self.reader {
                Reader::Mmap(r) => r.read(&mut devices.ssd, t, range, host_override, ssd_override),
                Reader::DirectIo(r) => {
                    r.read(&mut devices.ssd, t, range, host_override, ssd_override)
                }
            };
            cursor.ssd_bytes += out.ssd_blocks * params.os_page_bytes;
            let io_time = out.done - t;
            // Attribute non-device time as software overhead.
            if out.host_misses > 0 {
                let sw = match self.kind {
                    SystemKind::SsdMmap => params.fault_cost.mul_u64(out.host_misses),
                    _ => params.direct_io_syscall_cost,
                };
                cursor.overhead += sw.min(io_time);
            }
            t = out.done;
        }
        // Host-side sampling compute for this access.
        t += params.sample_compute_per_access;

        // Advance the cursor.
        cursor.now = t;
        cursor.access += 1;
        if cursor.access >= hop.nodes.len() {
            cursor.access = 0;
            cursor.hop += 1;
        }
        if cursor.hop < cursor.trace.hops.len() {
            return StepOutcome::Running { next: t };
        }
        let cursor = self.cursors[worker].take().expect("cursor");
        self.finished[worker] = Some(BatchCost {
            done: cursor.now,
            sampling_time: cursor.now - cursor.started,
            overhead_time: cursor.overhead,
            ssd_to_host_bytes: cursor.ssd_bytes,
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
    fn mmap_is_orders_of_magnitude_slower_than_dram_sampling() {
        let ctx = test_context(SystemKind::SsdMmap);
        let mut devices = Devices::new(&ctx.config);
        let mut p = HostPolicy::new(Arc::clone(&ctx), 1, SystemKind::SsdMmap);
        let trace = test_trace(&ctx, 32, 5);
        let accesses = trace.num_accesses();
        let r = drive(&mut p, &mut devices, 0, SimTime::ZERO, trace);
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
    fn direct_io_beats_mmap() {
        let ctx_m = test_context(SystemKind::SsdMmap);
        let mut dev_m = Devices::new(&ctx_m.config);
        let mut pm = HostPolicy::new(Arc::clone(&ctx_m), 1, SystemKind::SsdMmap);
        let rm = drive(
            &mut pm,
            &mut dev_m,
            0,
            SimTime::ZERO,
            test_trace(&ctx_m, 48, 6),
        );
        let ctx_d = test_context(SystemKind::SmartSageSw);
        let mut dev_d = Devices::new(&ctx_d.config);
        let mut pd = HostPolicy::new(Arc::clone(&ctx_d), 1, SystemKind::SmartSageSw);
        let rd = drive(
            &mut pd,
            &mut dev_d,
            0,
            SimTime::ZERO,
            test_trace(&ctx_d, 48, 6),
        );
        let speedup = rm.sampling_time.ratio(rd.sampling_time);
        assert!(
            speedup > 1.1,
            "direct I/O speedup over mmap is only {speedup}"
        );
    }

    #[test]
    fn transfers_are_block_granular() {
        let ctx = test_context(SystemKind::SsdMmap);
        let mut devices = Devices::new(&ctx.config);
        let mut p = HostPolicy::new(Arc::clone(&ctx), 1, SystemKind::SsdMmap);
        let trace = test_trace(&ctx, 16, 9);
        let useful = trace.num_sampled() * 8;
        let r = drive(&mut p, &mut devices, 0, SimTime::ZERO, trace);
        assert_eq!(r.ssd_to_host_bytes % 4096, 0);
        // Over-fetch: block-granular chunks dwarf the useful sample IDs.
        assert!(r.ssd_to_host_bytes > useful);
    }
}
