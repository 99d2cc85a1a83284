//! SmartSAGE(SW)'s direct-I/O read path (paper Fig 12, right).
//!
//! `O_DIRECT` reads bypass the OS page cache entirely: the application
//! issues block-aligned reads straight to the NVMe driver and manages its
//! own **user-space scratchpad buffer** for whatever locality exists.
//! This trades the kernel's opportunistic caching for a much shorter
//! software path — the "latency first, locality second" design point.

use crate::layout::ByteRange;
use crate::mmap::ReadOutcome;
use crate::params::HostIoParams;
use smartsage_sim::{CountedLru, SimTime};
use smartsage_storage::Ssd;

/// The direct-I/O reader with a user-space scratchpad.
#[derive(Debug, Clone)]
pub struct DirectIoReader {
    /// The scratchpad's resident device blocks, keyed by block index.
    scratchpad: CountedLru<u64>,
    params: HostIoParams,
}

impl DirectIoReader {
    /// Creates a reader whose scratchpad holds `scratchpad_bytes` of
    /// device blocks.
    pub fn new(scratchpad_bytes: u64, params: HostIoParams) -> Self {
        DirectIoReader {
            scratchpad: CountedLru::new((scratchpad_bytes / params.os_page_bytes) as usize),
            params,
        }
    }

    /// The host cost parameters.
    pub fn params(&self) -> &HostIoParams {
        &self.params
    }

    /// The scratchpad (for statistics).
    pub fn scratchpad(&self) -> &CountedLru<u64> {
        &self.scratchpad
    }

    /// Reads `range` at time `at`.
    ///
    /// Resident blocks cost a scratchpad probe; the missing blocks of the
    /// range are fetched with **one** `pread(O_DIRECT)` syscall (they are
    /// contiguous) whose device blocks the SSD serves back-to-back.
    /// `host_hit_override`/`ssd_hit_override` impose full-scale locality
    /// verdicts as in [`crate::mmap::MmapReader::read`].
    pub fn read(
        &mut self,
        ssd: &mut Ssd,
        at: SimTime,
        range: ByteRange,
        host_hit_override: Option<bool>,
        ssd_hit_override: Option<bool>,
    ) -> ReadOutcome {
        let mut now = at;
        let Some((first, last)) = range.blocks(self.params.os_page_bytes) else {
            return ReadOutcome {
                done: now,
                ssd_blocks: 0,
                host_hits: 0,
                host_misses: 0,
            };
        };
        let mut hits = 0;
        let mut missing: Vec<u64> = Vec::new();
        for block in first..=last {
            if self.scratchpad.lookup(block, host_hit_override) {
                hits += 1;
                now += self.params.scratchpad_hit_cost;
            } else {
                missing.push(block);
            }
        }
        let mut ssd_blocks = 0;
        if !missing.is_empty() {
            // One lean syscall covers the whole missing run.
            now += self.params.direct_io_syscall_cost;
            let mut prev_flash_page: Option<u64> = None;
            for block in missing.iter() {
                // Blocks of one chunk share flash pages; after the first
                // block fills the SSD buffer the rest hit it.
                let flash_page = *block * self.params.os_page_bytes / ssd.page_bytes();
                let override_here = if prev_flash_page == Some(flash_page) {
                    Some(true)
                } else {
                    ssd_hit_override
                };
                prev_flash_page = Some(flash_page);
                let r = ssd.read_block(now, *block, override_here);
                now = r.done;
                ssd_blocks += 1;
            }
        }
        ReadOutcome {
            done: now,
            ssd_blocks,
            host_hits: hits,
            host_misses: ssd_blocks,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_sim::SimDuration;
    use smartsage_storage::SsdParams;

    fn ssd() -> Ssd {
        Ssd::new(SsdParams::default())
    }

    fn reader(blocks: u64) -> DirectIoReader {
        DirectIoReader::new(blocks * 4096, HostIoParams::default())
    }

    #[test]
    fn one_syscall_per_ranged_read() {
        let mut r = reader(1024);
        let mut dev = ssd();
        let out = r.read(
            &mut dev,
            SimTime::ZERO,
            ByteRange {
                offset: 0,
                len: 2 * 4096,
            },
            None,
            None,
        );
        assert_eq!(out.ssd_blocks, 2);
        // Cost must include exactly one syscall (3us), not two: total is
        // syscall + 2 sequential device reads (the second hits the SSD
        // buffer — same flash page). A second syscall would add another
        // 3us; check the budget tightly enough to catch that.
        let device_only = {
            let mut dev2 = ssd();
            let a = dev2.read_block(SimTime::ZERO, 0, None);
            let b = dev2.read_block(a.done, 1, Some(true));
            b.done.since_epoch()
        };
        let expected = device_only + SimDuration::from_micros(3);
        let got = out.done.since_epoch();
        assert!(
            got.saturating_sub(expected).as_nanos() < 2_000
                && expected.saturating_sub(got).as_nanos() < 2_000,
            "got {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn direct_io_beats_mmap_on_cold_misses() {
        use crate::mmap::MmapReader;
        let range = ByteRange {
            offset: 0,
            len: 3 * 4096,
        };
        let mut dio = reader(0); // no scratchpad: pure path comparison
        let mut dev1 = ssd();
        let dio_out = dio.read(&mut dev1, SimTime::ZERO, range, None, None);
        let mut mm = MmapReader::new(0, HostIoParams::default());
        let mut dev2 = ssd();
        let mm_out = mm.read(&mut dev2, SimTime::ZERO, range, None, None);
        assert!(
            dio_out.done < mm_out.done,
            "direct I/O {:?} should beat mmap {:?} when both miss",
            dio_out.done,
            mm_out.done
        );
    }

    #[test]
    fn scratchpad_hits_skip_the_device() {
        let mut r = reader(64);
        let mut dev = ssd();
        let range = ByteRange {
            offset: 0,
            len: 4096,
        };
        let first = r.read(&mut dev, SimTime::ZERO, range, None, None);
        let second = r.read(&mut dev, first.done, range, None, None);
        assert_eq!(second.ssd_blocks, 0);
        assert_eq!(second.host_hits, 1);
        assert_eq!(
            second.done - first.done,
            HostIoParams::default().scratchpad_hit_cost
        );
        assert!(r.scratchpad().hit_ratio() > 0.0);
    }

    #[test]
    fn override_forces_hits() {
        let mut r = reader(64);
        let mut dev = ssd();
        let out = r.read(
            &mut dev,
            SimTime::ZERO,
            ByteRange {
                offset: 0,
                len: 4096,
            },
            Some(true),
            None,
        );
        assert_eq!(out.ssd_blocks, 0);
        assert_eq!(out.host_hits, 1);
    }
}
