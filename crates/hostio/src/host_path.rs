//! The host read path of the edge list (paper Fig 12).
//!
//! `SSD (mmap)` and SmartSAGE (SW) fetch a node's neighbor-ID chunk the
//! same way — its 4 KiB blocks, read from the SSD one after another —
//! and differ only in the host software around the fetch:
//!
//! * [`HostPath::Mmap`] maps the file; every missing page takes a major
//!   fault — kernel entry, page-cache maintenance, the block read,
//!   page-table fixup — which is the "several tens of microseconds" the
//!   paper measures (§III-C). Resident pages cost a near-memory touch.
//! * [`HostPath::DirectIo`] bypasses the page cache: the missing run is
//!   one `pread(O_DIRECT)` syscall into a user-space scratchpad, whose
//!   hits cost a probe and a copy (§IV-C).
//!
//! Whether an access hits the host cache or the SSD's page buffer is
//! the caller's verdict: experiments draw it at the full-scale rate
//! [`crate::locality`] computes, since a scaled-down graph would fit any
//! real cache.

use crate::layout::ByteRange;
use crate::params::HostIoParams;
use smartsage_sim::{SimDuration, SimTime};
use smartsage_storage::Ssd;

/// Which host software stack reads the edge list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HostPath {
    /// The baseline `SSD (mmap)`: the OS page cache, a fault per miss.
    Mmap,
    /// SmartSAGE (SW): `O_DIRECT` into a user-space scratchpad.
    DirectIo,
}

/// One ranged read on a host path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostRead {
    /// Completion time (data available in user space).
    pub done: SimTime,
    /// Device blocks fetched from the SSD.
    pub blocks_read: u64,
    /// Host software time on the miss path (faults or the syscall);
    /// zero on a hit.
    pub software: SimDuration,
}

impl HostPath {
    /// Reads `range` at `at`. On `host_hit` every block is served from
    /// the host cache; otherwise every block is read from `ssd`, the
    /// first of each flash page at the `ssd_hit` verdict and its
    /// siblings from the page buffer that read just filled.
    pub fn read(
        self,
        params: &HostIoParams,
        ssd: &mut Ssd,
        at: SimTime,
        range: ByteRange,
        host_hit: bool,
        ssd_hit: bool,
    ) -> HostRead {
        let Some((first, last)) = range.blocks(params.os_page_bytes) else {
            return HostRead {
                done: at,
                blocks_read: 0,
                software: SimDuration::ZERO,
            };
        };
        let blocks = last - first + 1;
        let (hit, fault, syscall) = match self {
            HostPath::Mmap => (params.minor_hit_cost, params.fault_cost, SimDuration::ZERO),
            HostPath::DirectIo => (
                params.scratchpad_hit_cost,
                SimDuration::ZERO,
                params.direct_io_syscall_cost,
            ),
        };
        if host_hit {
            return HostRead {
                done: at + hit.mul_u64(blocks),
                blocks_read: 0,
                software: SimDuration::ZERO,
            };
        }
        let mut now = at + syscall;
        let mut prev_flash_page = None;
        for block in first..=last {
            now += fault;
            let flash_page = block * params.os_page_bytes / ssd.page_bytes();
            let buffered = prev_flash_page == Some(flash_page);
            prev_flash_page = Some(flash_page);
            // OS page == device block here (both 4 KiB).
            now = ssd.read_block(now, block, Some(buffered || ssd_hit)).done;
        }
        HostRead {
            done: now,
            blocks_read: blocks,
            software: syscall + fault.mul_u64(blocks),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_storage::SsdParams;

    fn ssd() -> Ssd {
        Ssd::new(SsdParams::default())
    }

    fn blocks(n: u64) -> ByteRange {
        ByteRange {
            offset: 0,
            len: n * 4096,
        }
    }

    /// The device reads a miss of `n` blocks must issue: the first at
    /// the SSD verdict, its flash-page siblings buffered, each one
    /// issued `gap` after the previous landed. Returns the last `done`.
    fn device_reads(n: u64, start: SimTime, gap: SimDuration, ssd_hit: bool) -> SimTime {
        let mut dev = ssd();
        let per_page = dev.page_bytes() / 4096;
        (0..n).fold(start, |now, b| {
            dev.read_block(now + gap, b, Some(b % per_page != 0 || ssd_hit))
                .done
        })
    }

    #[test]
    fn a_hit_costs_blocks_times_the_hit_cost_and_reads_nothing() {
        let p = HostIoParams::default();
        for (path, cost) in [
            (HostPath::Mmap, p.minor_hit_cost),
            (HostPath::DirectIo, p.scratchpad_hit_cost),
        ] {
            let mut dev = ssd();
            let out = path.read(&p, &mut dev, SimTime::ZERO, blocks(3), true, false);
            assert_eq!(out.done, SimTime::ZERO + cost.mul_u64(3));
            assert_eq!((out.blocks_read, out.software), (0, SimDuration::ZERO));
            assert_eq!(dev.bytes_to_host(), 0, "{path:?} moved bytes on a hit");
        }
    }

    #[test]
    fn direct_io_pays_one_syscall_then_sequential_reads() {
        let p = HostIoParams::default();
        for ssd_hit in [false, true] {
            let mut dev = ssd();
            let out =
                HostPath::DirectIo.read(&p, &mut dev, SimTime::ZERO, blocks(5), false, ssd_hit);
            let start = SimTime::ZERO + p.direct_io_syscall_cost;
            assert_eq!(out.done, device_reads(5, start, SimDuration::ZERO, ssd_hit));
            assert_eq!(out.blocks_read, 5);
            assert_eq!(out.software, p.direct_io_syscall_cost);
        }
    }

    #[test]
    fn mmap_pays_one_fault_per_block() {
        let p = HostIoParams::default();
        let mut dev = ssd();
        let out = HostPath::Mmap.read(&p, &mut dev, SimTime::ZERO, blocks(5), false, false);
        assert_eq!(
            out.done,
            device_reads(5, SimTime::ZERO, p.fault_cost, false)
        );
        assert_eq!(out.blocks_read, 5);
        assert_eq!(out.software, p.fault_cost.mul_u64(5));
    }

    #[test]
    fn empty_range_is_free() {
        let p = HostIoParams::default();
        let empty = ByteRange {
            offset: 100,
            len: 0,
        };
        for path in [HostPath::Mmap, HostPath::DirectIo] {
            for host_hit in [false, true] {
                let mut dev = ssd();
                let out = path.read(&p, &mut dev, SimTime::ZERO, empty, host_hit, false);
                assert_eq!(out.done, SimTime::ZERO);
                assert_eq!((out.blocks_read, out.software), (0, SimDuration::ZERO));
                assert_eq!(dev.bytes_to_host(), 0);
            }
        }
    }

    #[test]
    fn direct_io_beats_mmap_on_cold_misses() {
        let p = HostIoParams::default();
        let cold =
            |path: HostPath| path.read(&p, &mut ssd(), SimTime::ZERO, blocks(3), false, false);
        assert!(cold(HostPath::DirectIo).done < cold(HostPath::Mmap).done);
    }
}
