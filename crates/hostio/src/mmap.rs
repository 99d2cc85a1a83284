//! The baseline `SSD (mmap)` read path (paper Fig 12, left).
//!
//! The graph file is memory-mapped; reading a byte range touches its OS
//! pages one by one, each consulting the kernel's page cache. Resident
//! pages cost a near-memory touch; missing pages take a major fault —
//! kernel entry, page-cache maintenance, a 4 KiB block read from the
//! SSD, page-table fixup — which is the "several tens of microseconds"
//! overhead the paper measures ("the merits of utilizing the page cache
//! to reap locality benefits are outweighed by the high latency
//! overheads of maintaining the OS managed page cache itself", §III-C).

use crate::layout::ByteRange;
use crate::params::HostIoParams;
use smartsage_sim::{CountedLru, SimTime};
use smartsage_storage::Ssd;

/// Outcome of one ranged read on a host path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Completion time (data available in user space).
    pub done: SimTime,
    /// Device blocks actually fetched from the SSD.
    pub ssd_blocks: u64,
    /// Host-cache hits (pages or blocks, depending on the path).
    pub host_hits: u64,
    /// Host-cache misses.
    pub host_misses: u64,
}

/// The mmap-based reader: OS page cache in front of the SSD.
#[derive(Debug, Clone)]
pub struct MmapReader {
    /// The OS page cache over the file's pages, keyed by page index.
    cache: CountedLru<u64>,
    params: HostIoParams,
}

impl MmapReader {
    /// Creates a reader whose page cache holds `cache_bytes` (rounded
    /// down to whole OS pages).
    pub fn new(cache_bytes: u64, params: HostIoParams) -> Self {
        MmapReader {
            cache: CountedLru::new((cache_bytes / params.os_page_bytes) as usize),
            params,
        }
    }

    /// The underlying page cache (for statistics).
    pub fn cache(&self) -> &CountedLru<u64> {
        &self.cache
    }

    /// The host cost parameters.
    pub fn params(&self) -> &HostIoParams {
        &self.params
    }

    /// Reads `range` through the page cache at time `at`.
    ///
    /// `host_hit_override` imposes the full-scale locality model's verdict
    /// on every page of this access (`None` = consult the exact LRU);
    /// `ssd_hit_override` does the same for the SSD's internal page
    /// buffer. Pages are touched sequentially (demand paging of a
    /// dependent walk: the sampler reads the degree, then the entries).
    pub fn read(
        &mut self,
        ssd: &mut Ssd,
        at: SimTime,
        range: ByteRange,
        host_hit_override: Option<bool>,
        ssd_hit_override: Option<bool>,
    ) -> ReadOutcome {
        let mut now = at;
        let mut ssd_blocks = 0;
        let mut hits = 0;
        let mut misses = 0;
        let Some((first, last)) = range.blocks(self.params.os_page_bytes) else {
            return ReadOutcome {
                done: now,
                ssd_blocks: 0,
                host_hits: 0,
                host_misses: 0,
            };
        };
        let mut prev_flash_page: Option<u64> = None;
        for page in first..=last {
            // A fault brings the page in: the kernel reads it before
            // returning, so it is resident either way.
            if self.cache.lookup(page, host_hit_override) {
                hits += 1;
                now += self.params.minor_hit_cost;
            } else {
                misses += 1;
                // Kernel fault path, then a synchronous block read.
                now += self.params.fault_cost;
                // Consecutive blocks of one chunk usually share a
                // flash page: once the first block's page is read it
                // is resident in the SSD buffer for the rest.
                let flash_page = page * self.params.os_page_bytes / ssd.page_bytes();
                let override_here = if prev_flash_page == Some(flash_page) {
                    Some(true)
                } else {
                    ssd_hit_override
                };
                prev_flash_page = Some(flash_page);
                // OS page == device block here (both 4 KiB).
                let r = ssd.read_block(now, page, override_here);
                now = r.done;
                ssd_blocks += 1;
            }
        }
        ReadOutcome {
            done: now,
            ssd_blocks,
            host_hits: hits,
            host_misses: misses,
        }
    }

    /// Resets the page cache.
    pub fn reset(&mut self) {
        self.cache.reset();
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

    fn reader(cache_pages: u64) -> MmapReader {
        MmapReader::new(cache_pages * 4096, HostIoParams::default())
    }

    #[test]
    fn cache_capacity_rounds_down_to_whole_pages() {
        let r = MmapReader::new(3 * 4096 + 100, HostIoParams::default());
        assert_eq!(r.cache().keys().capacity(), 3);
    }

    #[test]
    fn cold_read_faults_every_page() {
        let mut r = reader(1024);
        let mut dev = ssd();
        let out = r.read(
            &mut dev,
            SimTime::ZERO,
            ByteRange {
                offset: 0,
                len: 3 * 4096,
            },
            None,
            None,
        );
        assert_eq!(out.host_misses, 3);
        assert_eq!(out.ssd_blocks, 3);
        // First fault pays the full flash read; the two sibling blocks of
        // the same 16 KiB flash page hit the SSD buffer but still pay the
        // kernel fault path. Lower bound: 3 faults + one tR.
        assert!(out.done.since_epoch() >= SimDuration::from_micros(3 * 16 + 25));
    }

    #[test]
    fn warm_read_is_cheap() {
        let mut r = reader(1024);
        let mut dev = ssd();
        let range = ByteRange {
            offset: 0,
            len: 4096,
        };
        let cold = r.read(&mut dev, SimTime::ZERO, range, None, None);
        let warm = r.read(&mut dev, cold.done, range, None, None);
        assert_eq!(warm.host_hits, 1);
        assert_eq!(warm.ssd_blocks, 0);
        assert_eq!(
            warm.done - cold.done,
            HostIoParams::default().minor_hit_cost
        );
    }

    #[test]
    fn override_imposes_outcomes() {
        let mut r = reader(1024);
        let mut dev = ssd();
        let range = ByteRange {
            offset: 0,
            len: 4096,
        };
        let forced_hit = r.read(&mut dev, SimTime::ZERO, range, Some(true), None);
        assert_eq!(forced_hit.host_hits, 1);
        assert_eq!(forced_hit.ssd_blocks, 0);
        let forced_miss = r.read(&mut dev, forced_hit.done, range, Some(false), None);
        assert_eq!(forced_miss.host_misses, 1);
        assert_eq!(forced_miss.ssd_blocks, 1);
    }

    #[test]
    fn empty_range_is_free() {
        let mut r = reader(4);
        let mut dev = ssd();
        let out = r.read(
            &mut dev,
            SimTime::ZERO,
            ByteRange {
                offset: 100,
                len: 0,
            },
            None,
            None,
        );
        assert_eq!(out.done, SimTime::ZERO);
        assert_eq!(out.host_hits + out.host_misses, 0);
    }
}
