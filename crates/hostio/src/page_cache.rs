//! OS page-cache model.
//!
//! The baseline SSD-centric system maps the graph file with `mmap`, so
//! every access consults the kernel's page cache: resident pages cost a
//! near-memory touch, missing pages cost a major fault — the expensive
//! path the paper's characterization identifies as the bottleneck
//! ("the merits of utilizing the page cache to reap locality benefits are
//! outweighed by the high latency overheads of maintaining the OS managed
//! page cache itself", §III-C).

use crate::params::HostIoParams;
use smartsage_sim::LruSet;

/// Outcome of consulting the page cache for one OS page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageLookup {
    /// Page resident: minor cost only.
    Hit,
    /// Major fault: kernel path + device read required.
    Fault,
}

/// The OS page cache over one file's pages.
#[derive(Debug, Clone)]
pub struct PageCache {
    pages: LruSet<u64>,
    page_bytes: u64,
    hits: u64,
    faults: u64,
}

impl PageCache {
    /// Creates a cache of `capacity_bytes` with the OS page size from
    /// `params` (capacity rounds down to whole pages).
    pub fn new(capacity_bytes: u64, params: &HostIoParams) -> Self {
        let pages = (capacity_bytes / params.os_page_bytes) as usize;
        PageCache {
            pages: LruSet::new(pages),
            page_bytes: params.os_page_bytes,
            hits: 0,
            faults: 0,
        }
    }

    /// OS page index containing `byte_offset`.
    pub fn page_of(&self, byte_offset: u64) -> u64 {
        byte_offset / self.page_bytes
    }

    /// Consults the cache for the page at index `page`. On a fault the
    /// page is inserted (the kernel brings it in before returning).
    pub fn access_page(&mut self, page: u64) -> PageLookup {
        if self.pages.touch(&page) {
            self.hits += 1;
            PageLookup::Hit
        } else {
            self.faults += 1;
            self.pages.insert(page);
            PageLookup::Fault
        }
    }

    /// Forces an outcome (used by the full-scale locality model) while
    /// keeping counters truthful.
    pub fn force_access(&mut self, page: u64, hit: bool) -> PageLookup {
        if hit {
            self.hits += 1;
            self.pages.insert(page);
            PageLookup::Hit
        } else {
            self.faults += 1;
            self.pages.insert(page);
            PageLookup::Fault
        }
    }

    /// Resident page count.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Capacity in pages.
    pub fn capacity_pages(&self) -> usize {
        self.pages.capacity()
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Major faults so far.
    pub fn faults(&self) -> u64 {
        self.faults
    }

    /// Hit ratio over all accesses (0.0 when untouched).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.faults;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all pages and counters.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.hits = 0;
        self.faults = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(bytes: u64) -> PageCache {
        PageCache::new(bytes, &HostIoParams::default())
    }

    #[test]
    fn fault_then_hit() {
        let mut c = cache(16 * 4096);
        assert_eq!(c.access_page(3), PageLookup::Fault);
        assert_eq!(c.access_page(3), PageLookup::Hit);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.faults(), 1);
        assert_eq!(c.hit_ratio(), 0.5);
    }

    #[test]
    fn capacity_rounds_down_to_pages() {
        let c = cache(3 * 4096 + 100);
        assert_eq!(c.capacity_pages(), 3);
    }

    #[test]
    fn eviction_under_pressure() {
        let mut c = cache(2 * 4096);
        c.access_page(1);
        c.access_page(2);
        c.access_page(3); // evicts 1
        assert_eq!(c.access_page(1), PageLookup::Fault);
        assert!(c.resident_pages() <= 2);
    }

    #[test]
    fn forced_outcomes_count_correctly() {
        let mut c = cache(4 * 4096);
        assert_eq!(c.force_access(9, true), PageLookup::Hit);
        assert_eq!(c.force_access(9, false), PageLookup::Fault);
        assert_eq!(c.hits(), 1);
        assert_eq!(c.faults(), 1);
    }

    #[test]
    fn page_of_uses_os_page_size() {
        let c = cache(4096);
        assert_eq!(c.page_of(0), 0);
        assert_eq!(c.page_of(4095), 0);
        assert_eq!(c.page_of(4096), 1);
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = cache(4 * 4096);
        c.access_page(1);
        c.reset();
        assert_eq!(c.hits() + c.faults(), 0);
        assert_eq!(c.resident_pages(), 0);
        assert_eq!(c.access_page(1), PageLookup::Fault);
    }
}
