//! SSD DRAM page buffer.
//!
//! Flash pages read from the NAND array are cached in the SSD's on-device
//! DRAM (paper Fig 8). The host block path serves repeat reads from this
//! buffer; SmartSAGE's ISP runs neighbor sampling *directly against it*,
//! which is the source of its fine-grained-gather advantage (Fig 10b).
//!
//! The buffer is the workspace's one exact LRU ([`LruSet`]) over
//! physical page numbers, plus the hit/miss counters of its accesses.

use crate::flash::PhysPage;
use smartsage_sim::LruSet;

/// An exact LRU cache of flash pages (keys only; the simulator does not
/// need page payloads, the graph data is read from the functional layer).
#[derive(Debug, Clone)]
pub struct PageBuffer {
    pages: LruSet<PhysPage>,
    hits: u64,
    misses: u64,
}

impl PageBuffer {
    /// Creates a buffer holding at most `capacity_pages` pages.
    ///
    /// A zero capacity is legal and models a bufferless device (every
    /// access misses).
    pub fn new(capacity_pages: usize) -> Self {
        PageBuffer {
            pages: LruSet::new(capacity_pages),
            hits: 0,
            misses: 0,
        }
    }

    /// Buffer capacity in pages.
    pub fn capacity(&self) -> usize {
        self.pages.capacity()
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// `true` if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }

    /// Looks up `page`, recording a hit (and promoting it to MRU) or a
    /// miss. Returns `true` on hit. On miss the page is **not** inserted;
    /// call [`PageBuffer::insert`] once the flash read completes.
    pub fn access(&mut self, page: PhysPage) -> bool {
        if self.pages.touch(&page) {
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Checks residency without touching recency or counters.
    pub fn contains(&self, page: PhysPage) -> bool {
        self.pages.contains(&page)
    }

    /// Inserts `page` as MRU, evicting the LRU page if at capacity.
    /// Returns the evicted page, if any. Inserting a resident page just
    /// promotes it.
    pub fn insert(&mut self, page: PhysPage) -> Option<PhysPage> {
        self.pages.insert(page)
    }

    /// Hit count since creation/reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since creation/reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio (0.0 when no accesses).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Drops all pages and counters, keeping capacity.
    pub fn reset(&mut self) {
        self.pages.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_insert() {
        let mut b = PageBuffer::new(4);
        assert!(!b.access(PhysPage(1)));
        b.insert(PhysPage(1));
        assert!(b.access(PhysPage(1)));
        assert_eq!(b.hits(), 1);
        assert_eq!(b.misses(), 1);
        assert_eq!(b.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = PageBuffer::new(2);
        b.insert(PhysPage(1));
        b.insert(PhysPage(2));
        // Touch 1 so 2 becomes LRU.
        assert!(b.access(PhysPage(1)));
        let evicted = b.insert(PhysPage(3));
        assert_eq!(evicted, Some(PhysPage(2)));
        assert!(b.contains(PhysPage(1)));
        assert!(b.contains(PhysPage(3)));
        assert!(!b.contains(PhysPage(2)));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut b = PageBuffer::new(8);
        for i in 0..1000 {
            b.insert(PhysPage(i));
            assert!(b.len() <= 8);
        }
        assert_eq!(b.len(), 8);
        // The most recent 8 pages are resident.
        for i in 992..1000 {
            assert!(b.contains(PhysPage(i)), "page {i} should be resident");
        }
    }

    #[test]
    fn zero_capacity_never_holds_anything() {
        let mut b = PageBuffer::new(0);
        assert_eq!(b.insert(PhysPage(1)), None);
        assert!(!b.access(PhysPage(1)));
        assert!(b.is_empty());
    }

    #[test]
    fn reinserting_resident_page_promotes_not_duplicates() {
        let mut b = PageBuffer::new(2);
        b.insert(PhysPage(1));
        b.insert(PhysPage(2));
        b.insert(PhysPage(1)); // promote
        assert_eq!(b.len(), 2);
        let evicted = b.insert(PhysPage(3));
        assert_eq!(evicted, Some(PhysPage(2)), "2 was LRU after 1's promotion");
    }

    #[test]
    fn reset_restores_empty_state() {
        let mut b = PageBuffer::new(2);
        b.insert(PhysPage(1));
        b.access(PhysPage(1));
        b.reset();
        assert!(b.is_empty());
        assert_eq!(b.hits(), 0);
        assert_eq!(b.misses(), 0);
        assert_eq!(b.capacity(), 2);
        // Still usable after reset.
        b.insert(PhysPage(9));
        assert!(b.access(PhysPage(9)));
    }

    #[test]
    fn scan_workload_hit_ratio_matches_expectation() {
        // Cyclic scan over capacity+1 pages under LRU: always miss.
        let mut b = PageBuffer::new(4);
        for round in 0..10 {
            for i in 0..5u64 {
                let hit = b.access(PhysPage(i));
                if !hit {
                    b.insert(PhysPage(i));
                }
                if round > 0 {
                    assert!(!hit, "LRU must thrash on cyclic scan");
                }
            }
        }
    }
}
