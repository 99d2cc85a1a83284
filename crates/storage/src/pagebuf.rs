//! SSD DRAM page buffer.
//!
//! Flash pages read from the NAND array are cached in the SSD's on-device
//! DRAM (paper Fig 8). The host block path serves repeat reads from this
//! buffer; SmartSAGE's ISP runs neighbor sampling *directly against it*,
//! which is the source of its fine-grained-gather advantage (Fig 10b).
//!
//! The buffer is the workspace's one counted model cache
//! ([`CountedLru`]) over physical page numbers; the only code that
//! looks a page up in it is [`Ssd::fetch_page`](crate::Ssd::fetch_page).
//! An exact lookup (the ISP store tiers') reads and fills its residency;
//! an imposed one (every cost policy's) is only counted, so the device a
//! cost policy prices on carries the modeled buffer size and never holds
//! a page.

use crate::flash::PhysPage;
use smartsage_sim::CountedLru;

/// An exact LRU cache of flash pages (keys only; the simulator does not
/// need page payloads, the graph data is read from the functional
/// layer). A zero capacity models a bufferless device.
pub type PageBuffer = CountedLru<PhysPage>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit_after_insert() {
        let mut b = PageBuffer::new(4);
        assert!(!b.lookup(PhysPage(1), None));
        assert!(b.lookup(PhysPage(1), None));
        assert_eq!(b.hits(), 1);
        assert_eq!(b.misses(), 1);
        assert_eq!(b.hit_ratio(), 0.5);
    }

    #[test]
    fn lru_eviction_order() {
        let mut b = PageBuffer::new(2);
        b.lookup(PhysPage(1), None);
        b.lookup(PhysPage(2), None);
        // Touch 1 so 2 becomes LRU.
        assert!(b.lookup(PhysPage(1), None));
        b.lookup(PhysPage(3), None);
        assert!(b.keys().contains(&PhysPage(1)));
        assert!(b.keys().contains(&PhysPage(3)));
        assert!(!b.keys().contains(&PhysPage(2)));
    }

    #[test]
    fn capacity_is_never_exceeded() {
        let mut b = PageBuffer::new(8);
        for i in 0..1000 {
            b.lookup(PhysPage(i), None);
            assert!(b.keys().len() <= 8);
        }
        assert_eq!(b.keys().len(), 8);
        // The most recent 8 pages are resident.
        for i in 992..1000 {
            assert!(
                b.keys().contains(&PhysPage(i)),
                "page {i} should be resident"
            );
        }
    }

    #[test]
    fn zero_capacity_never_holds_anything() {
        let mut b = PageBuffer::new(0);
        assert!(!b.lookup(PhysPage(1), None));
        assert!(!b.lookup(PhysPage(1), None));
        assert!(b.keys().is_empty());
    }

    #[test]
    fn reinserting_resident_page_promotes_not_duplicates() {
        let mut b = PageBuffer::new(2);
        b.lookup(PhysPage(1), None);
        b.lookup(PhysPage(2), None);
        b.lookup(PhysPage(1), None); // a hit on a resident page: promote
        assert_eq!(b.keys().len(), 2);
        b.lookup(PhysPage(3), None);
        assert_eq!(
            b.keys().keys_mru_first(),
            [PhysPage(3), PhysPage(1)],
            "2 was LRU after 1's promotion"
        );
    }

    #[test]
    fn scan_workload_hit_ratio_matches_expectation() {
        // Cyclic scan over capacity+1 pages under LRU: always miss.
        let mut b = PageBuffer::new(4);
        for _ in 0..10 {
            for i in 0..5u64 {
                assert!(
                    !b.lookup(PhysPage(i), None),
                    "LRU must thrash on cyclic scan"
                );
            }
        }
        assert_eq!(b.hit_ratio(), 0.0);
    }
}
