//! Lock-striped sharded page cache with payloads.
//!
//! [`LruMap`] is a single-threaded recency map; wrapping one instance
//! in a single mutex would serialize every concurrent gather on the
//! shared feature store. This cache splits the page-id space across
//! `N` independent shards, each an exact-LRU [`LruMap`] of
//! `Arc<[u8]>` page payloads behind its own mutex, so parallel gathers
//! contend only when they touch pages of the same shard.
//!
//! Properties:
//!
//! * **Exact LRU per shard.** Each shard runs the same exact-recency
//!   discipline as [`LruMap`]; globally the cache is
//!   shard-local-LRU (the standard lock-striping trade: eviction order
//!   is exact within a shard, approximate across shards).
//! * **Immutable payloads.** Pages are `Arc<[u8]>`: a hit hands the
//!   caller a refcount bump, never a copy, and an eviction can never
//!   invalidate bytes a reader is still assembling rows from.
//! * **Deterministic values.** Residency and eviction depend on
//!   interleaving; the *bytes* of a page never do (they come from an
//!   immutable file), which is what lets the shared feature store keep
//!   its determinism contract under concurrency.

use crate::sync::LockExt;
use smartsage_sim::LruMap;
use std::sync::{Arc, Mutex};

/// One lock-striped shard: a page and its payload are one LRU record.
type Shard = LruMap<u64, Arc<[u8]>>;

/// A sharded, thread-safe page cache keyed by page id.
///
/// # Example
///
/// ```
/// use smartsage_hostio::ShardedPageCache;
/// let cache = ShardedPageCache::new(64, 4);
/// cache.insert(7, vec![1, 2, 3].into());
/// assert_eq!(cache.get(7).as_deref(), Some(&[1u8, 2, 3][..]));
/// assert!(cache.get(8).is_none());
/// assert_eq!(cache.len(), 1);
/// ```
#[derive(Debug)]
pub struct ShardedPageCache {
    shards: Vec<Mutex<Shard>>,
    mask: u64,
    capacity: usize,
}

impl ShardedPageCache {
    /// Creates a cache of `capacity` pages striped across `shards`
    /// locks. The shard count is rounded up to a power of two and the
    /// capacity is split evenly, rounding each shard up — so
    /// [`ShardedPageCache::capacity`] reports the *actual* total
    /// (never below the request), and occupancy can never exceed it.
    /// Zero capacity retains nothing, as with [`LruMap`].
    pub fn new(capacity: usize, shards: usize) -> ShardedPageCache {
        let shards = shards.max(1).next_power_of_two();
        let per_shard = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(shards)
        };
        ShardedPageCache {
            shards: (0..shards)
                .map(|_| Mutex::new(Shard::new(per_shard)))
                .collect(),
            mask: shards as u64 - 1,
            capacity: per_shard * shards,
        }
    }

    fn shard(&self, page: u64) -> &Mutex<Shard> {
        // Low bits select the shard: contiguous page runs stripe across
        // every lock instead of hammering one.
        &self.shards[(page & self.mask) as usize]
    }

    fn lock(&self, page: u64) -> std::sync::MutexGuard<'_, Shard> {
        // Poison-free: one panicking gather must not turn every later
        // read of this stripe into a panic.
        self.shard(page).safe_lock()
    }

    /// Actual total capacity in pages (the request rounded up to a
    /// whole number of pages per shard).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Residency probe + payload fetch, promoting the page to MRU of
    /// its shard. The returned `Arc` stays valid even if the page is
    /// evicted immediately after.
    pub fn get(&self, page: u64) -> Option<Arc<[u8]>> {
        self.lock(page).get(&page).cloned()
    }

    /// Residency probe without recency side effects.
    pub fn contains(&self, page: u64) -> bool {
        self.lock(page).contains(&page)
    }

    /// Inserts (or refreshes) `page`, evicting its shard's LRU page if
    /// that shard is full. A no-op at zero capacity.
    pub fn insert(&self, page: u64, payload: Arc<[u8]>) {
        self.lock(page).put(page, payload);
    }

    /// Total resident pages across all shards.
    pub fn len(&self) -> usize {
        self.occupancy().iter().sum()
    }

    /// `true` when no shard holds any page.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident pages per shard, in shard order — the occupancy view
    /// surfaced by `reproduce`'s store report.
    pub fn occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.safe_lock().len()).collect()
    }

    /// Drops every resident page in every shard, keeping capacity.
    pub fn clear(&self) {
        for s in &self.shards {
            s.safe_lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(byte: u8) -> Arc<[u8]> {
        vec![byte; 8].into()
    }

    #[test]
    fn shard_count_rounds_up_to_power_of_two() {
        let shards = |n| ShardedPageCache::new(16, n).occupancy().len();
        assert_eq!(shards(1), 1);
        assert_eq!(shards(3), 4);
        assert_eq!(shards(8), 8);
        assert_eq!(shards(0), 1);
    }

    #[test]
    fn capacity_reports_the_actual_rounded_total() {
        // 10 requested over 8 shards → 2 per shard → 16 real pages;
        // capacity() must report what occupancy can actually reach.
        let c = ShardedPageCache::new(10, 8);
        assert_eq!(c.capacity(), 16);
        for p in 0..64u64 {
            c.insert(p, page(p as u8));
        }
        assert!(c.len() <= c.capacity());
        assert_eq!(ShardedPageCache::new(16, 4).capacity(), 16);
        assert_eq!(ShardedPageCache::new(0, 4).capacity(), 0);
    }

    #[test]
    fn get_promotes_and_returns_payload() {
        let c = ShardedPageCache::new(8, 2);
        c.insert(0, page(7));
        assert_eq!(c.get(0).as_deref(), Some(&[7u8; 8][..]));
        assert!(c.contains(0));
        assert!(c.get(2).is_none());
    }

    #[test]
    fn eviction_is_per_shard_lru() {
        // 2 shards x 2 pages each; even pages land in shard 0.
        let c = ShardedPageCache::new(4, 2);
        for p in [0u64, 2, 4] {
            c.insert(p, page(p as u8));
        }
        // Shard 0 held {0, 2}; inserting 4 evicts 0 (its shard LRU).
        assert!(!c.contains(0), "shard-LRU victim must be evicted");
        assert!(c.contains(2) && c.contains(4));
        // Odd pages (shard 1) are untouched by shard-0 pressure.
        c.insert(1, page(1));
        assert!(c.contains(1) && c.contains(2) && c.contains(4));
    }

    #[test]
    fn payload_survives_eviction() {
        let c = ShardedPageCache::new(1, 1);
        c.insert(0, page(9));
        let held = c.get(0).unwrap();
        c.insert(1, page(1)); // evicts page 0
        assert!(!c.contains(0));
        assert_eq!(&held[..], &[9u8; 8], "Arc payload outlives eviction");
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let c = ShardedPageCache::new(0, 4);
        c.insert(3, page(3));
        assert!(c.get(3).is_none());
        assert!(c.is_empty());
        assert_eq!(c.occupancy(), vec![0; 4]);
    }

    #[test]
    fn occupancy_and_clear() {
        let c = ShardedPageCache::new(8, 4);
        for p in 0..6u64 {
            c.insert(p, page(p as u8));
        }
        assert_eq!(c.len(), 6);
        let occ = c.occupancy();
        assert_eq!(occ.len(), 4);
        assert_eq!(occ.iter().sum::<usize>(), 6);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.capacity(), 8);
    }

    #[test]
    fn a_poisoned_stripe_with_a_lost_payload_still_serves_reads() {
        let c = ShardedPageCache::new(4, 1);
        c.insert(0, page(1));
        c.insert(1, page(2));
        // A holder dies holding the stripe: the lock is poisoned. (A
        // page and its payload are one record, so there is no
        // half-updated state for it to leave behind.)
        let died = std::thread::scope(|s| {
            s.spawn(|| {
                let _shard = c.shards[0].lock().unwrap();
                panic!("gather died holding the stripe");
            })
            .join()
        });
        assert!(died.is_err() && c.shards[0].is_poisoned());
        assert_eq!(c.get(1).as_deref(), Some(&[2u8; 8][..]));
        assert!(c.get(2).is_none());
        c.insert(0, page(3));
        assert_eq!(c.get(0).as_deref(), Some(&[3u8; 8][..]));
        assert_eq!(c.occupancy(), vec![2]);
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn concurrent_hammering_keeps_shards_consistent() {
        let c = Arc::new(ShardedPageCache::new(32, 4));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for i in 0..500u64 {
                        let p = (t * 131 + i) % 64;
                        if let Some(buf) = c.get(p) {
                            assert_eq!(buf[0], p as u8);
                        } else {
                            c.insert(p, page(p as u8));
                        }
                    }
                });
            }
        });
        assert!(c.len() <= c.capacity());
    }
}
