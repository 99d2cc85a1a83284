//! A payload page cache behind one lock, kept for the `benchmark/`
//! package's `hostio.page_cache` probe: it is no product path. The
//! store's real page cache is the `Mutex<LruMap>` its `PagedFile` owns;
//! this shim is one lock over the same [`LruMap`], and its name and
//! stripe-count argument are what the benchmark spells. Both leave with
//! the probe in the next `benchmark` change.

use crate::sync::LockExt;
use smartsage_sim::LruMap;
use std::sync::{Arc, Mutex};

/// An exact-LRU page cache of `Arc<[u8]>` payloads behind one lock.
///
/// # Example
///
/// ```
/// use smartsage_hostio::ShardedPageCache;
/// let cache = ShardedPageCache::new(64, 1);
/// cache.insert(7, vec![1, 2, 3].into());
/// assert_eq!(cache.get(7).as_deref(), Some(&[1u8, 2, 3][..]));
/// assert!(cache.get(8).is_none());
/// assert_eq!(cache.len(), 1);
/// ```
#[doc(hidden)]
#[derive(Debug)]
pub struct ShardedPageCache {
    pages: Mutex<LruMap<u64, Arc<[u8]>>>,
}

impl ShardedPageCache {
    /// A cache of exactly `capacity` pages; the second argument is
    /// ignored. Zero capacity retains nothing, as with [`LruMap`].
    pub fn new(capacity: usize, _stripes: usize) -> ShardedPageCache {
        ShardedPageCache {
            pages: Mutex::new(LruMap::new(capacity)),
        }
    }

    /// The payload of `page`, promoting it to MRU. The returned `Arc`
    /// stays valid even if the page is evicted immediately after.
    pub fn get(&self, page: u64) -> Option<Arc<[u8]>> {
        self.pages.safe_lock().get(&page).cloned()
    }

    /// Residency probe without recency side effects.
    pub fn contains(&self, page: u64) -> bool {
        self.pages.safe_lock().contains(&page)
    }

    /// Inserts (or refreshes) `page`, evicting the LRU page when full.
    pub fn insert(&self, page: u64, payload: Arc<[u8]>) {
        self.pages.safe_lock().put(page, payload);
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.pages.safe_lock().len()
    }

    /// `true` when no page is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn page(byte: u8) -> Arc<[u8]> {
        vec![byte; 8].into()
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
        assert!(c.len() <= 32);
    }
}
