//! Thread-safe stats accumulation.
//!
//! Per-handle counters are plain [`StoreStats`] (a handle belongs to
//! one run on one thread); the one shared counter set — the sweep
//! accumulator a `Runner` owns — accumulates into an
//! [`AtomicStoreStats`] instead, so concurrent recorders never lose an
//! increment and a snapshot is always a sum of exact per-handle deltas.

use crate::StoreStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// A [`StoreStats`] record held in monotonic atomics.
///
/// # Example
///
/// ```
/// use smartsage_store::{AtomicStoreStats, StoreStats};
/// let acc = AtomicStoreStats::default();
/// acc.add(&StoreStats { gathers: 2, bytes_read: 4096, ..StoreStats::default() });
/// acc.add(&StoreStats { gathers: 1, ..StoreStats::default() });
/// let s = acc.snapshot();
/// assert_eq!((s.gathers, s.bytes_read), (3, 4096));
/// ```
#[derive(Debug, Default)]
pub struct AtomicStoreStats {
    gathers: AtomicU64,
    nodes_gathered: AtomicU64,
    feature_bytes: AtomicU64,
    pages_read: AtomicU64,
    bytes_read: AtomicU64,
    page_hits: AtomicU64,
    page_misses: AtomicU64,
    device_bytes_read: AtomicU64,
    host_bytes_transferred: AtomicU64,
    device_ns: AtomicU64,
}

impl AtomicStoreStats {
    /// Adds one exact stats record to the accumulator.
    pub fn add(&self, stats: &StoreStats) {
        self.gathers.fetch_add(stats.gathers, Ordering::Relaxed);
        self.nodes_gathered
            .fetch_add(stats.nodes_gathered, Ordering::Relaxed);
        self.feature_bytes
            .fetch_add(stats.feature_bytes, Ordering::Relaxed);
        self.pages_read
            .fetch_add(stats.pages_read, Ordering::Relaxed);
        self.bytes_read
            .fetch_add(stats.bytes_read, Ordering::Relaxed);
        self.page_hits.fetch_add(stats.page_hits, Ordering::Relaxed);
        self.page_misses
            .fetch_add(stats.page_misses, Ordering::Relaxed);
        self.device_bytes_read
            .fetch_add(stats.device_bytes_read, Ordering::Relaxed);
        self.host_bytes_transferred
            .fetch_add(stats.host_bytes_transferred, Ordering::Relaxed);
        self.device_ns.fetch_add(stats.device_ns, Ordering::Relaxed);
    }

    /// The accumulated totals.
    pub fn snapshot(&self) -> StoreStats {
        StoreStats {
            gathers: self.gathers.load(Ordering::Relaxed),
            nodes_gathered: self.nodes_gathered.load(Ordering::Relaxed),
            feature_bytes: self.feature_bytes.load(Ordering::Relaxed),
            pages_read: self.pages_read.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            page_hits: self.page_hits.load(Ordering::Relaxed),
            page_misses: self.page_misses.load(Ordering::Relaxed),
            device_bytes_read: self.device_bytes_read.load(Ordering::Relaxed),
            host_bytes_transferred: self.host_bytes_transferred.load(Ordering::Relaxed),
            device_ns: self.device_ns.load(Ordering::Relaxed),
        }
    }

    /// Zeroes every counter.
    pub fn reset(&self) {
        for c in [
            &self.gathers,
            &self.nodes_gathered,
            &self.feature_bytes,
            &self.pages_read,
            &self.bytes_read,
            &self.page_hits,
            &self.page_misses,
            &self.device_bytes_read,
            &self.host_bytes_transferred,
            &self.device_ns,
        ] {
            c.store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_adds_are_lossless() {
        let acc = std::sync::Arc::new(AtomicStoreStats::default());
        let one = StoreStats {
            gathers: 1,
            nodes_gathered: 2,
            feature_bytes: 3,
            pages_read: 4,
            bytes_read: 5,
            page_hits: 6,
            page_misses: 7,
            device_bytes_read: 8,
            host_bytes_transferred: 9,
            device_ns: 10,
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let acc = std::sync::Arc::clone(&acc);
                s.spawn(move || {
                    for _ in 0..100 {
                        acc.add(&one);
                    }
                });
            }
        });
        let got = acc.snapshot();
        assert_eq!(got.gathers, 800);
        assert_eq!(got.page_misses, 5600);
        acc.reset();
        assert_eq!(acc.snapshot(), StoreStats::default());
    }
}
