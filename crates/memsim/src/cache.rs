//! Set-associative LLC model.
//!
//! A classic tag-array simulation: physical addresses map to sets by
//! line-index bits; each set is the workspace's one exact LRU
//! ([`smartsage_sim::CountedLru`]) over `associativity` line tags, so
//! replacement is true LRU and a set counts its own hits and misses.
//! Only residency is tracked (no data), which is all miss rates need.

use smartsage_sim::CountedLru;

/// Geometry of the simulated cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Ways per set.
    pub associativity: usize,
    /// Line size in bytes (must be a power of two).
    pub line_bytes: u64,
}

impl Default for CacheParams {
    /// Xeon Gold 6242-class LLC: 22 MiB, 11-way, 64 B lines.
    fn default() -> Self {
        CacheParams {
            capacity_bytes: 22 * 1024 * 1024,
            associativity: 11,
            line_bytes: 64,
        }
    }
}

impl CacheParams {
    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.line_bytes * self.associativity as u64)).max(1) as usize
    }
}

/// A set-associative cache with true LRU replacement.
///
/// # Example
///
/// ```
/// use smartsage_memsim::{CacheParams, SetAssocCache};
/// let mut c = SetAssocCache::new(CacheParams {
///     capacity_bytes: 4096,
///     associativity: 2,
///     line_bytes: 64,
/// });
/// assert!(!c.access(0));     // cold miss
/// assert!(c.access(32));     // same line: hit
/// assert_eq!(c.misses(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    params: CacheParams,
    /// One LRU of line tags per set.
    sets: Vec<CountedLru<u64>>,
}

impl SetAssocCache {
    /// Builds the cache.
    ///
    /// # Panics
    ///
    /// Panics if the line size is not a power of two or associativity is 0.
    pub fn new(params: CacheParams) -> Self {
        assert!(
            params.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(params.associativity > 0, "associativity must be positive");
        SetAssocCache {
            params,
            sets: vec![CountedLru::new(params.associativity); params.num_sets()],
        }
    }

    /// The cache geometry.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Accesses the line containing `addr`; returns `true` on hit.
    /// Misses allocate (fill) the line, evicting the set's LRU way.
    pub fn access(&mut self, addr: u64) -> bool {
        let line = addr / self.params.line_bytes;
        let sets = self.sets.len() as u64;
        self.sets[(line % sets) as usize].lookup(line / sets, None)
    }

    /// Accesses a byte range, touching every line it spans. Returns the
    /// number of missing lines.
    pub fn access_range(&mut self, addr: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let first = addr / self.params.line_bytes;
        let last = (addr + bytes - 1) / self.params.line_bytes;
        let mut missed = 0;
        for line in first..=last {
            if !self.access(line * self.params.line_bytes) {
                missed += 1;
            }
        }
        missed
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.sets.iter().map(CountedLru::hits).sum()
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.sets.iter().map(CountedLru::misses).sum()
    }

    /// Miss rate over all accesses (0.0 when untouched).
    pub fn miss_rate(&self) -> f64 {
        let (hits, misses) = (self.hits(), self.misses());
        if hits + misses == 0 {
            0.0
        } else {
            misses as f64 / (hits + misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> SetAssocCache {
        // 2 sets x 2 ways x 64B = 256B.
        SetAssocCache::new(CacheParams {
            capacity_bytes: 256,
            associativity: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn geometry() {
        let c = tiny();
        assert_eq!(c.params().num_sets(), 2);
    }

    #[test]
    fn spatial_locality_hits_within_a_line() {
        let mut c = tiny();
        assert!(!c.access(0));
        for offset in 1..64 {
            assert!(c.access(offset), "offset {offset} shares the line");
        }
        assert_eq!(c.misses(), 1);
        assert_eq!(c.hits(), 63);
    }

    #[test]
    fn conflict_misses_within_a_set() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even line numbers).
        assert!(!c.access(0));
        assert!(!c.access(2 * 64));
        assert!(!c.access(4 * 64)); // evicts line 0 (LRU)
        assert!(!c.access(0), "line 0 must have been evicted");
        // Line 2*64 was LRU after the previous access evicted line 0? No:
        // after access(4*64), set holds {2,4}; access(0) evicts 2.
        assert!(c.access(4 * 64));
    }

    #[test]
    fn lru_respects_recency() {
        let mut c = tiny();
        c.access(0); // set0: {0}
        c.access(2 * 64); // set0: {0,2}
        c.access(0); // touch 0 -> 2 is LRU
        c.access(4 * 64); // evicts 2
        assert!(c.access(0), "0 must survive");
        assert!(!c.access(2 * 64), "2 must have been evicted");
    }

    #[test]
    fn access_range_spans_lines() {
        let mut c = tiny();
        let missed = c.access_range(60, 8); // straddles lines 0 and 1
        assert_eq!(missed, 2);
        assert_eq!(c.access_range(60, 8), 0);
        assert_eq!(c.access_range(0, 0), 0);
    }

    #[test]
    fn huge_random_stream_misses_mostly() {
        use smartsage_sim::Xoshiro256;
        let mut c = SetAssocCache::new(CacheParams::default());
        let mut rng = Xoshiro256::seed_from_u64(1);
        // 1 GB working set >> 22 MiB cache: expect high miss rate.
        for _ in 0..200_000 {
            c.access(rng.range_u64(1 << 30));
        }
        assert!(c.miss_rate() > 0.9, "miss rate {}", c.miss_rate());
    }

    #[test]
    fn small_working_set_hits_after_warmup() {
        let mut c = SetAssocCache::new(CacheParams::default());
        for round in 0..3 {
            for addr in (0..1_000_000u64).step_by(64) {
                let hit = c.access(addr);
                if round > 0 {
                    assert!(hit, "1 MB working set must fit in 22 MiB LLC");
                }
            }
        }
    }
}
