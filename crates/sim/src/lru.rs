//! Generic exact-LRU cache: one linked list, with or without payloads.
//!
//! The simulator's caches (the OS page cache, the direct-I/O scratchpad,
//! the SSD's DRAM page buffer) need residency and eviction order, not
//! payloads: they are [`LruSet`]s — each behind the one [`CountedLru`],
//! which adds the hit/miss counters and the imposed-verdict rule every
//! modeled cache shares. The real caches (the payload page
//! cache's stripes, the ISP row scratchpad) keep a value per resident
//! key: they are [`LruMap`]s. Both are the same structure — `LruSet<K>`
//! is `LruMap<K, ()>` — so a key and its payload are one record and
//! cannot drift apart. O(1) access/insert via a hash map over an
//! intrusive doubly-linked list of slots.

use std::collections::HashMap;
use std::hash::Hash;

const NIL: usize = usize::MAX;

/// An exact-LRU map of keys to payloads with bounded capacity.
///
/// # Example
///
/// ```
/// use smartsage_sim::LruMap;
/// let mut lru = LruMap::new(2);
/// lru.put(1u64, "one");
/// lru.put(2, "two");
/// assert_eq!(lru.get(&1), Some(&"one")); // 1 becomes MRU, 2 is now LRU
/// assert_eq!(lru.put(3, "three"), Some((2, "two")));
/// assert!(lru.contains(&1));
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    capacity: usize,
    map: HashMap<K, usize>,
    keys: Vec<K>,
    values: Vec<V>,
    prev: Vec<usize>,
    next: Vec<usize>,
    head: usize,
    tail: usize,
}

/// An exact-LRU set of keys with bounded capacity: the payload-free
/// case of [`LruMap`].
///
/// # Example
///
/// ```
/// use smartsage_sim::LruSet;
/// let mut lru = LruSet::new(2);
/// lru.insert(1u64);
/// lru.insert(2);
/// assert!(lru.touch(&1)); // 1 becomes MRU, 2 is now LRU
/// assert_eq!(lru.insert(3), Some(2));
/// assert!(lru.contains(&1));
/// ```
pub type LruSet<K> = LruMap<K, ()>;

impl<K: Hash + Eq + Copy> LruSet<K> {
    /// Inserts `key` as MRU; returns the evicted LRU key when full.
    ///
    /// Two audited edge cases (asserted against a naive reference model
    /// in the tests): re-inserting a *resident* key only promotes it —
    /// it never reports a phantom eviction, even at full capacity — and
    /// zero capacity accepts every insert as a no-op.
    pub fn insert(&mut self, key: K) -> Option<K> {
        self.put(key, ()).map(|(victim, ())| victim)
    }
}

/// The one modeled cache: an [`LruSet`] plus the hit/miss counters of
/// its lookups. The SSD's DRAM page buffer, the OS page cache and the
/// direct-I/O scratchpad are this type over their page key.
///
/// # Example
///
/// ```
/// use smartsage_sim::CountedLru;
/// let mut cache = CountedLru::new(2);
/// assert!(!cache.lookup(7u64, None)); // miss: 7 is brought in
/// assert!(cache.lookup(7, None));
/// assert!(!cache.lookup(7, Some(false))); // imposed miss, counted as one
/// assert_eq!((cache.hits(), cache.misses()), (1, 2));
/// ```
#[derive(Debug, Clone)]
pub struct CountedLru<K> {
    keys: LruSet<K>,
    hits: u64,
    misses: u64,
}

impl<K: Hash + Eq + Copy> CountedLru<K> {
    /// Creates a cache holding at most `capacity` keys. Zero capacity
    /// is legal: nothing is retained, every unforced lookup misses.
    pub fn new(capacity: usize) -> Self {
        CountedLru {
            keys: LruSet::new(capacity),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks `key` up and leaves it resident as MRU either way (a miss
    /// brings it in, evicting the LRU key when full). `forced` imposes
    /// the verdict — the full-scale locality model's draw — in place of
    /// the exact residency; the recency update is the same. The verdict
    /// returned is the verdict counted.
    pub fn lookup(&mut self, key: K, forced: Option<bool>) -> bool {
        let resident = self.keys.touch(&key);
        if !resident {
            self.keys.insert(key);
        }
        let hit = forced.unwrap_or(resident);
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// The resident keys (capacity, length, residency and recency
    /// order, none of which a read disturbs).
    pub fn keys(&self) -> &LruSet<K> {
        &self.keys
    }

    /// Hit count since creation/reset.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count since creation/reset.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio over all lookups (0.0 when there were none).
    pub fn hit_ratio(&self) -> f64 {
        match self.hits + self.misses {
            0 => 0.0,
            total => self.hits as f64 / total as f64,
        }
    }

    /// Drops all keys and counters, keeping capacity.
    pub fn reset(&mut self) {
        self.keys.clear();
        self.hits = 0;
        self.misses = 0;
    }
}

impl<K: Hash + Eq + Copy, V> LruMap<K, V> {
    /// Creates a cache holding at most `capacity` keys. Zero capacity is
    /// legal (nothing is ever retained).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            capacity,
            map: HashMap::new(),
            keys: Vec::new(),
            values: Vec::new(),
            prev: Vec::new(),
            next: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Maximum number of resident keys.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of resident keys.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Returns `true` and promotes `key` to MRU if resident.
    pub fn touch(&mut self, key: &K) -> bool {
        self.get(key).is_some()
    }

    /// The payload of `key`, promoting it to MRU, if resident.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.map.get(key)?;
        self.promote(slot);
        Some(&self.values[slot])
    }

    /// Residency check without recency side effects.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts `key` with `value` as MRU; returns the evicted LRU
    /// record when full. A resident key is promoted and its payload
    /// replaced (no eviction); zero capacity accepts every insert as a
    /// no-op.
    pub fn put(&mut self, key: K, value: V) -> Option<(K, V)> {
        if self.capacity == 0 {
            return None;
        }
        if let Some(&slot) = self.map.get(&key) {
            self.promote(slot);
            self.values[slot] = value;
            return None;
        }
        if self.map.len() >= self.capacity {
            // Full: the LRU slot is recycled in place for the new key.
            let slot = self.tail;
            debug_assert_ne!(slot, NIL);
            let victim = std::mem::replace(&mut self.keys[slot], key);
            let payload = std::mem::replace(&mut self.values[slot], value);
            self.map.remove(&victim);
            self.map.insert(key, slot);
            self.promote(slot);
            return Some((victim, payload));
        }
        let slot = self.keys.len();
        self.keys.push(key);
        self.values.push(value);
        self.prev.push(NIL);
        self.next.push(NIL);
        self.map.insert(key, slot);
        self.push_front(slot);
        None
    }

    /// The key that would be evicted next (the least-recently used), if
    /// any.
    pub fn lru_key(&self) -> Option<K> {
        (self.tail != NIL).then(|| self.keys[self.tail])
    }

    /// All resident keys in recency order, most-recently used first.
    /// The last element is the next eviction victim. O(len); intended
    /// for tests and introspection, not hot paths.
    pub fn keys_mru_first(&self) -> Vec<K> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut slot = self.head;
        while slot != NIL {
            out.push(self.keys[slot]);
            slot = self.next[slot];
        }
        out
    }

    /// Clears all entries, keeping capacity.
    pub fn clear(&mut self) {
        self.map.clear();
        self.keys.clear();
        self.values.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Moves a linked slot to the MRU end.
    fn promote(&mut self, slot: usize) {
        self.unlink(slot);
        self.push_front(slot);
    }

    fn unlink(&mut self, slot: usize) {
        let p = self.prev[slot];
        let n = self.next[slot];
        if p != NIL {
            self.next[p] = n;
        } else if self.head == slot {
            self.head = n;
        }
        if n != NIL {
            self.prev[n] = p;
        } else if self.tail == slot {
            self.tail = p;
        }
        self.prev[slot] = NIL;
        self.next[slot] = NIL;
    }

    fn push_front(&mut self, slot: usize) {
        self.prev[slot] = NIL;
        self.next[slot] = self.head;
        if self.head != NIL {
            self.prev[self.head] = slot;
        }
        self.head = slot;
        if self.tail == NIL {
            self.tail = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eviction_follows_recency() {
        let mut l = LruSet::new(3);
        l.insert('a');
        l.insert('b');
        l.insert('c');
        assert!(l.touch(&'a'));
        assert_eq!(l.insert('d'), Some('b'));
        assert!(l.contains(&'a') && l.contains(&'c') && l.contains(&'d'));
    }

    #[test]
    fn capacity_is_bounded() {
        let mut l = LruSet::new(5);
        for i in 0..100u32 {
            l.insert(i);
            assert!(l.len() <= 5);
        }
        for i in 95..100u32 {
            assert!(l.contains(&i));
        }
    }

    #[test]
    fn zero_capacity_retains_nothing() {
        let mut l = LruSet::new(0);
        assert_eq!(l.insert(1u8), None);
        assert!(!l.contains(&1));
        assert!(l.is_empty());
    }

    #[test]
    fn reinsert_promotes() {
        let mut l = LruSet::new(2);
        l.insert(1u8);
        l.insert(2);
        l.insert(1); // promote, not duplicate
        assert_eq!(l.len(), 2);
        assert_eq!(l.insert(3), Some(2));
    }

    #[test]
    fn clear_then_reuse() {
        let mut l = LruSet::new(2);
        l.insert(1u8);
        l.clear();
        assert!(l.is_empty());
        l.insert(2);
        assert!(l.contains(&2));
        assert_eq!(l.capacity(), 2);
    }

    #[test]
    fn slot_recycling_is_sound() {
        // Interleave insert/evict heavily to exercise the free list.
        let mut l = LruSet::new(4);
        for i in 0..1000u32 {
            l.insert(i % 16);
            assert!(l.len() <= 4);
        }
    }

    #[test]
    fn recency_order_is_exact() {
        let mut l = LruSet::new(4);
        for k in ['a', 'b', 'c', 'd'] {
            l.insert(k);
        }
        assert_eq!(l.keys_mru_first(), ['d', 'c', 'b', 'a']);
        assert_eq!(l.lru_key(), Some('a'));
        // A touch moves exactly one key to the front, preserving the
        // relative order of the rest.
        assert!(l.touch(&'b'));
        assert_eq!(l.keys_mru_first(), ['b', 'd', 'c', 'a']);
        // A promote-by-reinsert behaves identically to a touch.
        l.insert('c');
        assert_eq!(l.keys_mru_first(), ['c', 'b', 'd', 'a']);
        assert_eq!(l.lru_key(), Some('a'));
    }

    #[test]
    fn eviction_sequence_follows_recency_exactly() {
        // Fill, then keep inserting fresh keys: victims must come out in
        // precisely least-recently-used order.
        let mut l = LruSet::new(3);
        l.insert(0u32);
        l.insert(1);
        l.insert(2);
        l.touch(&0); // order (MRU..LRU): 0, 2, 1
        let mut evicted = Vec::new();
        for k in 100..105u32 {
            if let Some(v) = l.insert(k) {
                evicted.push(v);
            }
        }
        // First two victims are the pre-existing keys in LRU order (1,
        // then 2, then the promoted 0), then the fresh keys age out in
        // insertion order.
        assert_eq!(evicted, [1, 2, 0, 100, 101]);
    }

    #[test]
    fn untouched_set_reports_no_order() {
        let l: LruSet<u8> = LruSet::new(2);
        assert_eq!(l.lru_key(), None);
        assert!(l.keys_mru_first().is_empty());
    }

    #[test]
    fn resident_reinsert_at_full_capacity_reports_no_phantom_eviction() {
        let mut l = LruSet::new(2);
        l.insert(1u8);
        l.insert(2);
        // The set is full and 1 is resident: re-inserting it must only
        // promote — nothing may be evicted, nothing may be reported.
        assert_eq!(l.insert(1), None);
        assert_eq!(l.len(), 2);
        assert_eq!(l.keys_mru_first(), [1, 2]);
        // The list must still be walkable in both directions (no
        // corruption): a touch of the tail works and reorders.
        assert!(l.touch(&2));
        assert_eq!(l.keys_mru_first(), [2, 1]);
    }

    #[test]
    fn zero_capacity_survives_repeated_inserts_and_touches() {
        let mut l = LruSet::new(0);
        for i in 0..10u8 {
            assert_eq!(l.insert(i), None, "zero capacity never evicts");
            assert_eq!(l.insert(i), None, "not even on re-insert");
            assert!(!l.touch(&i));
        }
        assert!(l.is_empty());
        assert_eq!(l.lru_key(), None);
    }

    #[test]
    fn counted_lookup_misses_bring_the_key_in_and_evict_by_recency() {
        let mut c = CountedLru::new(2);
        assert!(!c.lookup(1u64, None));
        assert!(c.lookup(1, None));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert_eq!(c.hit_ratio(), 0.5);
        assert!(!c.lookup(2, None));
        assert!(c.lookup(1, None)); // 2 is now LRU
        assert!(!c.lookup(3, None)); // evicts 2
        assert_eq!(c.keys().keys_mru_first(), [3, 1]);
        assert!(!c.lookup(2, None), "the evicted key misses again");
        assert_eq!(c.keys().len(), 2);
    }

    #[test]
    fn counted_zero_capacity_never_holds_and_never_hits() {
        let mut c = CountedLru::new(0);
        for _ in 0..3 {
            assert!(!c.lookup(1u64, None));
        }
        assert!(c.keys().is_empty());
        assert_eq!((c.hits(), c.misses()), (0, 3));
        // An imposed hit is still answered and counted; nothing is held.
        assert!(c.lookup(1, Some(true)));
        assert!(c.keys().is_empty());
        assert_eq!(c.hits(), 1);
    }

    #[test]
    fn counted_reset_drops_keys_and_counters_and_keeps_capacity() {
        let mut c = CountedLru::new(2);
        c.lookup(1u64, None);
        c.lookup(1, None);
        c.reset();
        assert!(c.keys().is_empty());
        assert_eq!((c.hits(), c.misses()), (0, 0));
        assert_eq!(c.hit_ratio(), 0.0);
        assert_eq!(c.keys().capacity(), 2);
        assert!(!c.lookup(1, None), "cold after reset");
        assert!(c.lookup(1, None), "and usable");
    }

    #[test]
    fn counted_forced_lookups_count_the_verdict_and_order_like_plain_inserts() {
        // Keys repeat, so imposed misses land on resident keys and
        // imposed hits on absent ones: the counters must follow the
        // imposed verdicts, never the residency underneath.
        let sequence = [
            (1u64, true),
            (2, false),
            (1, false), // resident, imposed miss
            (3, true),  // absent, imposed hit; evicts 2
            (3, false),
            (4, true), // evicts 1
        ];
        let mut c = CountedLru::new(2);
        let mut plain = LruSet::new(2);
        for (key, verdict) in sequence {
            assert_eq!(c.lookup(key, Some(verdict)), verdict);
            plain.insert(key);
            assert_eq!(c.keys().keys_mru_first(), plain.keys_mru_first());
        }
        assert_eq!((c.hits(), c.misses()), (3, 3));
        // Residency left behind by forced lookups is real: an unforced
        // lookup afterwards sees it.
        assert!(c.lookup(3, None));
        assert!(!c.lookup(1, None));
    }

    /// Naive reference model: a `Vec` of records in MRU-first order with
    /// O(n) ops. Deliberately too slow to ship and too simple to be
    /// wrong.
    struct NaiveLru<V> {
        capacity: usize,
        order: Vec<(u8, V)>, // MRU first
    }

    impl<V> NaiveLru<V> {
        fn get(&mut self, key: u8) -> Option<&V> {
            let i = self.order.iter().position(|(k, _)| *k == key)?;
            let record = self.order.remove(i);
            self.order.insert(0, record);
            Some(&self.order[0].1)
        }

        fn put(&mut self, key: u8, value: V) -> Option<(u8, V)> {
            if self.capacity == 0 {
                return None;
            }
            if self.get(key).is_some() {
                self.order[0].1 = value;
                return None;
            }
            let evicted = if self.order.len() >= self.capacity {
                self.order.pop()
            } else {
                None
            };
            self.order.insert(0, (key, value));
            evicted
        }

        fn keys(&self) -> Vec<u8> {
            self.order.iter().map(|(k, _)| *k).collect()
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The audited implementation agrees with the naive model on
        /// every observable after every interleaving of insert/touch
        /// (eviction is exercised implicitly by small capacities).
        #[test]
        fn lru_set_matches_naive_reference_model(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u8..2, 0u8..8), 1..120),
        ) {
            use proptest::prelude::*;
            let mut real = LruSet::new(capacity);
            let mut model = NaiveLru { capacity, order: Vec::new() };
            for (op, key) in ops {
                match op {
                    0 => prop_assert_eq!(real.insert(key), model.put(key, ()).map(|(k, ())| k)),
                    _ => prop_assert_eq!(real.touch(&key), model.get(key).is_some()),
                }
                prop_assert_eq!(real.len(), model.order.len());
                prop_assert_eq!(&real.keys_mru_first(), &model.keys());
                prop_assert_eq!(real.lru_key(), model.keys().last().copied());
                for k in 0..8u8 {
                    prop_assert_eq!(real.contains(&k), model.keys().contains(&k));
                }
            }
        }

        /// The same, with payloads: each put carries its op index, so a
        /// refreshed, evicted or slot-recycled record that kept a stale
        /// payload is seen by the next get of that key.
        #[test]
        fn lru_map_matches_naive_reference_model_with_payloads(
            capacity in 0usize..6,
            ops in proptest::collection::vec((0u8..2, 0u8..8), 1..120),
        ) {
            use proptest::prelude::*;
            let mut real = LruMap::new(capacity);
            let mut model = NaiveLru { capacity, order: Vec::new() };
            for (i, (op, key)) in ops.into_iter().enumerate() {
                match op {
                    0 => prop_assert_eq!(real.put(key, i), model.put(key, i)),
                    _ => prop_assert_eq!(real.get(&key), model.get(key)),
                }
                prop_assert_eq!(real.len(), model.order.len());
                prop_assert_eq!(&real.keys_mru_first(), &model.keys());
            }
            // Every resident key still maps to the payload last put
            // under it.
            for (key, value) in model.order.clone() {
                prop_assert_eq!(real.get(&key), Some(&value));
            }
        }
    }
}
