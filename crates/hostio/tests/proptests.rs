//! Property tests for the host I/O stack: cache conservation, coalescing
//! arithmetic, and the Che-approximation's analytic guarantees.

use proptest::prelude::*;
use smartsage_hostio::coalesce::CoalescingPlan;
use smartsage_hostio::locality::{lru_hit_rate, PopularityBucket};
use smartsage_hostio::{LruSet, ShardedPageCache};
use smartsage_sim::CountedLru;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The model page cache (and scratchpad, and SSD page buffer — all
    /// one `CountedLru`): every lookup is counted once, as the verdict
    /// it returned, imposed or exact, and residency stays in capacity.
    #[test]
    fn page_cache_accounting_is_conserved(
        capacity_pages in 0usize..64,
        accesses in proptest::collection::vec((0u64..200, 0u8..3), 1..300),
    ) {
        let mut cache = CountedLru::new(capacity_pages);
        let mut hits = 0;
        let mut imposed_hits = 0;
        for &(page, verdict) in &accesses {
            let forced = [None, Some(false), Some(true)][verdict as usize];
            let hit = cache.lookup(page, forced);
            if let Some(imposed) = forced {
                prop_assert_eq!(hit, imposed, "an imposed verdict is the answer");
            }
            hits += hit as u64;
            imposed_hits += (forced == Some(true)) as u64;
            prop_assert!(cache.keys().len() <= capacity_pages);
            prop_assert_eq!(cache.keys().contains(&page), capacity_pages > 0);
        }
        prop_assert_eq!(cache.hits(), hits);
        prop_assert_eq!(cache.hits() + cache.misses(), accesses.len() as u64);
        if capacity_pages == 0 {
            prop_assert_eq!(cache.hits(), imposed_hits);
        }
    }

    #[test]
    fn lru_touch_insert_agree(
        capacity in 1usize..32,
        keys in proptest::collection::vec(0u32..64, 1..200),
    ) {
        let mut lru = LruSet::new(capacity);
        for &k in &keys {
            let was_resident = lru.contains(&k);
            prop_assert_eq!(lru.touch(&k), was_resident);
            lru.insert(k);
            prop_assert!(lru.contains(&k), "inserted key must be resident");
        }
    }

    /// One stripe of the payload cache against the naive reference: a
    /// `Vec` of `(page, payload)` records, MRU first. Hits, the payload
    /// a hit returns (each insert carries its op index, so a stale one
    /// shows), eviction victims and occupancy all agree.
    #[test]
    fn payload_cache_stripe_matches_a_naive_record_list(
        capacity in 0usize..6,
        ops in proptest::collection::vec((0u8..2, 0u64..8), 1..120),
    ) {
        let cache = ShardedPageCache::new(capacity, 1);
        let mut model: Vec<(u64, u8)> = Vec::new();
        for (i, (op, page)) in ops.into_iter().enumerate() {
            let resident = model.iter().position(|&(p, _)| p == page);
            if op == 0 {
                let payload = i as u8;
                cache.insert(page, vec![payload].into());
                if capacity > 0 {
                    match resident {
                        Some(at) => drop(model.remove(at)),
                        None if model.len() == capacity => drop(model.pop()),
                        None => {}
                    }
                    model.insert(0, (page, payload));
                }
            } else {
                let want = resident.map(|at| {
                    let record = model.remove(at);
                    model.insert(0, record);
                    vec![record.1]
                });
                prop_assert_eq!(cache.get(page).map(|p| p.to_vec()), want);
            }
            prop_assert_eq!(cache.occupancy(), vec![model.len()]);
            for p in 0..8u64 {
                prop_assert_eq!(cache.contains(p), model.iter().any(|&(q, _)| q == p));
            }
        }
    }

    #[test]
    fn coalescing_conserves_targets(
        batch in 1u32..2048,
        granularity in 1u32..2048,
    ) {
        let plan = CoalescingPlan::new(batch, granularity);
        let total: u32 = (0..plan.commands).map(|i| plan.targets_of(i)).sum();
        prop_assert_eq!(total, batch);
        for i in 0..plan.commands {
            prop_assert!(plan.targets_of(i) <= granularity);
            prop_assert!(plan.targets_of(i) > 0);
        }
    }

    #[test]
    fn che_hit_rate_is_a_monotone_probability(
        objects in 100.0f64..100_000.0,
        weight_hot in 1.0f64..50.0,
        bytes in 64.0f64..8192.0,
    ) {
        let buckets = vec![
            PopularityBucket { objects: objects * 0.1, weight: weight_hot, bytes_per_object: bytes },
            PopularityBucket { objects: objects * 0.9, weight: 1.0, bytes_per_object: bytes },
        ];
        let total_bytes = objects * bytes;
        let mut prev = 0.0;
        for frac in [0.0, 0.1, 0.3, 0.6, 1.0] {
            // Round capacity up so "full coverage" is not truncated one
            // byte short of the population.
            let hr = lru_hit_rate(&buckets, (total_bytes * frac).ceil() as u64);
            prop_assert!((0.0..=1.0).contains(&hr), "hit rate {hr}");
            prop_assert!(hr + 1e-9 >= prev, "not monotone at {frac}");
            prev = hr;
        }
        prop_assert!((prev - 1.0).abs() < 1e-9, "full coverage must hit 1.0");
    }
}
