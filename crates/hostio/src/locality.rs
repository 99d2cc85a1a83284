//! Full-scale cache-locality estimation (Che's approximation).
//!
//! The experiments materialize *scaled-down* graphs (a few hundred
//! thousand edges), but cache behaviour must reflect the dataset's *true*
//! size: at full scale, Reddit-large's 431 GB edge-list array dwarfs a
//! 192 GB page cache, while a scaled copy would fit entirely — wildly
//! overstating locality. We therefore compute the hit rate an LRU cache
//! of the real capacity would achieve against the real population, using
//! **Che's approximation** [Che et al., 2002], and impose that probability
//! on the exact cache models: each lookup carries a verdict drawn at
//! that rate (`smartsage_sim::CountedLru::lookup`'s `forced`), which
//! the cache answers and counts while still tracking residency.
//!
//! Popularity is degree-weighted: sampling touches a node's edge list
//! when the node is drawn as a neighbor, which happens in proportion to
//! its (in-)degree; the degree histogram of the materialized graph
//! supplies the distribution *shape*, extrapolated to the full node
//! count.

use smartsage_graph::CsrGraph;

/// One popularity class: `objects` objects, each accessed with relative
/// `weight` and occupying `bytes_per_object` of cache.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PopularityBucket {
    /// Number of objects in this class.
    pub objects: f64,
    /// Relative access weight per object (need not be normalized).
    pub weight: f64,
    /// Cache footprint per object in bytes.
    pub bytes_per_object: f64,
}

/// Estimates the steady-state hit rate of an LRU cache of
/// `capacity_bytes` under independent-reference accesses drawn from
/// `buckets`, via Che's approximation.
///
/// Returns a value in `[0, 1]`. A capacity covering the whole population
/// returns 1.0; zero capacity (or an empty population) returns 0.0.
pub fn lru_hit_rate(buckets: &[PopularityBucket], capacity_bytes: u64) -> f64 {
    let total_weight: f64 = buckets.iter().map(|b| b.objects * b.weight).sum();
    let total_bytes: f64 = buckets.iter().map(|b| b.objects * b.bytes_per_object).sum();
    if total_weight <= 0.0 || total_bytes <= 0.0 || capacity_bytes == 0 {
        return 0.0;
    }
    let cap = capacity_bytes as f64;
    if cap >= total_bytes {
        return 1.0;
    }
    // Bytes resident at characteristic time T:
    //   B(T) = Σ n_i * s_i * (1 - exp(-p_i * T)),  p_i = w_i / W.
    // B is increasing in T; bisect for B(T) = cap.
    let occupied = |t: f64| -> f64 {
        buckets
            .iter()
            .map(|b| {
                let p = b.weight / total_weight;
                b.objects * b.bytes_per_object * (1.0 - (-p * t).exp())
            })
            .sum()
    };
    let mut lo = 0.0f64;
    // Upper bound: T where even the rarest class is mostly resident.
    let min_p = buckets
        .iter()
        .filter(|b| b.objects > 0.0 && b.weight > 0.0)
        .map(|b| b.weight / total_weight)
        .fold(f64::INFINITY, f64::min);
    let mut hi = if min_p.is_finite() && min_p > 0.0 {
        40.0 / min_p
    } else {
        1e18
    };
    // Ensure the bracket covers the target.
    while occupied(hi) < cap && hi < 1e300 {
        hi *= 2.0;
    }
    for _ in 0..200 {
        let mid = 0.5 * (lo + hi);
        if occupied(mid) < cap {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let t = 0.5 * (lo + hi);
    let hit: f64 = buckets
        .iter()
        .map(|b| {
            let p = b.weight / total_weight;
            b.objects * p * (1.0 - (-p * t).exp())
        })
        .sum();
    hit.clamp(0.0, 1.0)
}

/// Builds degree-class popularity buckets from a materialized graph,
/// extrapolated to `full_nodes` objects. `object_bytes` maps a node's
/// degree to its cache footprint (e.g., edge-list chunk rounded to
/// blocks).
pub fn degree_buckets(
    graph: &CsrGraph,
    full_nodes: u64,
    object_bytes: impl Fn(u64) -> u64,
) -> Vec<PopularityBucket> {
    use std::collections::BTreeMap;
    // Power-of-two degree classes: (bucket index) -> (count, degree sum).
    let mut classes: BTreeMap<u32, (u64, u128)> = BTreeMap::new();
    for node in graph.node_ids() {
        let d = graph.degree(node);
        let class = 64 - d.leading_zeros();
        let e = classes.entry(class).or_insert((0, 0));
        e.0 += 1;
        e.1 += d as u128;
    }
    let scale = full_nodes as f64 / graph.num_nodes().max(1) as f64;
    classes
        .into_iter()
        .map(|(_, (count, dsum))| {
            let mean_degree = (dsum as f64 / count as f64).max(0.0);
            PopularityBucket {
                objects: count as f64 * scale,
                // Access weight ∝ degree + 1 (uniform target draw floor).
                weight: mean_degree + 1.0,
                bytes_per_object: object_bytes(mean_degree.round() as u64) as f64,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use smartsage_graph::generate::{generate_power_law, PowerLawConfig};

    fn uniform(objects: f64, bytes: f64) -> Vec<PopularityBucket> {
        vec![PopularityBucket {
            objects,
            weight: 1.0,
            bytes_per_object: bytes,
        }]
    }

    #[test]
    fn uniform_population_hit_rate_equals_coverage() {
        // For equal popularity, LRU hit rate ≈ cache fraction.
        let buckets = uniform(1_000_000.0, 4096.0);
        for frac in [0.1, 0.3, 0.5, 0.9] {
            let cap = (1_000_000.0 * 4096.0 * frac) as u64;
            let hr = lru_hit_rate(&buckets, cap);
            assert!((hr - frac).abs() < 0.05, "coverage {frac}: hit rate {hr}");
        }
    }

    #[test]
    fn full_coverage_hits_everything() {
        let buckets = uniform(1000.0, 100.0);
        assert_eq!(lru_hit_rate(&buckets, 100_000), 1.0);
        assert_eq!(lru_hit_rate(&buckets, 1_000_000), 1.0);
    }

    #[test]
    fn zero_capacity_hits_nothing() {
        let buckets = uniform(1000.0, 100.0);
        assert_eq!(lru_hit_rate(&buckets, 0), 0.0);
        assert_eq!(lru_hit_rate(&[], 1000), 0.0);
    }

    #[test]
    fn skew_beats_uniform_at_equal_capacity() {
        // A hot class (10% of objects, 10x weight) should push the hit
        // rate above the uniform baseline at the same capacity.
        let uniform_buckets = uniform(1_000_000.0, 4096.0);
        let skewed = vec![
            PopularityBucket {
                objects: 100_000.0,
                weight: 10.0,
                bytes_per_object: 4096.0,
            },
            PopularityBucket {
                objects: 900_000.0,
                weight: 1.0,
                bytes_per_object: 4096.0,
            },
        ];
        let cap = (1_000_000.0f64 * 4096.0 * 0.2) as u64;
        let hr_u = lru_hit_rate(&uniform_buckets, cap);
        let hr_s = lru_hit_rate(&skewed, cap);
        assert!(hr_s > hr_u + 0.05, "skewed {hr_s} vs uniform {hr_u}");
    }

    #[test]
    fn hit_rate_is_monotone_in_capacity() {
        let buckets = vec![
            PopularityBucket {
                objects: 10_000.0,
                weight: 50.0,
                bytes_per_object: 8192.0,
            },
            PopularityBucket {
                objects: 990_000.0,
                weight: 1.0,
                bytes_per_object: 512.0,
            },
        ];
        let mut prev = 0.0;
        for frac in [0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0] {
            let total: f64 = buckets.iter().map(|b| b.objects * b.bytes_per_object).sum();
            let hr = lru_hit_rate(&buckets, (total * frac) as u64);
            assert!(hr + 1e-9 >= prev, "hit rate not monotone at {frac}");
            prev = hr;
        }
        assert!((prev - 1.0).abs() < 1e-9);
    }

    #[test]
    fn degree_buckets_extrapolate_population() {
        let g = generate_power_law(&PowerLawConfig {
            nodes: 2_000,
            avg_degree: 8.0,
            seed: 13,
            ..PowerLawConfig::default()
        });
        let buckets = degree_buckets(&g, 2_000_000, |d| (d * 8).max(1));
        let total_objects: f64 = buckets.iter().map(|b| b.objects).sum();
        assert!(
            (total_objects - 2_000_000.0).abs() / 2_000_000.0 < 1e-6,
            "extrapolated objects {total_objects}"
        );
        // Higher-degree classes must carry higher weight.
        for w in buckets.windows(2) {
            assert!(w[1].weight > w[0].weight);
        }
    }

    #[test]
    fn realistic_page_cache_scenario() {
        // Reddit-large shape: cache covers ~45% of bytes; degree skew
        // should give a hit rate above 45% but below ~85%.
        let g = generate_power_law(&PowerLawConfig {
            nodes: 5_000,
            avg_degree: 64.0,
            exponent: 2.1,
            communities: 1,
            homophily: 0.0,
            seed: 5,
        });
        let buckets = degree_buckets(&g, 37_300_000, |d| ((d * 8).div_ceil(4096).max(1)) * 4096);
        let total: f64 = buckets.iter().map(|b| b.objects * b.bytes_per_object).sum();
        let hr = lru_hit_rate(&buckets, (total * 0.45) as u64);
        assert!(hr > 0.45, "hit rate {hr} should exceed raw coverage");
        assert!(hr < 0.9, "hit rate {hr} suspiciously high");
    }
}
