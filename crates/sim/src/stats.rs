//! Log-scale histograms for metric collection.

/// A power-of-two bucketed histogram over `u64` values.
///
/// Bucket `i` counts values in `[2^(i-1), 2^i)` with bucket 0 counting the
/// value 0 and 1. Used for degree distributions (paper Fig 13) and latency
/// distributions.
///
/// # Example
///
/// ```
/// use smartsage_sim::Histogram;
/// let mut h = Histogram::new();
/// h.record(1);
/// h.record(5);
/// h.record(5);
/// assert_eq!(h.total(), 3);
/// assert_eq!(h.count_in_bucket(Histogram::bucket_of(5)), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Histogram {
    buckets: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: Vec::new(),
            total: 0,
        }
    }

    /// Index of the bucket holding `value`.
    pub fn bucket_of(value: u64) -> usize {
        if value <= 1 {
            0
        } else {
            64 - (value - 1).leading_zeros() as usize
        }
    }

    /// Lower bound (inclusive) of bucket `i`.
    pub fn bucket_lo(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            (1u64 << (i - 1)) + 1
        }
    }

    /// Upper bound (inclusive) of bucket `i`.
    pub fn bucket_hi(i: usize) -> u64 {
        if i == 0 {
            1
        } else {
            1u64 << i
        }
    }

    /// Records one observation of `value`.
    pub fn record(&mut self, value: u64) {
        let b = Self::bucket_of(value);
        if b >= self.buckets.len() {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.total += 1;
    }

    /// Total number of observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Count in bucket `i` (0 if the bucket was never touched).
    pub fn count_in_bucket(&self, i: usize) -> u64 {
        self.buckets.get(i).copied().unwrap_or(0)
    }

    /// Number of allocated buckets.
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Iterates `(bucket_lo, bucket_hi, count)` over non-empty buckets.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_lo(i), Self::bucket_hi(i), c))
    }

    /// Approximate quantile (by bucket upper bound).
    ///
    /// Returns `None` when the histogram is empty or `q` is outside `[0,1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(Self::bucket_hi(i));
            }
        }
        Some(Self::bucket_hi(self.buckets.len().saturating_sub(1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 0);
        assert_eq!(Histogram::bucket_of(2), 1);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 2);
        assert_eq!(Histogram::bucket_of(5), 3);
        assert_eq!(Histogram::bucket_of(8), 3);
        assert_eq!(Histogram::bucket_of(9), 4);
        for i in 1..10 {
            assert_eq!(Histogram::bucket_of(Histogram::bucket_lo(i)), i);
            assert_eq!(Histogram::bucket_of(Histogram::bucket_hi(i)), i);
        }
    }

    #[test]
    fn histogram_records_and_iterates() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 4, 100, 100] {
            h.record(v);
        }
        assert_eq!(h.total(), 7);
        let entries: Vec<_> = h.iter().collect();
        assert!(!entries.is_empty());
        let total_from_iter: u64 = entries.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(total_from_iter, 7);
    }

    #[test]
    fn histogram_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let median = h.quantile(0.5).unwrap();
        assert!((256..=1024).contains(&median), "median bucket {median}");
        assert!(h.quantile(1.0).unwrap() >= 1000);
        assert_eq!(Histogram::new().quantile(0.5), None);
        assert_eq!(h.quantile(1.5), None);
    }
}
