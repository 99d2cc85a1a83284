//! Order statistics over small samples of repeat measurements.

/// Nearest-rank percentile of an ascending-sorted sample: the smallest
/// value with at least `p` of the sample at or below it. `NaN` on an
/// empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts a sample ascending (total order; the benchmark never records
/// NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median with the mean of the two middle values on even counts, as
/// Python's `statistics.median` computes it. `NaN` on an empty sample.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// What one metric's repeats boil down to: the reported value and the
/// range `--compare` judges a shift against.
///
/// Two estimators fill it. [`Summary::of`] is the plain one: the median
/// with the p10–p90 range. [`Summary::best_of`] is for wall-clock
/// timings on a shared sandbox, where interference is one-sided — a
/// neighbour can only slow a repeat down, and here does so by ±25 % for
/// tens of seconds at a time — so the least disturbed repeat is the
/// steadiest estimate of what the code costs: the value is the best
/// repeat, and the range spans the two best, which says how well that
/// floor is resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// The reported value.
    pub value: f64,
    /// Low end of the range.
    pub lo: f64,
    /// High end of the range.
    pub hi: f64,
    /// Number of repeats behind the value.
    pub n: usize,
}

impl Summary {
    /// Median, with the nearest-rank p10–p90 range (the extremes below
    /// ten samples).
    pub fn of(values: &[f64]) -> Summary {
        let s = sorted(values);
        Summary {
            value: median(values),
            lo: percentile(&s, 0.10),
            hi: percentile(&s, 0.90),
            n: values.len(),
        }
    }

    /// The best repeat (`higher_is_better` picks the end), with the
    /// range spanned by the two best repeats.
    pub fn best_of(values: &[f64], higher_is_better: bool) -> Summary {
        let mut s = sorted(values);
        if higher_is_better {
            s.reverse();
        }
        let best = s.first().copied().unwrap_or(f64::NAN);
        let runner_up = s.get(1).copied().unwrap_or(best);
        Summary {
            value: best,
            lo: best.min(runner_up),
            hi: best.max(runner_up),
            n: values.len(),
        }
    }

    /// For slices whose work differs (a server's requests): the value
    /// one tenth of the way in from the best slice, so a single freak
    /// slice cannot set it; the range runs from the best slice to the
    /// one a fifth of the way in.
    pub fn best_decile(values: &[f64], higher_is_better: bool) -> Summary {
        let mut s = sorted(values);
        if higher_is_better {
            s.reverse();
        }
        let (best, tenth, fifth) = (
            s.first().copied().unwrap_or(f64::NAN),
            percentile(&s, 0.10),
            percentile(&s, 0.20),
        );
        Summary {
            value: tenth,
            lo: best.min(fifth),
            hi: best.max(fifth),
            n: values.len(),
        }
    }

    /// A single exact reading (counts, peak memory): no range.
    pub fn single(value: f64) -> Summary {
        Summary::of(&[value])
    }

    /// `(hi - lo) / |value|`, the relative width of the range.
    pub fn relative_spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.hi - self.lo) / self.value.abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_on_a_known_sample() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.50), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn small_samples_clamp_to_their_extremes() {
        let s = [3.0, 5.0, 9.0];
        assert_eq!(percentile(&s, 0.10), 3.0);
        assert_eq!(percentile(&s, 0.90), 9.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn summary_reports_spread_relative_to_the_median() {
        let s = Summary::of(&[10.0, 12.0, 11.0]);
        assert_eq!((s.value, s.lo, s.hi, s.n), (11.0, 10.0, 12.0, 3));
        assert!((s.relative_spread() - 2.0 / 11.0).abs() < 1e-12);
        assert_eq!(Summary::single(5.0).relative_spread(), 0.0);
        assert_eq!(Summary::single(0.0).relative_spread(), 0.0);
    }

    #[test]
    fn best_of_takes_the_least_disturbed_repeat_and_its_runner_up() {
        // Two quiet repeats and two slowed by a neighbour.
        let times = [3.1, 2.0, 2.04, 2.9];
        let s = Summary::best_of(&times, false);
        assert_eq!((s.value, s.lo, s.hi, s.n), (2.0, 2.0, 2.04, 4));
        assert!((s.relative_spread() - 0.02).abs() < 1e-12);
        let rates = [10.0, 15.0, 14.7];
        let s = Summary::best_of(&rates, true);
        assert_eq!((s.value, s.lo, s.hi), (15.0, 14.7, 15.0));
        assert_eq!(Summary::best_of(&[7.0], true), Summary::single(7.0));
    }

    #[test]
    fn best_decile_steps_in_from_the_best_slice() {
        let rates: Vec<f64> = (1..=20).map(f64::from).collect();
        let s = Summary::best_decile(&rates, true);
        assert_eq!((s.value, s.lo, s.hi, s.n), (19.0, 17.0, 20.0, 20));
        let s = Summary::best_decile(&rates, false);
        assert_eq!((s.value, s.lo, s.hi), (2.0, 1.0, 4.0));
        assert_eq!(Summary::best_decile(&[7.0], false), Summary::single(7.0));
    }
}
