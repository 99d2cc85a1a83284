//! A sorted-distinct integer set that knows each member's position.
//!
//! The paged read path lists the pages a read touches, walks them as
//! ascending runs and finds each staged page by its position among
//! them; a sampled batch lists its distinct nodes. Those lists are
//! usually **dense** in their span — a batch's pages and nodes cluster
//! — and then a [`RankSet`] is a bitmap over the span: built in two
//! passes over the list without a comparison sort or a copy, walked in
//! order, and a member's rank (how many members are smaller) is one
//! word lookup and one popcount. A list spread thinly over a wide span
//! (a few hundred ids out of a large graph) is kept as a sorted list
//! searched by bisection, so the set never allocates by value.

use std::ops::RangeInclusive;

/// A set of `u64`s built once from a list, iterated ascending, with
/// [`RankSet::rank`] in O(1) when the list is dense in its span.
///
/// The representation is chosen from the list alone: if its span
/// (`max - min + 1`) is at most 64 × its length (repeats included),
/// the set is a bitmap over the span plus one `u32` member count per
/// 64-bit word — at most 12 bytes per listed value, whatever the
/// values are. Otherwise it is the list itself, collected once, sorted
/// unless it is ascending already, and deduplicated.
///
/// # Example
///
/// ```
/// use smartsage_sim::RankSet;
/// let set = RankSet::new([7, 3, 4, 4, 9, 8]);
/// assert_eq!(set.len(), 5);
/// assert_eq!(set.iter().collect::<Vec<_>>(), [3, 4, 7, 8, 9]);
/// assert_eq!(set.runs().collect::<Vec<_>>(), [3..=4, 7..=9]);
/// assert_eq!(set.rank(7), 2); // 3 and 4 are smaller
/// assert_eq!(set.rank(100), 5);
/// ```
#[derive(Debug, Clone)]
pub struct RankSet {
    repr: Repr,
}

#[derive(Debug, Clone)]
enum Repr {
    /// Member `v` is bit `v - base` of `words`; `ranks[w]` counts the
    /// members in the words before `w`.
    Dense {
        base: u64,
        words: Vec<u64>,
        ranks: Vec<u32>,
        len: usize,
    },
    /// The members, ascending and distinct.
    Sparse(Vec<u64>),
}

impl RankSet {
    /// The set of the values `values` yields, in any order and with
    /// repeats. The list is walked twice when it is dense, so a caller
    /// hands over how to produce it rather than a copy of it.
    pub fn new<I>(values: I) -> RankSet
    where
        I: IntoIterator<Item = u64>,
        I::IntoIter: Clone,
    {
        // Both walks are internal (`for_each`): a caller's list is often
        // a nested `flat_map`, which a `for` loop pays per value to step.
        let values = values.into_iter();
        let (mut len, mut min, mut max, mut last, mut ascending) = (0usize, u64::MAX, 0, 0, true);
        values.clone().for_each(|v| {
            (len, min, max) = (len + 1, min.min(v), max.max(v));
            (last, ascending) = (v, ascending && last <= v);
        });
        if len > 0 && (max - min) / 64 < len as u64 && u32::try_from(len).is_ok() {
            let words = ((max - min) / 64 + 1) as usize;
            return RankSet::dense(min, words, values);
        }
        let mut list = Vec::with_capacity(len);
        list.extend(values);
        if !ascending {
            list.sort_unstable();
        }
        list.dedup();
        RankSet {
            repr: Repr::Sparse(list),
        }
    }

    fn dense(base: u64, words: usize, values: impl Iterator<Item = u64>) -> RankSet {
        let mut bits = vec![0u64; words];
        values.for_each(|v| {
            let offset = v - base;
            bits[(offset / 64) as usize] |= 1 << (offset % 64);
        });
        let mut len = 0u32;
        let ranks = bits
            .iter()
            .map(|word| {
                let before = len;
                len += word.count_ones();
                before
            })
            .collect();
        RankSet {
            repr: Repr::Dense {
                base,
                words: bits,
                ranks,
                len: len as usize,
            },
        }
    }

    /// Number of distinct members.
    pub fn len(&self) -> usize {
        match &self.repr {
            Repr::Dense { len, .. } => *len,
            Repr::Sparse(values) => values.len(),
        }
    }

    /// Whether the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// How many members are smaller than `v` — a member's position in
    /// [`RankSet::iter`]'s order. O(1) on a dense set, a bisection on a
    /// sparse one.
    #[inline]
    pub fn rank(&self, v: u64) -> usize {
        match &self.repr {
            Repr::Dense {
                base,
                words,
                ranks,
                len,
            } => {
                let Some(offset) = v.checked_sub(*base) else {
                    return 0;
                };
                let w = (offset / 64) as usize;
                match words.get(w) {
                    Some(word) => {
                        let below = word & ((1 << (offset % 64)) - 1);
                        ranks[w] as usize + below.count_ones() as usize
                    }
                    None => *len,
                }
            }
            Repr::Sparse(values) => values.partition_point(|&m| m < v),
        }
    }

    /// The members, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + Clone + '_ {
        let (dense, sparse) = match &self.repr {
            Repr::Dense { base, words, .. } => (Some((*base, words)), None),
            Repr::Sparse(values) => (None, Some(values.iter().copied())),
        };
        let dense = dense.into_iter().flat_map(|(base, words)| {
            words.iter().enumerate().flat_map(move |(w, &word)| {
                let mut rest = word;
                std::iter::from_fn(move || {
                    let bit = rest.trailing_zeros();
                    rest &= rest.checked_sub(1)?;
                    Some(base + w as u64 * 64 + u64::from(bit))
                })
            })
        });
        dense.chain(sparse.into_iter().flatten())
    }

    /// The members as maximal runs of consecutive values, ascending.
    pub fn runs(&self) -> impl Iterator<Item = RangeInclusive<u64>> + '_ {
        let mut members = self.iter().peekable();
        std::iter::from_fn(move || {
            let first = members.next()?;
            let mut last = first;
            while let Some(next) = members.next_if(|&v| last.checked_add(1) == Some(v)) {
                last = next;
            }
            Some(first..=last)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn is_dense(set: &RankSet) -> bool {
        matches!(set.repr, Repr::Dense { .. })
    }

    /// Every observable of `set` against a `BTreeSet` of `values`: the
    /// members in order, the runs, and the rank of every member, of
    /// each member's neighbours and of both ends of the value range.
    fn check(values: &[u64]) -> Result<bool, String> {
        let want: BTreeSet<u64> = values.iter().copied().collect();
        let set = RankSet::new(values.iter().copied());
        let members: Vec<u64> = set.iter().collect();
        if members != want.iter().copied().collect::<Vec<_>>() || set.len() != want.len() {
            return Err(format!("members {members:?}, want {want:?}"));
        }
        let mut runs: Vec<RangeInclusive<u64>> = Vec::new();
        for &v in &want {
            match runs.last_mut() {
                Some(run) if run.end().checked_add(1) == Some(v) => *run = *run.start()..=v,
                _ => runs.push(v..=v),
            }
        }
        let got: Vec<_> = set.runs().collect();
        if got != runs {
            return Err(format!("runs {got:?}, want {runs:?}"));
        }
        let probes = want
            .iter()
            .flat_map(|&v| [v.saturating_sub(1), v, v.saturating_add(1)])
            .chain([0, u64::MAX]);
        for v in probes {
            let rank = want.range(..v).count();
            if set.rank(v) != rank {
                return Err(format!("rank({v}) = {}, want {rank}", set.rank(v)));
            }
        }
        Ok(is_dense(&set))
    }

    #[test]
    fn the_edges_of_the_selection() {
        assert_eq!(check(&[]), Ok(false));
        assert_eq!(check(&[42]), Ok(true));
        // Span exactly 64 × len is dense; one more is sparse.
        assert_eq!(check(&[0, 127]), Ok(true));
        assert_eq!(check(&[0, 128]), Ok(false));
        assert_eq!(check(&[1_000, 1_063]), Ok(true));
        assert_eq!(check(&[1_063, 1_000, 1_000]), Ok(true));
        // Repeats count toward the length the span is weighed against.
        assert_eq!(check(&[5, 200, 5]), Ok(false));
        assert_eq!(check(&[5, 196, 5]), Ok(true));
        // Near the top of the value range.
        let top = u64::MAX;
        assert_eq!(check(&[top, top - 1, top - 63, top]), Ok(true));
        assert_eq!(check(&[top, 0]), Ok(false));
        let node_top = u64::from(u32::MAX);
        assert_eq!(check(&[node_top - 3, node_top, node_top - 1]), Ok(true));
    }

    #[test]
    fn a_sparse_set_does_not_allocate_by_value() {
        let set = RankSet::new([u64::from(u32::MAX), 0]);
        match &set.repr {
            Repr::Sparse(values) => assert_eq!(values.len(), 2),
            Repr::Dense { .. } => panic!("{{0, u32::MAX}} must be two entries"),
        }
        assert_eq!(set.rank(u64::from(u32::MAX)), 1);
    }

    #[test]
    fn a_dense_set_costs_at_most_12_bytes_a_listed_value() {
        for (len, span) in [(1u64, 1u64), (3, 192), (1_000, 64_000), (1_000, 63_937)] {
            // `len` values spread evenly from 0 to `span - 1`.
            let values: Vec<u64> = (0..len)
                .map(|i| i * (span - 1) / (len - 1).max(1))
                .collect();
            let set = RankSet::new(values);
            let Repr::Dense { words, ranks, .. } = &set.repr else {
                panic!("span {span} over {len} values is dense");
            };
            assert!(words.len() * 8 + ranks.len() * 4 <= 12 * len as usize);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Dense and sparse inputs, in any order and with repeats,
        /// anywhere in the value range, match the reference.
        #[test]
        fn matches_a_btree_set_reference(
            base in proptest::prelude::any::<u64>(),
            top in proptest::prelude::any::<bool>(),
            spread in 1u64..20_000,
            offsets in proptest::collection::vec(proptest::prelude::any::<u64>(), 0..300),
        ) {
            // Within `spread` of `base`, or of the top of the range.
            let values: Vec<u64> = offsets
                .iter()
                .map(|o| match top {
                    true => u64::MAX - o % spread,
                    false => base.saturating_add(o % spread),
                })
                .collect();
            proptest::prop_assert_eq!(check(&values).map(|_| ()), Ok(()));
            let mut sorted = values.clone();
            sorted.sort_unstable();
            sorted.dedup();
            proptest::prop_assert_eq!(check(&sorted).map(|_| ()), Ok(()));
        }
    }
}
