//! Page-run merging: the host-side coalescing of a batch's page reads.
//!
//! [`merge_page_runs`] merges a batch's pages into maximal contiguous
//! runs, one read per run instead of one per page. No product path
//! calls it: a paged read plans its pages as a `smartsage_sim::RankSet`
//! and walks the set's runs. It is kept only for the frozen benchmark's
//! coalesce probe, until the benchmark drops it. (The ISP side's coalescing, many
//! targets per `NSconfig` command as swept in Fig 15, is priced by the
//! ISP cost policy in `smartsage-core`.)

/// A maximal contiguous run of page indices `[first, first + count)`.
///
/// Produced by [`merge_page_runs`]; consumers issue one I/O per run
/// instead of one per page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageRun {
    /// First page index of the run.
    pub first: u64,
    /// Number of pages in the run (always ≥ 1).
    pub count: u64,
}

impl PageRun {
    /// One past the last page of the run.
    pub fn end(&self) -> u64 {
        self.first + self.count
    }
}

/// Merges page indices into maximal contiguous, ascending [`PageRun`]s.
///
/// The input may be unsorted and may contain duplicates (overlapping
/// requests from different rows of a batch gather); the output is the
/// minimal set of disjoint runs covering every requested page. An empty
/// input yields no runs. A strictly ascending input is walked as it
/// stands; any other is copied and sorted first.
///
/// # Example
///
/// ```
/// use smartsage_hostio::coalesce::{merge_page_runs, PageRun};
/// let runs = merge_page_runs(&[7, 3, 4, 4, 9, 8]);
/// assert_eq!(
///     runs,
///     [PageRun { first: 3, count: 2 }, PageRun { first: 7, count: 3 }]
/// );
/// ```
pub fn merge_page_runs(pages: &[u64]) -> Vec<PageRun> {
    let mut owned = Vec::new();
    let sorted = if pages.windows(2).all(|w| w[0] < w[1]) {
        pages
    } else {
        owned.extend_from_slice(pages);
        owned.sort_unstable();
        owned.dedup();
        &owned
    };
    let mut runs: Vec<PageRun> = Vec::new();
    for &page in sorted {
        match runs.last_mut() {
            Some(run) if run.end() == page => run.count += 1,
            _ => runs.push(PageRun {
                first: page,
                count: 1,
            }),
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_runs_empty_input_yields_no_runs() {
        assert!(merge_page_runs(&[]).is_empty());
    }

    #[test]
    fn merge_runs_single_page_is_one_run() {
        assert_eq!(
            merge_page_runs(&[42]),
            [PageRun {
                first: 42,
                count: 1
            }]
        );
    }

    #[test]
    fn merge_runs_adjacent_pages_fuse() {
        // 5 and 6 are adjacent and must become a single 2-page run; 8 is
        // one page away (a hole) and must stay separate.
        assert_eq!(
            merge_page_runs(&[5, 6, 8]),
            [
                PageRun { first: 5, count: 2 },
                PageRun { first: 8, count: 1 }
            ]
        );
    }

    #[test]
    fn merge_runs_overlapping_requests_dedupe() {
        // Two rows requesting the same pages (0,1) and (1,2) overlap on
        // page 1: the merged cover reads it exactly once.
        let runs = merge_page_runs(&[0, 1, 1, 2]);
        assert_eq!(runs, [PageRun { first: 0, count: 3 }]);
        let total: u64 = runs.iter().map(|r| r.count).sum();
        assert_eq!(total, 3, "page 1 must not be fetched twice");
    }

    #[test]
    fn merge_runs_unsorted_input_is_normalized() {
        let runs = merge_page_runs(&[9, 2, 3, 7, 1, 8]);
        assert_eq!(
            runs,
            [
                PageRun { first: 1, count: 3 },
                PageRun { first: 7, count: 3 }
            ]
        );
        // Runs come back ascending and disjoint.
        for w in runs.windows(2) {
            assert!(w[0].end() < w[1].first);
        }
    }

    #[test]
    fn merge_runs_cover_exactly_the_requested_pages() {
        let pages = [0u64, 4, 5, 6, 10, 11, 3, 5];
        let runs = merge_page_runs(&pages);
        let mut covered: Vec<u64> = runs.iter().flat_map(|r| r.first..r.end()).collect();
        covered.sort_unstable();
        let mut want = pages.to_vec();
        want.sort_unstable();
        want.dedup();
        assert_eq!(covered, want);
    }
}
