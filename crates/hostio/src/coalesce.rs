//! NVMe command coalescing (paper §IV-C, Fig 12 right; swept in Fig 15).
//!
//! The baseline ISP interface would issue one NVMe command per sampling
//! request; SmartSAGE's driver packs the whole mini-batch's target nodes
//! into a single `NSconfig` blob behind one vendor command. This module
//! computes, for a given coalescing granularity, how many commands a
//! batch needs and what host/driver overhead each one carries.

use crate::params::HostIoParams;
use smartsage_sim::SimDuration;

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
/// stands; any other is copied and sorted first. This is the host-side
/// analogue of the NVMe command coalescing above: a batch feature gather
/// plans all the pages it needs, merges them, and issues one read per run.
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

/// A coalescing plan for one mini-batch of sampling requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoalescingPlan {
    /// Targets per ISP command (the granularity of Fig 15's x-axis).
    pub granularity: u32,
    /// Number of NVMe commands needed for the batch.
    pub commands: u32,
    /// Targets carried by the final (possibly partial) command.
    pub last_command_targets: u32,
}

impl CoalescingPlan {
    /// Plans `batch_targets` sampling requests at `granularity` targets
    /// per command.
    ///
    /// # Panics
    ///
    /// Panics if `granularity` is zero.
    pub fn new(batch_targets: u32, granularity: u32) -> Self {
        assert!(granularity > 0, "coalescing granularity must be positive");
        let commands = batch_targets.div_ceil(granularity).max(1);
        let rem = batch_targets % granularity;
        CoalescingPlan {
            granularity,
            commands,
            last_command_targets: if rem == 0 {
                granularity.min(batch_targets)
            } else {
                rem
            },
        }
    }

    /// Targets carried by command `i` (0-based).
    pub fn targets_of(&self, i: u32) -> u32 {
        if i + 1 == self.commands {
            self.last_command_targets
        } else {
            self.granularity
        }
    }

    /// Host driver time spent issuing all commands of the batch (one
    /// `ioctl` each).
    pub fn host_issue_time(&self, params: &HostIoParams) -> SimDuration {
        params.ioctl_cost.mul_u64(self.commands as u64)
    }

    /// Total `NSconfig` bytes DMA'd for the batch (header per command +
    /// per-target descriptors).
    pub fn nsconfig_bytes(&self, params: &HostIoParams) -> u64 {
        (0..self.commands)
            .map(|i| params.nsconfig_bytes(self.targets_of(i) as u64))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_coalescing_is_one_command() {
        let p = CoalescingPlan::new(1024, 1024);
        assert_eq!(p.commands, 1);
        assert_eq!(p.targets_of(0), 1024);
    }

    #[test]
    fn fine_granularity_explodes_command_count() {
        let p = CoalescingPlan::new(1024, 1);
        assert_eq!(p.commands, 1024);
        assert_eq!(p.targets_of(0), 1);
        assert_eq!(p.targets_of(1023), 1);
    }

    #[test]
    fn partial_last_command() {
        let p = CoalescingPlan::new(1000, 256);
        assert_eq!(p.commands, 4);
        assert_eq!(p.targets_of(0), 256);
        assert_eq!(p.targets_of(3), 232);
        let total: u32 = (0..p.commands).map(|i| p.targets_of(i)).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn issue_time_scales_with_commands() {
        let params = HostIoParams::default();
        let coarse = CoalescingPlan::new(1024, 1024).host_issue_time(&params);
        let fine = CoalescingPlan::new(1024, 16).host_issue_time(&params);
        assert_eq!(fine, coarse * 64);
    }

    #[test]
    fn nsconfig_bytes_conserve_targets_but_duplicate_headers() {
        let params = HostIoParams::default();
        let one = CoalescingPlan::new(1024, 1024).nsconfig_bytes(&params);
        let many = CoalescingPlan::new(1024, 64).nsconfig_bytes(&params);
        // Same per-target bytes, 15 extra headers.
        assert_eq!(many - one, 15 * params.nsconfig_header_bytes);
    }

    #[test]
    #[should_panic(expected = "granularity must be positive")]
    fn zero_granularity_panics() {
        CoalescingPlan::new(16, 0);
    }

    #[test]
    fn paper_sweep_points_are_representable() {
        // Fig 15 sweeps these granularities for a 1024-target batch.
        for g in [1024u32, 512, 256, 64, 16, 1] {
            let p = CoalescingPlan::new(1024, g);
            assert_eq!(p.commands, 1024 / g);
        }
    }

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
