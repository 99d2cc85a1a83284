//! Flash translation layer (FTL).
//!
//! The FTL maps logical page numbers (LPNs, as seen by the host through
//! the NVMe block interface) to physical page numbers (PPNs) on the NAND
//! array. SmartSAGE's ISP path must perform this translation in firmware
//! before issuing flash reads for a subgraph request (paper Fig 11,
//! step 3). We model a page-level mapping whose table is resident in SSD
//! DRAM: translation is a deterministic striping permutation plus a small
//! per-request core cost.

use crate::flash::PhysPage;
use smartsage_sim::SimDuration;

/// FTL parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct FtlParams {
    /// Logical pages managed by the device.
    pub logical_pages: u64,
    /// Embedded-core work per translation (map lookup in SSD DRAM).
    pub translate_cost: SimDuration,
}

impl Default for FtlParams {
    fn default() -> Self {
        FtlParams {
            logical_pages: 128 * 1024 * 1024, // 2 TB of 16 KiB pages
            translate_cost: SimDuration::from_nanos(300),
        }
    }
}

/// The translation layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Ftl {
    params: FtlParams,
    translations: u64,
}

impl Ftl {
    /// Creates an FTL over the given logical space.
    ///
    /// # Panics
    ///
    /// Panics if `logical_pages` is zero.
    pub fn new(params: FtlParams) -> Self {
        assert!(params.logical_pages > 0, "logical space must be non-empty");
        Ftl {
            params,
            translations: 0,
        }
    }

    /// The FTL parameters.
    pub fn params(&self) -> &FtlParams {
        &self.params
    }

    /// Translates a logical page number to its physical page.
    ///
    /// Physical placement follows the standard dynamic-allocation layout
    /// in which consecutive logical pages land on consecutive channels
    /// ([`FlashArray::channel_of`](crate::flash::FlashArray::channel_of)
    /// interleaves by `ppn % channels`),
    /// so the mapping is the identity permutation; what the model charges
    /// for is the *work* of the map lookup ([`Ftl::translate_cost`]),
    /// which the ISP path must spend on the embedded cores per request
    /// (paper Fig 11, step 3).
    ///
    /// # Panics
    ///
    /// Panics if `lpn` is outside the logical space.
    pub fn translate(&mut self, lpn: u64) -> PhysPage {
        assert!(
            lpn < self.params.logical_pages,
            "lpn {lpn} outside logical space {}",
            self.params.logical_pages
        );
        self.translations += 1;
        PhysPage(lpn)
    }

    /// Core work charged per translation.
    pub fn translate_cost(&self) -> SimDuration {
        self.params.translate_cost
    }

    /// Number of translations performed.
    pub fn translations(&self) -> u64 {
        self.translations
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn ftl(pages: u64) -> Ftl {
        Ftl::new(FtlParams {
            logical_pages: pages,
            translate_cost: SimDuration::from_nanos(300),
        })
    }

    #[test]
    fn mapping_is_injective() {
        let mut f = ftl(1024);
        let mut seen = BTreeSet::new();
        for lpn in 0..1024 {
            assert!(seen.insert(f.translate(lpn)), "collision at lpn {lpn}");
        }
        assert_eq!(f.translations(), 1024);
    }

    #[test]
    fn consecutive_lpns_hit_distinct_channels() {
        let mut f = ftl(1024);
        // FlashArray::channel_of interleaves by ppn % channels, so 8 consecutive
        // LPNs must land on all 8 channels.
        let channels: BTreeSet<u64> = (0..8).map(|l| f.translate(l).0 % 8).collect();
        assert_eq!(
            channels.len(),
            8,
            "8 consecutive LPNs should use 8 channels"
        );
    }

    #[test]
    #[should_panic(expected = "outside logical space")]
    fn out_of_range_lpn_panics() {
        ftl(16).translate(16);
    }
}
