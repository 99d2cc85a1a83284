//! NVMe command cost model.
//!
//! Every host I/O — a 4 KiB block read on the baseline path, or a
//! SmartSAGE subgraph-generation command — passes through the NVMe
//! protocol machinery: submission-queue doorbell, firmware command
//! decode, DMA setup, completion posting. SmartSAGE's host driver
//! amortizes these costs by **coalescing** the whole mini-batch's
//! sampling into one vendor command (paper §IV-C, Fig 12 right); Fig 15
//! sweeps the coalescing granularity and shows the per-command overheads
//! dominating at fine granularities.

use smartsage_sim::SimDuration;

/// NVMe protocol/firmware cost parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct NvmeParams {
    /// Logical block size of the device.
    pub block_bytes: u64,
    /// Embedded-core time to decode + service one block I/O command
    /// (queue pop, LBA decode, FTL invocation, DMA descriptor setup,
    /// completion post). This is the firmware path every baseline block
    /// read pays.
    pub per_io_firmware_cost: SimDuration,
    /// Embedded-core time to decode one ISP (subgraph-generation) command
    /// and DMA-fetch its `NSconfig` header.
    pub isp_command_cost: SimDuration,
    /// Period of the firmware polling loop that picks up new ISP commands
    /// and checks for completed subgraphs (paper Fig 11 step 7). Each ISP
    /// command waits half a period on average at both pickup and
    /// completion.
    pub isp_poll_interval: SimDuration,
}

impl Default for NvmeParams {
    /// OpenSSD-like defaults: 4 KiB blocks, 2 us firmware time per block
    /// I/O, 6 us ISP command decode, 250 us polling loop.
    fn default() -> Self {
        NvmeParams {
            block_bytes: 4096,
            per_io_firmware_cost: SimDuration::from_micros(2),
            isp_command_cost: SimDuration::from_micros(6),
            isp_poll_interval: SimDuration::from_micros(250),
        }
    }
}

impl NvmeParams {
    /// Expected pickup delay for an ISP command: half the polling period.
    pub fn isp_pickup_delay(&self) -> SimDuration {
        self.isp_poll_interval / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pickup_delay_is_half_period() {
        let p = NvmeParams::default();
        assert_eq!(p.isp_pickup_delay(), SimDuration::from_micros(125));
    }
}
