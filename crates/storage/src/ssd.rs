//! The composed NVMe SSD device.
//!
//! [`Ssd`] wires together the NAND array, FTL, DRAM page buffer, embedded
//! cores, NVMe command costs and the PCIe link into the device the host
//! stack (and the SmartSAGE ISP) talks to. The baseline block-read path
//! matches Fig 10(a): every host block read consumes firmware time on the
//! embedded cores, possibly a flash page read, and a PCIe transfer of the
//! whole block. SmartSAGE's ISP paths schedule the `cores` and the PCIe
//! link themselves, which is exactly the point of the design — sampling
//! happens next to the page buffer, and only sampled node IDs cross
//! PCIe. Underneath every path, host block read or ISP, a page is
//! brought to the buffer by the one [`Ssd::fetch_page`].

use crate::cores::{CoreParams, EmbeddedCores};
use crate::flash::{FlashArray, FlashParams};
use crate::ftl::{Ftl, FtlParams};
use crate::nvme::NvmeParams;
use crate::pagebuf::PageBuffer;
use smartsage_sim::{Link, SimDuration, SimTime};

/// PCIe link parameters for the SSD's host interface.
#[derive(Debug, Clone, PartialEq)]
pub struct PcieParams {
    /// Effective bandwidth in bytes/second.
    pub bytes_per_sec: u64,
    /// Per-transfer latency (DMA setup + link traversal).
    pub latency: SimDuration,
}

impl Default for PcieParams {
    /// PCIe gen2 x8 (OpenSSD host interface): ~3.2 GB/s effective, 1 us.
    fn default() -> Self {
        PcieParams {
            bytes_per_sec: 3_200_000_000,
            latency: SimDuration::from_micros(1),
        }
    }
}

/// Full SSD configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SsdParams {
    /// NAND geometry and timing.
    pub flash: FlashParams,
    /// Translation-layer parameters.
    pub ftl: FtlParams,
    /// Embedded-core complex parameters.
    pub cores: CoreParams,
    /// NVMe command costs.
    pub nvme: NvmeParams,
    /// Page-buffer capacity in flash pages.
    pub buffer_pages: usize,
    /// Host PCIe interface.
    pub pcie: PcieParams,
}

/// Controller-side touch of a page already resident in SSD DRAM.
pub const BUFFER_TOUCH: SimDuration = SimDuration::from_nanos(500);

/// Result of a host block read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockRead {
    /// Time the block's data has fully landed in host memory.
    pub done: SimTime,
    /// Whether the read was served from the SSD's DRAM page buffer.
    pub buffer_hit: bool,
}

/// The composed device. Fields are public: the SmartSAGE ISP models
/// (`smartsage-core`'s cost policies, `smartsage-store`'s ISP tiers)
/// schedule the cores and read the component counters directly,
/// mirroring how the real firmware owns them.
#[derive(Debug, Clone)]
pub struct Ssd {
    /// NAND array.
    pub flash: FlashArray,
    /// Translation layer.
    pub ftl: Ftl,
    /// DRAM page buffer.
    pub buffer: PageBuffer,
    /// Embedded cores (firmware + ISP).
    pub cores: EmbeddedCores,
    /// Host PCIe link.
    pub pcie: Link,
    /// NVMe costs.
    pub nvme: NvmeParams,
    page_bytes: u64,
    blocks_served: u64,
    bytes_to_host: u64,
}

impl Ssd {
    /// Builds the device from its configuration.
    pub fn new(params: SsdParams) -> Self {
        let page_bytes = params.flash.page_bytes;
        Ssd {
            flash: FlashArray::new(params.flash),
            ftl: Ftl::new(params.ftl),
            buffer: PageBuffer::new(params.buffer_pages),
            cores: EmbeddedCores::new(params.cores),
            pcie: Link::new(params.pcie.bytes_per_sec, params.pcie.latency),
            nvme: params.nvme,
            page_bytes,
            blocks_served: 0,
            bytes_to_host: 0,
        }
    }

    /// Flash page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// The one in-device page fetch (paper Fig 11): FTL translation,
    /// page-buffer lookup, and on a miss the NAND page read that fills
    /// the buffer. Returns whether the buffer hit and when the page is
    /// ready in SSD DRAM — `at` + [`BUFFER_TOUCH`] on a hit, the flash
    /// read's completion on a miss.
    ///
    /// `forced` imposes the buffer verdict — the full-scale locality
    /// model uses this to impose analytically derived hit rates (see
    /// `smartsage-hostio::locality`); `None` consults the exact LRU
    /// buffer. Core time (firmware, FTL lookup cost) is the caller's to
    /// schedule: the callers differ in exactly that.
    pub fn fetch_page(&mut self, at: SimTime, lpn: u64, forced: Option<bool>) -> (bool, SimTime) {
        let ppn = self.ftl.translate(lpn);
        let hit = self.buffer.lookup(ppn, forced);
        let ready = if hit {
            at + BUFFER_TOUCH
        } else {
            self.flash.read_page(at, ppn)
        };
        (hit, ready)
    }

    /// Serves one host block-read command for `lba`, arriving at the
    /// device at `at`; `buffer_hit_override` is [`Ssd::fetch_page`]'s
    /// `forced`.
    ///
    /// Steps: firmware command handling on the embedded cores, the page
    /// fetch, then DMA of the block to host memory over PCIe.
    pub fn read_block(
        &mut self,
        at: SimTime,
        lba: u64,
        buffer_hit_override: Option<bool>,
    ) -> BlockRead {
        // Firmware: command decode + FTL + DMA setup, on the shared cores.
        let (_, fw_done) = self.cores.exec_raw(at, self.nvme.per_io_firmware_cost);
        let lpn = lba * self.nvme.block_bytes / self.page_bytes;
        let (buffer_hit, data_ready) = self.fetch_page(fw_done, lpn, buffer_hit_override);
        let done = self.pcie.transfer(data_ready, self.nvme.block_bytes);
        self.blocks_served += 1;
        self.bytes_to_host += self.nvme.block_bytes;
        BlockRead { done, buffer_hit }
    }

    /// Records an outbound DMA of `bytes` (ISP results, completion data)
    /// and returns its completion time.
    pub fn dma_to_host(&mut self, at: SimTime, bytes: u64) -> SimTime {
        self.bytes_to_host += bytes;
        self.pcie.transfer(at, bytes)
    }

    /// Records an inbound DMA of `bytes` (e.g., `NSconfig`) and returns
    /// its completion time. Inbound traffic shares the link.
    pub fn dma_from_host(&mut self, at: SimTime, bytes: u64) -> SimTime {
        self.pcie.transfer(at, bytes)
    }

    /// Blocks served over the host block interface.
    pub fn blocks_served(&self) -> u64 {
        self.blocks_served
    }

    /// Total bytes shipped to the host (blocks + DMA payloads).
    pub fn bytes_to_host(&self) -> u64 {
        self.bytes_to_host
    }

    /// Resets all component state and counters.
    pub fn reset(&mut self) {
        self.flash.reset();
        self.ftl.reset();
        self.buffer.reset();
        self.cores.reset();
        self.pcie.reset();
        self.blocks_served = 0;
        self.bytes_to_host = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_ssd(buffer_pages: usize) -> Ssd {
        Ssd::new(SsdParams {
            buffer_pages,
            ..SsdParams::default()
        })
    }

    #[test]
    fn cold_read_pays_flash_latency() {
        let mut ssd = test_ssd(1024);
        let r = ssd.read_block(SimTime::ZERO, 0, None);
        assert!(!r.buffer_hit);
        // At least firmware (4us) + tR (25us) + page transfer + PCIe.
        assert!(
            r.done.since_epoch() >= SimDuration::from_micros(29),
            "cold read too fast: {}",
            r.done
        );
        assert_eq!(ssd.blocks_served(), 1);
        assert_eq!(ssd.bytes_to_host(), 4096);
    }

    #[test]
    fn warm_read_is_much_faster() {
        let mut ssd = test_ssd(1024);
        let cold = ssd.read_block(SimTime::ZERO, 0, None);
        let t1 = cold.done;
        let warm = ssd.read_block(t1, 0, None);
        assert!(warm.buffer_hit);
        let cold_lat = cold.done.since_epoch();
        let warm_lat = warm.done - t1;
        assert!(
            warm_lat.as_nanos_f64() * 4.0 < cold_lat.as_nanos_f64(),
            "warm {warm_lat} not ≪ cold {cold_lat}"
        );
    }

    #[test]
    fn blocks_in_same_flash_page_share_the_fill() {
        // 4 KiB blocks, 16 KiB pages: LBAs 0..4 map to page 0.
        let mut ssd = test_ssd(1024);
        let a = ssd.read_block(SimTime::ZERO, 0, None);
        assert!(!a.buffer_hit);
        let b = ssd.read_block(a.done, 1, None);
        assert!(b.buffer_hit, "neighboring block should hit the page buffer");
    }

    #[test]
    fn override_forces_outcomes() {
        let mut ssd = test_ssd(1024);
        let r = ssd.read_block(SimTime::ZERO, 7, Some(true));
        assert!(r.buffer_hit, "override must force a hit");
        let r2 = ssd.read_block(r.done, 900, Some(false));
        assert!(!r2.buffer_hit);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (1, 1));
        // The verdict imposed is the verdict counted, whatever the
        // exact LRU holds: block 7's page is resident by now, and an
        // imposed miss on it is a miss (and a flash read), not a hit.
        let reads = ssd.flash.pages_read();
        let r3 = ssd.read_block(r2.done, 7, Some(false));
        assert!(!r3.buffer_hit);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (1, 2));
        assert_eq!(ssd.flash.pages_read(), reads + 1);
        // Forced lookups leave real residency behind.
        assert!(ssd.read_block(r3.done, 900, None).buffer_hit);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (2, 2));
    }

    #[test]
    fn dma_accounts_bytes() {
        let mut ssd = test_ssd(16);
        let done = ssd.dma_to_host(SimTime::ZERO, 1_000_000);
        assert!(done > SimTime::ZERO);
        assert_eq!(ssd.bytes_to_host(), 1_000_000);
        let _ = ssd.dma_from_host(done, 64 * 1024);
        // Inbound doesn't count toward host-bound bytes.
        assert_eq!(ssd.bytes_to_host(), 1_000_000);
    }

    #[test]
    fn reset_restores_cold_state() {
        let mut ssd = test_ssd(1024);
        ssd.read_block(SimTime::ZERO, 0, None);
        ssd.reset();
        assert_eq!(ssd.blocks_served(), 0);
        assert_eq!(ssd.bytes_to_host(), 0);
        let r = ssd.read_block(SimTime::ZERO, 0, None);
        assert!(!r.buffer_hit, "buffer must be cold after reset");
    }

    #[test]
    fn concurrent_block_reads_queue_on_firmware_and_flash() {
        let mut ssd = test_ssd(0); // no buffer: all reads hit flash
        let mut last = SimTime::ZERO;
        // Issue 32 reads at t=0 to distinct pages.
        let mut dones: Vec<SimTime> = Vec::new();
        for i in 0..32 {
            let r = ssd.read_block(SimTime::ZERO, i * 4, None);
            dones.push(r.done);
            last = last.max(r.done);
        }
        // With 16 channels and 2 reads per channel, the last completion
        // must reflect queueing beyond a single read's latency.
        let single = dones[0].since_epoch();
        assert!(
            last.since_epoch() > single,
            "32 concurrent reads should not all finish like one"
        );
    }
}
