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
//! brought to the buffer by the one [`Ssd::fetch_page`], and every
//! in-device page batch is queued one way, by [`Ssd::fetch_pages`].
//!
//! The ISP firmware (paper Fig 11) is written once, here, with one set
//! of knobs ([`IspParams`]): [`Ssd::isp_decode`] picks a command up and
//! decodes it on the ISP cores, and [`Ssd::isp_chunk`] runs up to
//! `queue_depth` of its accesses at a time — their core work pooled,
//! their pages in flight together. The ISP cost policy and both ISP
//! store tiers drive a command through these two calls and
//! [`Ssd::dma_to_host`].

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

/// The ISP firmware's knobs (paper Fig 11).
#[derive(Debug, Clone, PartialEq)]
pub struct IspParams {
    /// Accesses the subgraph generator keeps in flight: the pending
    /// flash page request queue (Fig 11 step 3) holds one chunk of
    /// this many accesses.
    pub queue_depth: usize,
    /// Core work per access (chunk locate + offset lookup in SSD DRAM
    /// + bookkeeping).
    pub access_cost: SimDuration,
    /// Core work per answer an access produces (a sampled neighbor, a
    /// degree, a feature row).
    pub sample_cost: SimDuration,
    /// A dedicated ISP core complex (Newport-like, §VI-C); `None` runs
    /// the firmware on the shared cores.
    pub cores: Option<CoreParams>,
}

impl Default for IspParams {
    /// Four accesses in flight, 1 us per access, 350 ns per answer, on
    /// the shared cores.
    fn default() -> Self {
        IspParams {
            queue_depth: 4,
            access_cost: SimDuration::from_nanos(1000),
            sample_cost: SimDuration::from_nanos(350),
            cores: None,
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
    /// Page-buffer capacity in flash pages. A device whose lookups are
    /// exact (the ISP store tiers) holds this many pages; the cost
    /// policies impose their verdicts, so for them it only sizes the
    /// full-scale buffer hit rate they draw at (`buffer_pages ×
    /// flash.page_bytes` bytes). Zero by default: no buffer.
    pub buffer_pages: usize,
    /// Host PCIe interface.
    pub pcie: PcieParams,
    /// The ISP firmware.
    pub isp: IspParams,
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

/// The composed device. Component fields are public so the models
/// around it (the cost policies, the ISP store tiers, the examples) can
/// read their counters; the ISP firmware's scheduling is the device's
/// own ([`Ssd::isp_decode`], [`Ssd::isp_chunk`]).
#[derive(Debug, Clone)]
pub struct Ssd {
    /// NAND array.
    pub flash: FlashArray,
    /// Translation layer.
    pub ftl: Ftl,
    /// DRAM page buffer.
    pub buffer: PageBuffer,
    /// Embedded cores (firmware, and ISP work unless a dedicated complex
    /// is configured).
    pub cores: EmbeddedCores,
    /// Host PCIe link.
    pub pcie: Link,
    /// NVMe costs.
    pub nvme: NvmeParams,
    isp: IspParams,
    isp_cores: Option<EmbeddedCores>,
    page_bytes: u64,
    bytes_to_host: u64,
}

impl Ssd {
    /// Builds the device from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the ISP queue depth is zero, or on a core complex
    /// [`EmbeddedCores::new`] rejects.
    pub fn new(params: SsdParams) -> Self {
        assert!(params.isp.queue_depth > 0, "ISP queue depth is zero");
        let page_bytes = params.flash.page_bytes;
        Ssd {
            flash: FlashArray::new(params.flash),
            ftl: Ftl::new(params.ftl),
            buffer: PageBuffer::new(params.buffer_pages),
            cores: EmbeddedCores::new(params.cores),
            pcie: Link::new(params.pcie.bytes_per_sec, params.pcie.latency),
            nvme: params.nvme,
            isp_cores: params.isp.cores.clone().map(EmbeddedCores::new),
            isp: params.isp,
            page_bytes,
            bytes_to_host: 0,
        }
    }

    /// Flash page size in bytes.
    pub fn page_bytes(&self) -> u64 {
        self.page_bytes
    }

    /// The cores the ISP firmware runs on: the dedicated complex when
    /// one is configured, otherwise the shared [`Ssd::cores`].
    fn isp_cores(&mut self) -> &mut EmbeddedCores {
        self.isp_cores.as_mut().unwrap_or(&mut self.cores)
    }

    /// ISP firmware, command decode (paper Fig 11 step 2): the command
    /// picked up at `at` is decoded on the ISP cores — firmware duty,
    /// run as given. Returns when decoding ends.
    pub fn isp_decode(&mut self, at: SimTime) -> SimTime {
        let cost = self.nvme.isp_command_cost;
        self.isp_cores().exec_raw(at, cost).1
    }

    /// ISP firmware, one chunk of a command (paper Fig 11 steps 3–5):
    /// takes at most `queue_depth` accesses off the front of `accesses`,
    /// each an `(answers, pages)` pair. Their core work — per access
    /// `access_cost`, an FTL lookup and `sample_cost` per answer — is
    /// pooled into one [`EmbeddedCores::exec`] on the ISP cores, and
    /// their pages are issued together at `at` through
    /// [`Ssd::fetch_pages`] (`verdict` as there). The chunk is done at
    /// the later of the cores and the flash.
    pub fn isp_chunk<P: IntoIterator<Item = u64>>(
        &mut self,
        at: SimTime,
        accesses: &mut impl Iterator<Item = (u64, P)>,
        verdict: impl FnMut(u64) -> Option<bool>,
    ) -> SimTime {
        let (queue_depth, sample_cost) = (self.isp.queue_depth, self.isp.sample_cost);
        let per_access = self.isp.access_cost + self.ftl.translate_cost();
        let mut work = SimDuration::ZERO;
        let pages = accesses.take(queue_depth).flat_map(|(answers, pages)| {
            work += per_access + sample_cost.mul_u64(answers);
            pages
        });
        let flash = self.fetch_pages(at, pages, verdict);
        self.isp_cores().exec(at, work).1.max(flash)
    }

    /// The one in-device page fetch (paper Fig 11): FTL translation,
    /// page-buffer lookup, and on a miss the NAND page read. Returns
    /// whether the buffer hit and when the page is ready in SSD DRAM —
    /// `at` + [`BUFFER_TOUCH`] on a hit, the flash read's completion on
    /// a miss.
    ///
    /// `None` is the exact LRU lookup: a miss's page fills the buffer.
    /// `Some(hit)` imposes the verdict — the cost policies' draw at a
    /// full-scale rate (see `smartsage-hostio::locality`) — and leaves
    /// the buffer's residency alone. A device takes one kind only: the
    /// ISP store tiers pass `None`, the cost policies `Some`. Core time
    /// (firmware, FTL lookup cost) is the caller's to schedule: the
    /// callers differ in exactly that.
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

    /// The one queueing discipline over [`Ssd::fetch_page`] for in-device
    /// page batches (paper Fig 11, steps 3–4): every page of `pages` is
    /// issued at `at`, so the batch is in flight together and ends on
    /// its slowest read. `verdict` is each page's `forced`, called once
    /// per page in the order given. Buffer hits are free here and FTL
    /// cost is the caller's to pool into its core work. Returns when the
    /// slowest *missing* page is in the buffer, `at` if none missed.
    pub fn fetch_pages(
        &mut self,
        at: SimTime,
        pages: impl IntoIterator<Item = u64>,
        mut verdict: impl FnMut(u64) -> Option<bool>,
    ) -> SimTime {
        pages.into_iter().fold(at, |done, lpn| {
            match self.fetch_page(at, lpn, verdict(lpn)) {
                (true, _) => done,
                (false, ready) => done.max(ready),
            }
        })
    }

    /// Serves one host block-read command for `lba`, arriving at the
    /// device at `at`; `buffer_hit_override` is [`Ssd::fetch_page`]'s
    /// `forced`: `None` for an exact buffer lookup, `Some` to impose
    /// the verdict without touching the buffer's residency.
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

    /// Total bytes shipped to the host (blocks + DMA payloads).
    pub fn bytes_to_host(&self) -> u64 {
        self.bytes_to_host
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
        // The verdict imposed is the verdict counted: block 7's page
        // was imposed a hit before, and an imposed miss on it is a miss
        // (and a flash read), not a hit.
        let reads = ssd.flash.pages_read();
        let r3 = ssd.read_block(r2.done, 7, Some(false));
        assert!(!r3.buffer_hit);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (1, 2));
        assert_eq!(ssd.flash.pages_read(), reads + 1);
        // Imposed lookups leave no residency behind: block 900's page
        // was only ever imposed a verdict, so an exact lookup misses.
        assert!(ssd.buffer.keys().is_empty());
        assert!(!ssd.read_block(r3.done, 900, None).buffer_hit);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (1, 3));
    }

    #[test]
    fn a_batch_that_only_hits_is_ready_at_its_issue() {
        let mut ssd = test_ssd(1024);
        let filled = ssd.fetch_pages(SimTime::ZERO, 0..8, |_| None);
        assert!(filled > SimTime::ZERO);
        assert_eq!(ssd.fetch_pages(filled, 0..8, |_| None), filled);
        assert_eq!(ssd.fetch_pages(filled, [900, 901], |_| Some(true)), filled);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (10, 8));
    }

    #[test]
    fn misses_issued_together_finish_at_the_slowest_not_the_sum() {
        let single = test_ssd(0).fetch_pages(SimTime::ZERO, [0], |_| None);
        let mut ssd = test_ssd(0);
        let mut twin = test_ssd(0);
        let batch = ssd.fetch_pages(SimTime::ZERO, 0..8, |_| None);
        let slowest = (0..8)
            .map(|lpn| twin.fetch_pages(SimTime::ZERO, [lpn], |_| None))
            .max()
            .unwrap();
        assert_eq!(batch, slowest);
        assert!(batch >= single);
        assert!(
            batch.since_epoch() < single.since_epoch().mul_u64(8),
            "8 parallel misses ({batch}) must beat 8 serial ones (8 x {single})"
        );
        assert_eq!(ssd.flash.pages_read(), 8);
    }

    #[test]
    fn the_verdict_is_asked_once_per_page_in_order() {
        let mut ssd = test_ssd(1024);
        let mut asked = Vec::new();
        ssd.fetch_pages(SimTime::ZERO, 10..=13, |lpn| {
            asked.push(lpn);
            Some(lpn % 2 == 0)
        });
        assert_eq!(asked, [10, 11, 12, 13]);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (2, 2));
        assert_eq!(ssd.flash.pages_read(), 2);
    }

    /// One access's core work under the default ISP knobs.
    fn access_work(ssd: &Ssd, answers: u64) -> SimDuration {
        let isp = IspParams::default();
        isp.access_cost + ssd.ftl.translate_cost() + isp.sample_cost.mul_u64(answers)
    }

    #[test]
    fn a_chunk_pools_access_and_answer_work_and_ends_at_the_later_of_cores_and_flash() {
        let mut ssd = test_ssd(1024);
        let accesses = || [(3u64, vec![0u64, 1]), (0, vec![2])].into_iter();
        let work = access_work(&ssd, 3) + access_work(&ssd, 0);
        // The twins: one pooled stretch on the shared cores, the three
        // pages issued together.
        let mut cores = EmbeddedCores::new(CoreParams::default());
        let (_, pooled) = cores.exec(SimTime::ZERO, work);
        let flash = test_ssd(1024).fetch_pages(SimTime::ZERO, [0, 1, 2], |_| None);
        let cold = ssd.isp_chunk(SimTime::ZERO, &mut accesses(), |_| None);
        assert!(flash > pooled, "cold pages: the flash is the later");
        assert_eq!(cold, flash);
        // Every page is buffered now: the chunk ends with its cores.
        let warm = ssd.isp_chunk(cold, &mut accesses(), |_| None);
        assert_eq!(warm, cores.exec(cold, work).1);
        assert_eq!((ssd.buffer.hits(), ssd.buffer.misses()), (3, 3));
    }

    #[test]
    fn a_dedicated_complex_runs_its_work_uninflated_and_leaves_the_shared_cores_idle() {
        let dedicated = CoreParams {
            cores: 4,
            firmware_share: 0.0,
        };
        let mut ssd = Ssd::new(SsdParams {
            buffer_pages: 1024,
            isp: IspParams {
                cores: Some(dedicated),
                ..IspParams::default()
            },
            ..SsdParams::default()
        });
        let decoded = ssd.isp_decode(SimTime::ZERO);
        assert_eq!(decoded, SimTime::ZERO + ssd.nvme.isp_command_cost);
        let work = access_work(&ssd, 2);
        let hit = |_| Some(true);
        let done = ssd.isp_chunk(decoded, &mut [(2, [7])].into_iter(), hit);
        assert_eq!(done, decoded + work, "no firmware-share inflation");
        assert_eq!(
            ssd.isp_cores().busy_time(),
            ssd.nvme.isp_command_cost + work
        );
        assert!(ssd.cores.busy_time().is_zero(), "shared cores stay idle");
        // Without a dedicated complex the same chunk runs inflated on
        // the shared cores.
        let mut shared = test_ssd(1024);
        let done = shared.isp_chunk(SimTime::ZERO, &mut [(2, [7])].into_iter(), hit);
        assert_eq!(done, SimTime::ZERO + work.mul_f64(1.0 / 0.7));
        assert_eq!(shared.cores.busy_time(), shared.isp_cores().busy_time());
    }

    #[test]
    fn a_command_of_n_accesses_at_queue_depth_q_prices_as_ceil_n_over_q_chunks() {
        for q in 1..=5 {
            for n in 0..=12usize {
                let mut ssd = Ssd::new(SsdParams {
                    buffer_pages: 64,
                    isp: IspParams {
                        queue_depth: q,
                        ..IspParams::default()
                    },
                    ..SsdParams::default()
                });
                let mut accesses = (0..n).map(|i| (1, [i as u64]));
                let (mut t, mut chunks) = (SimTime::ZERO, 0);
                while accesses.len() > 0 {
                    let before = accesses.len();
                    t = ssd.isp_chunk(t, &mut accesses, |_| None);
                    assert_eq!(before - accesses.len(), q.min(before), "q {q} n {n}");
                    chunks += 1;
                }
                assert_eq!(chunks, n.div_ceil(q), "q {q} n {n}");
                assert_eq!(ssd.flash.pages_read(), n as u64);
            }
        }
    }

    #[test]
    #[should_panic(expected = "queue depth")]
    fn zero_queue_depth_is_rejected() {
        Ssd::new(SsdParams {
            isp: IspParams {
                queue_depth: 0,
                ..IspParams::default()
            },
            ..SsdParams::default()
        });
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
