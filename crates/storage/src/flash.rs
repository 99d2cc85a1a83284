//! NAND flash array model.
//!
//! A flash read proceeds in two stages: the die senses the page into its
//! internal register (`tR`, tens of microseconds), then the page streams
//! over the channel bus to the SSD controller. Dies on one channel sense
//! in parallel; the channel bus serializes transfers. Both effects matter
//! for SmartSAGE: internal channel parallelism is the bandwidth the ISP
//! taps, and bus serialization caps it.

#![expect(clippy::disallowed_types, reason = "no result reads its order")]

use smartsage_sim::{Link, Server, SimDuration, SimTime};

/// Physical flash geometry and timing.
#[derive(Debug, Clone, PartialEq)]
pub struct FlashParams {
    /// Independent channels.
    pub channels: usize,
    /// Dies per channel (parallel `tR` slots per channel).
    pub dies_per_channel: usize,
    /// Flash page size in bytes.
    pub page_bytes: u64,
    /// Cell-to-register sense latency (`tR`).
    pub read_latency: SimDuration,
    /// Channel bus bandwidth in bytes/second.
    pub channel_bw: u64,
}

impl Default for FlashParams {
    /// OpenSSD-class defaults with modern low-latency NAND (the paper's
    /// platform cites 15 us-class ultra-low-latency flash \[8\]):
    /// 16 channels x 2 dies, 16 KiB pages, 25 us `tR`, 800 MB/s bus.
    fn default() -> Self {
        FlashParams {
            channels: 16,
            dies_per_channel: 2,
            page_bytes: 16 * 1024,
            read_latency: SimDuration::from_micros(25),
            channel_bw: 800_000_000,
        }
    }
}

/// A physical page address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysPage(pub u64);

/// The NAND array: per-channel die servers and bus links.
#[derive(Debug, Clone)]
pub struct FlashArray {
    params: FlashParams,
    dies: Vec<Server>,
    buses: Vec<Link>,
    pages_read: u64,
    /// In-flight reads by physical page, for read coalescing: a request
    /// for a page already being sensed joins the existing read instead of
    /// issuing a duplicate (real firmware and the OS block layer both
    /// dedup concurrent reads of the same page).
    inflight: std::collections::HashMap<u64, SimTime>,
    coalesced: u64,
}

impl FlashArray {
    /// Creates an array with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has zero channels or dies.
    pub fn new(params: FlashParams) -> Self {
        assert!(params.channels > 0, "flash must have at least one channel");
        assert!(params.dies_per_channel > 0, "flash must have dies");
        let dies = (0..params.channels)
            .map(|_| Server::new(params.dies_per_channel))
            .collect();
        let buses = (0..params.channels)
            .map(|_| Link::new(params.channel_bw, SimDuration::ZERO))
            .collect();
        FlashArray {
            params,
            dies,
            buses,
            pages_read: 0,
            inflight: std::collections::HashMap::new(),
            coalesced: 0,
        }
    }

    /// The geometry/timing parameters.
    pub fn params(&self) -> &FlashParams {
        &self.params
    }

    /// Channel that physical page `page` lives on (interleaved).
    #[inline]
    pub fn channel_of(&self, page: PhysPage) -> usize {
        (page.0 % self.params.channels as u64) as usize
    }

    /// Reads one physical page: schedules the sense on a die of the
    /// page's channel, then the transfer on the channel bus. Returns the
    /// time the page is available in the controller's buffer.
    ///
    /// Concurrent requests for a page already in flight coalesce onto
    /// the existing read.
    pub fn read_page(&mut self, at: SimTime, page: PhysPage) -> SimTime {
        if let Some(&done) = self.inflight.get(&page.0) {
            if done > at {
                self.coalesced += 1;
                return done;
            }
        }
        let ch = self.channel_of(page);
        let (_, sensed) = self.dies[ch].schedule(at, self.params.read_latency);
        self.pages_read += 1;
        let done = self.buses[ch].transfer(sensed, self.params.page_bytes);
        if self.inflight.len() >= 4096 {
            self.inflight.retain(|_, &mut d| d > at);
        }
        self.inflight.insert(page.0, done);
        done
    }

    /// Total pages read so far (coalesced joins excluded).
    pub fn pages_read(&self) -> u64 {
        self.pages_read
    }

    /// Requests that coalesced onto an in-flight read.
    pub fn coalesced_reads(&self) -> u64 {
        self.coalesced
    }

    /// Total bytes streamed off the array.
    pub fn bytes_read(&self) -> u64 {
        self.pages_read * self.params.page_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> FlashArray {
        FlashArray::new(FlashParams {
            channels: 2,
            dies_per_channel: 1,
            page_bytes: 4096,
            read_latency: SimDuration::from_micros(50),
            channel_bw: 409_600_000, // page transfer = 10us
        })
    }

    #[test]
    fn single_read_latency_is_sense_plus_transfer() {
        let mut f = small();
        let done = f.read_page(SimTime::ZERO, PhysPage(0));
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_micros(50) + SimDuration::from_micros(10)
        );
        assert_eq!(f.pages_read(), 1);
        assert_eq!(f.bytes_read(), 4096);
    }

    #[test]
    fn different_channels_are_parallel() {
        let mut f = small();
        let a = f.read_page(SimTime::ZERO, PhysPage(0));
        let b = f.read_page(SimTime::ZERO, PhysPage(1));
        assert_eq!(a, b, "channel-parallel reads should complete together");
    }

    #[test]
    fn same_channel_serializes_on_single_die() {
        let mut f = small();
        let a = f.read_page(SimTime::ZERO, PhysPage(0));
        let b = f.read_page(SimTime::ZERO, PhysPage(2)); // same channel 0
        assert!(b > a, "second read on the same die must queue");
        // Sense (50us) queues behind the first: 50+50+10 = 110us total.
        assert_eq!(b, SimTime::ZERO + SimDuration::from_micros(110));
    }

    #[test]
    fn multiple_dies_overlap_sense_but_share_bus() {
        let mut f = FlashArray::new(FlashParams {
            channels: 1,
            dies_per_channel: 2,
            page_bytes: 4096,
            read_latency: SimDuration::from_micros(50),
            channel_bw: 409_600_000,
        });
        let a = f.read_page(SimTime::ZERO, PhysPage(0));
        let b = f.read_page(SimTime::ZERO, PhysPage(1));
        // Both sense in parallel; bus serializes the two 10us transfers.
        assert_eq!(a, SimTime::ZERO + SimDuration::from_micros(60));
        assert_eq!(b, SimTime::ZERO + SimDuration::from_micros(70));
    }

    #[test]
    #[should_panic(expected = "at least one channel")]
    fn zero_channels_panics() {
        FlashArray::new(FlashParams {
            channels: 0,
            ..FlashParams::default()
        });
    }
}
