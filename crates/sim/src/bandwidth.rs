//! Serialized bandwidth links.
//!
//! [`Link`] models a shared interconnect (PCIe channel, flash channel bus,
//! DMA engine) as a pipe with a fixed per-transfer latency and a byte
//! bandwidth. Transfers occupy the pipe exclusively; latency overlaps with
//! the next transfer's occupancy (standard store-and-forward pipelining).
//!
//! # Out-of-order arrivals
//!
//! The event-driven simulator processes each worker's multi-stage access
//! as one event, projecting downstream stage times into the near future.
//! Arrivals at a shared link are therefore only *approximately* time
//! ordered. The link keeps a short list of future reservations and
//! places each transfer into the **earliest gap** that fits at or after
//! its arrival — so a 1 µs transfer arriving "before" a far-future
//! reservation is not artificially queued behind it (which would
//! serialize independent workers in lockstep).

use crate::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// A serialized bandwidth link.
///
/// # Example
///
/// ```
/// use smartsage_sim::{Link, SimTime, SimDuration};
/// // PCIe gen2 x8: ~3.2 GB/s effective, 1us per-transfer latency.
/// let mut pcie = Link::new(3_200_000_000, SimDuration::from_micros(1));
/// let done = pcie.transfer(SimTime::ZERO, 3_200_000); // 1 MB
/// // 1 MB / 3.2 GB/s = 1 ms occupancy + 1 us latency
/// assert_eq!(done.elapsed_since(SimTime::ZERO), SimDuration::from_micros(1001));
/// ```
#[derive(Debug, Clone)]
pub struct Link {
    bytes_per_sec: u64,
    latency: SimDuration,
    /// Future wire reservations, sorted by start time.
    reservations: VecDeque<(SimTime, SimTime)>,
    bytes_moved: u64,
    transfers: u64,
    busy_time: SimDuration,
    horizon: SimTime,
}

impl Link {
    /// Creates a link with the given bandwidth (bytes per second) and fixed
    /// per-transfer latency.
    ///
    /// # Panics
    ///
    /// Panics if `bytes_per_sec` is zero.
    pub fn new(bytes_per_sec: u64, latency: SimDuration) -> Self {
        assert!(bytes_per_sec > 0, "link bandwidth must be positive");
        Link {
            bytes_per_sec,
            latency,
            reservations: VecDeque::new(),
            bytes_moved: 0,
            transfers: 0,
            busy_time: SimDuration::ZERO,
            horizon: SimTime::ZERO,
        }
    }

    /// Time the wire is occupied moving `bytes` (excludes latency).
    pub fn occupancy(&self, bytes: u64) -> SimDuration {
        // ps = bytes * 1e12 / B/s, computed in u128 to avoid overflow.
        let ps = (bytes as u128 * 1_000_000_000_000u128) / self.bytes_per_sec as u128;
        SimDuration::from_picos(ps as u64)
    }

    /// Schedules a transfer of `bytes` starting no earlier than `at`;
    /// returns the completion time (data fully delivered).
    ///
    /// The transfer occupies the earliest wire gap that fits.
    pub fn transfer(&mut self, at: SimTime, bytes: u64) -> SimTime {
        let occ = self.occupancy(bytes);
        // Prune reservations that ended before this arrival — they can
        // never conflict with it or anything later we will be asked for.
        while let Some(&(_, end)) = self.reservations.front() {
            if end <= at {
                self.reservations.pop_front();
            } else {
                break;
            }
        }
        // First-fit gap search.
        let mut start = at;
        let mut index = self.reservations.len();
        for (i, &(s, e)) in self.reservations.iter().enumerate() {
            if start + occ <= s {
                index = i;
                break;
            }
            start = start.max(e);
        }
        self.reservations.insert(index, (start, start + occ));
        self.bytes_moved += bytes;
        self.transfers += 1;
        self.busy_time += occ;
        let end = start + occ;
        self.horizon = self.horizon.max(end);
        end + self.latency
    }

    /// Total bytes moved.
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_moved
    }

    /// Number of transfers performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total wire-occupancy time.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Link bandwidth in bytes per second.
    pub fn bytes_per_sec(&self) -> u64 {
        self.bytes_per_sec
    }

    /// Per-transfer latency.
    pub fn latency(&self) -> SimDuration {
        self.latency
    }

    /// Clears counters and frees the wire, keeping the link parameters.
    pub fn reset(&mut self) {
        self.reservations.clear();
        self.bytes_moved = 0;
        self.transfers = 0;
        self.busy_time = SimDuration::ZERO;
        self.horizon = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_scales_with_bytes() {
        let link = Link::new(1_000_000_000, SimDuration::ZERO); // 1 GB/s
        assert_eq!(link.occupancy(1_000_000), SimDuration::from_millis(1));
        assert_eq!(link.occupancy(1), SimDuration::from_nanos(1));
        assert_eq!(link.occupancy(0), SimDuration::ZERO);
    }

    #[test]
    fn transfers_serialize_on_the_wire() {
        let mut link = Link::new(1_000_000_000, SimDuration::from_micros(2));
        let t0 = SimTime::ZERO;
        let d1 = link.transfer(t0, 1_000_000); // occupies [0, 1ms)
        let d2 = link.transfer(t0, 1_000_000); // occupies [1ms, 2ms)
        assert_eq!(
            d1,
            t0 + SimDuration::from_millis(1) + SimDuration::from_micros(2)
        );
        assert_eq!(
            d2,
            t0 + SimDuration::from_millis(2) + SimDuration::from_micros(2)
        );
        assert_eq!(link.bytes_moved(), 2_000_000);
        assert_eq!(link.transfers(), 2);
        assert_eq!(link.busy_time(), SimDuration::from_millis(2));
    }

    #[test]
    fn gaps_leave_the_wire_idle() {
        let mut link = Link::new(1_000_000_000, SimDuration::ZERO);
        link.transfer(SimTime::ZERO, 1000); // done at 1us
        let late = SimTime::ZERO + SimDuration::from_millis(5);
        let done = link.transfer(late, 1000);
        assert_eq!(done, late + SimDuration::from_micros(1));
    }

    #[test]
    fn small_transfer_backfills_before_future_reservation() {
        let mut link = Link::new(1_000_000_000, SimDuration::ZERO);
        // A far-future reservation [5ms, 6ms)...
        let future = SimTime::ZERO + SimDuration::from_millis(5);
        link.transfer(future, 1_000_000);
        // ...must not delay an earlier 1us transfer that fits before it.
        let done = link.transfer(SimTime::ZERO, 1000);
        assert_eq!(done, SimTime::ZERO + SimDuration::from_micros(1));
        // And a transfer too big for the gap queues after the reservation.
        let big = link.transfer(SimTime::ZERO + SimDuration::from_micros(1), 5_000_000);
        assert_eq!(
            big,
            future + SimDuration::from_millis(1) + SimDuration::from_millis(5)
        );
    }

    #[test]
    fn mid_gap_backfill() {
        let mut link = Link::new(1_000_000, SimDuration::ZERO); // 1 MB/s: 1ms per KB
        let t = |ms: u64| SimTime::ZERO + SimDuration::from_millis(ms);
        link.transfer(t(0), 1000); // [0, 1ms)
        link.transfer(t(10), 1000); // [10, 11ms)
                                    // 1ms transfer arriving at 2ms fits in the [1, 10) gap.
        let done = link.transfer(t(2), 1000);
        assert_eq!(done, t(3));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut link = Link::new(500, SimDuration::from_nanos(5));
        link.transfer(SimTime::ZERO, 500);
        link.reset();
        assert_eq!(link.bytes_moved(), 0);
        assert_eq!(link.latency(), SimDuration::from_nanos(5));
        assert_eq!(link.bytes_per_sec(), 500);
        let done = link.transfer(SimTime::ZERO, 500);
        assert_eq!(
            done,
            SimTime::ZERO + SimDuration::from_secs(1) + SimDuration::from_nanos(5)
        );
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_panics() {
        Link::new(0, SimDuration::ZERO);
    }
}
