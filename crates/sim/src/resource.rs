//! Contended-resource models.
//!
//! [`Server`] is a capacity-`c` FIFO queueing server on virtual time: jobs
//! are submitted in arrival order with a service duration, and the server
//! reports when each job starts and completes given the number of parallel
//! slots. SmartSAGE uses servers for:
//!
//! * NAND **flash channels** (one slot per channel) — page reads queue
//!   behind busy channels, which is what saturates multi-worker sampling
//!   (paper Fig 16),
//! * SSD **embedded cores** (paper §VI-B) — the dual Cortex-A9 is
//!   time-shared between FTL firmware work and ISP sampling, producing the
//!   declining HW/SW-over-SW speedup of Fig 17,
//! * **host CPU cores** running producer workers, and
//! * **PCIe/DMA engines** (capacity 1, see also [`crate::bandwidth::Link`]).

use crate::time::{SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A FIFO queueing server with `capacity` parallel slots.
///
/// Jobs must be submitted in non-decreasing arrival order (the standard
/// discrete-event pattern); each submission returns `(start, end)` times.
///
/// # Example
///
/// ```
/// use smartsage_sim::{Server, SimTime, SimDuration};
/// let mut core = Server::new(1);
/// let d = SimDuration::from_micros(10);
/// let (s1, e1) = core.schedule(SimTime::ZERO, d);
/// let (s2, e2) = core.schedule(SimTime::ZERO, d);
/// assert_eq!(s1, SimTime::ZERO);
/// assert_eq!(s2, e1); // second job waits for the single slot
/// assert_eq!(e2, e1 + d);
/// ```
#[derive(Debug, Clone)]
pub struct Server {
    capacity: usize,
    /// Completion times of in-flight jobs (at most `capacity` entries).
    busy_until: BinaryHeap<Reverse<SimTime>>,
    busy_time: SimDuration,
    jobs: u64,
    horizon: SimTime,
}

impl Server {
    /// Creates a server with the given number of parallel slots.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "server capacity must be positive");
        Server {
            capacity,
            busy_until: BinaryHeap::new(),
            busy_time: SimDuration::ZERO,
            jobs: 0,
            horizon: SimTime::ZERO,
        }
    }

    /// Number of parallel slots.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Submits a job arriving at `at` with the given `service` time and
    /// returns its `(start, end)` schedule.
    ///
    /// Arrivals need not be globally monotone: pipelined multi-stage
    /// paths produce slightly out-of-order arrivals at downstream
    /// resources, and those are served at their own time when a slot is
    /// free (the standard c-server approximation for an event-driven
    /// caller that submits in near-time-order).
    pub fn schedule(&mut self, at: SimTime, service: SimDuration) -> (SimTime, SimTime) {
        // Retire slots that are free by `at`.
        while let Some(&Reverse(t)) = self.busy_until.peek() {
            if t <= at {
                self.busy_until.pop();
            } else {
                break;
            }
        }
        let start = if self.busy_until.len() < self.capacity {
            at
        } else {
            // All slots busy: wait for the earliest to free up.
            let Reverse(earliest) = self.busy_until.pop().expect("non-empty");
            at.max(earliest)
        };
        let end = start + service;
        self.busy_until.push(Reverse(end));
        self.busy_time += service;
        self.jobs += 1;
        self.horizon = self.horizon.max(end);
        (start, end)
    }

    /// Total service time accumulated across all jobs.
    pub fn busy_time(&self) -> SimDuration {
        self.busy_time
    }

    /// Number of jobs processed.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Completion time of the last-finishing job seen so far.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Utilization over `[SimTime::ZERO, horizon]`: busy slot-time divided
    /// by `capacity × horizon`. Returns 0 when no time has elapsed.
    pub fn utilization(&self) -> f64 {
        let span = self.horizon.since_epoch();
        if span.is_zero() {
            return 0.0;
        }
        self.busy_time.ratio(span.mul_u64(self.capacity as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }
    fn at(n: u64) -> SimTime {
        SimTime::ZERO + us(n)
    }

    #[test]
    fn single_slot_serializes() {
        let mut s = Server::new(1);
        let (a0, a1) = s.schedule(at(0), us(10));
        let (b0, b1) = s.schedule(at(0), us(10));
        let (c0, c1) = s.schedule(at(5), us(10));
        assert_eq!((a0, a1), (at(0), at(10)));
        assert_eq!((b0, b1), (at(10), at(20)));
        assert_eq!((c0, c1), (at(20), at(30)));
    }

    #[test]
    fn parallel_slots_run_concurrently() {
        let mut s = Server::new(4);
        let ends: Vec<SimTime> = (0..4).map(|_| s.schedule(at(0), us(10)).1).collect();
        assert!(ends.iter().all(|&e| e == at(10)));
        // Fifth job queues.
        let (start5, end5) = s.schedule(at(0), us(10));
        assert_eq!(start5, at(10));
        assert_eq!(end5, at(20));
    }

    #[test]
    fn idle_gaps_are_respected() {
        let mut s = Server::new(1);
        s.schedule(at(0), us(10));
        // Arrives after the server went idle: starts immediately.
        let (start, end) = s.schedule(at(100), us(5));
        assert_eq!(start, at(100));
        assert_eq!(end, at(105));
    }

    #[test]
    fn utilization_accounting() {
        let mut s = Server::new(2);
        s.schedule(at(0), us(10));
        s.schedule(at(0), us(10));
        // horizon 10us, busy 20us over 2 slots => 100% utilization
        assert!((s.utilization() - 1.0).abs() < 1e-12);
        s.schedule(at(30), us(10));
        // horizon 40us, busy 30us over 2 slots => 37.5%
        assert!((s.utilization() - 0.375).abs() < 1e-12);
        assert_eq!(s.jobs(), 3);
        assert_eq!(s.busy_time(), us(30));
    }

    #[test]
    fn out_of_order_arrivals_use_free_slots() {
        let mut s = Server::new(1);
        s.schedule(at(10), us(1));
        // A slightly earlier arrival is served at its own time when the
        // slot appears free from its perspective... the slot is busy
        // [10, 11), so this queues behind it.
        let (start, _) = s.schedule(at(5), us(1));
        assert_eq!(start, at(11));
        // After everything drains, a late arrival starts immediately.
        let (start2, _) = s.schedule(at(50), us(1));
        assert_eq!(start2, at(50));
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_panics() {
        Server::new(0);
    }
}
