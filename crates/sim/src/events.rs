//! Discrete-event queue.
//!
//! [`EventQueue`] orders arbitrary payloads by [`SimTime`] with stable FIFO
//! tie-breaking (events scheduled earlier pop first at equal timestamps).
//! The SmartSAGE pipeline simulator uses it to interleave producer workers,
//! the GPU consumer, and device completions on one virtual timeline.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// An entry in the queue: ordered by time, then by insertion sequence.
#[derive(Debug)]
struct Entry<T> {
    at: SimTime,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // and lower sequence number wins ties (FIFO).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// # Example
///
/// ```
/// use smartsage_sim::{EventQueue, SimTime, SimDuration};
///
/// let mut q = EventQueue::new();
/// let t1 = SimTime::ZERO + SimDuration::from_nanos(10);
/// q.schedule(t1, "b");
/// q.schedule(SimTime::ZERO, "a");
/// q.schedule(t1, "c"); // same instant as "b": FIFO order preserved
/// assert_eq!(q.pop(), Some((SimTime::ZERO, "a")));
/// assert_eq!(q.pop(), Some((t1, "b")));
/// assert_eq!(q.pop(), Some((t1, "c")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    next_seq: u64,
    now: SimTime,
}

impl<T> EventQueue<T> {
    /// Creates an empty queue positioned at the epoch.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// Scheduling in the past (before the last popped event) is permitted —
    /// the event fires "now" from the queue's perspective — but indicates a
    /// modelling bug, so it is reported by [`EventQueue::pop`] clamping to
    /// the current front time rather than panicking.
    pub fn schedule(&mut self, at: SimTime, payload: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, advancing the queue's clock.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let entry = self.heap.pop()?;
        // Clamp: virtual time never runs backwards even if a caller
        // scheduled an event in the past.
        let at = entry.at.max(self.now);
        self.now = at;
        Some((at, entry.payload))
    }

    /// Virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn at(us: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_micros(us)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(at(30), 3);
        q.schedule(at(10), 1);
        q.schedule(at(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(at(5), i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_never_runs_backwards() {
        let mut q = EventQueue::new();
        q.schedule(at(10), "late");
        assert_eq!(q.pop().unwrap().0, at(10));
        // Scheduling "in the past" clamps to current time.
        q.schedule(at(5), "past");
        let (t, p) = q.pop().unwrap();
        assert_eq!(p, "past");
        assert_eq!(t, at(10));
        assert_eq!(q.now(), at(10));
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(at(7), ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
