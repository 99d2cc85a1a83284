//! Poison-free lock acquisition.
//!
//! `Mutex::lock` returns `Err` only when another thread panicked while
//! holding the guard. Every shared structure in this workspace (page
//! caches, the store registry, the serve batcher queue) is written so
//! that its invariants hold between statements — a panicking peer
//! leaves the data consistent, so the right response to poison is to
//! take the guard anyway, not to propagate a second panic through an
//! otherwise-healthy worker. [`LockExt::safe_lock`] encodes that
//! decision once. The untrusted-input modules deny
//! `clippy::unwrap_used` and `clippy::expect_used`, so an ad-hoc
//! `.lock().expect(…)` there fails clippy.
//!
//! # Lock order
//!
//! Four lock families guard the workspace's shared state:
//!
//! 1. the store registry's per-key locks (`StoreRegistry`: its key map,
//!    then one slot per content key);
//! 2. each store file's page cache (one lock per file);
//! 3. the [`ReadEngine`](crate::ReadEngine) submission queue, and each
//!    submitted batch's completion slots;
//! 4. the serve batcher's queue.
//!
//! The rule is one guard at a time: a guard from one of these families
//! is dropped before any other of them is locked, and none is held
//! while waiting on the read engine. The registry releases its key map
//! before it locks the key's slot. A gather locks its file's page
//! cache twice, to classify and then to publish, and submits its misses
//! between the two with no cache lock held. An engine worker pops a
//! job, releases the queue, reads, then fills the completion. The
//! batcher drains its queue and releases it before executing a window.
//!
//! The serve crate's `Engine` mutex is the one lock held across others,
//! so it is always taken first: under it, a merged execution takes
//! families 2 and 3 one at a time, and `GET /stats` reads the batcher's
//! queue depth.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Poison-free extension to [`Mutex`].
pub trait LockExt<T> {
    /// Acquires the lock, recovering the guard if a previous holder
    /// panicked.
    fn safe_lock(&self) -> MutexGuard<'_, T>;
}

impl<T> LockExt<T> for Mutex<T> {
    fn safe_lock(&self) -> MutexGuard<'_, T> {
        self.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Poison-free extension to [`Condvar`]: waits recover the guard the
/// same way [`LockExt::safe_lock`] does.
pub trait CondvarExt {
    /// [`Condvar::wait`], recovering from poison.
    fn safe_wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T>;

    /// [`Condvar::wait_timeout`], recovering from poison. The bool is
    /// `true` when the wait timed out.
    fn safe_wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool);
}

impl CondvarExt for Condvar {
    fn safe_wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    fn safe_wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        match self.wait_timeout(guard, timeout) {
            Ok((guard, timed_out)) => (guard, timed_out.timed_out()),
            Err(poisoned) => {
                let (guard, timed_out) = poisoned.into_inner();
                (guard, timed_out.timed_out())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Arc, Mutex};

    #[test]
    fn safe_lock_recovers_a_poisoned_mutex() {
        let m = Arc::new(Mutex::new(7u32));
        let poisoner = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.lock().unwrap();
            panic!("poison the lock");
        })
        .join();
        assert!(m.lock().is_err(), "mutex should be poisoned");
        assert_eq!(*m.safe_lock(), 7);
    }
}
