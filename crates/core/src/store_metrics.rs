//! Scoped store I/O accounting.
//!
//! Experiment drivers return typed tables, not pipeline reports, so
//! per-run I/O needs a side channel to reach sweep consumers (the
//! `reproduce` CLI). That channel is *scoped*, never process-global — a
//! second sweep in the same process must not report the first sweep's
//! bytes on top of its own, and concurrent sweeps must not contaminate
//! each other. A sweep installs a [`SweepScope`] on each of its worker
//! threads (see [`Runner::sweep`](crate::runner::Runner::sweep)): one
//! shared [`RunIo`] accumulator plus the sweep's private
//! [`StoreRegistry`]. Every real pass [`record`]s its run's [`RunIo`]
//! into the scopes on its thread, and [`current_registry`] routes the
//! run's store opens through the sweep's registry — one shared store
//! and one page cache per sweep, zero leakage between sweeps. Consumers
//! read [`SweepOutcome::io`](crate::runner::SweepOutcome).

use smartsage_hostio::LockExt;
use smartsage_store::{StoreRegistry, StoreStats};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

// The scope stack is per-thread by design: a sweep installs its scope
// on each worker thread and the guard pops it, so nothing survives the
// sweep that pushed it.
thread_local! {
    /// Innermost-last stack of scopes installed on this thread.
    #[expect(clippy::disallowed_types, reason = "a sweep's guard pops its scope")]
    static SCOPES: RefCell<Vec<SweepScope>> = const { RefCell::new(Vec::new()) };
}

/// One dataset axis's exact I/O, of a run or summed over a sweep.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxisIo {
    /// The axis's counters: what its tier answered and read.
    pub total: StoreStats,
    /// The per-device breakdown of a sharded run: entry `i` is shard
    /// `i`'s counters. The I/O-level fields (and `nodes_gathered` /
    /// `feature_bytes`) sum exactly to `total`; per-shard `gathers`
    /// counts the sub-calls routed to that device. Empty at one device,
    /// where it would only repeat the totals.
    pub shards: Vec<StoreStats>,
}

impl AxisIo {
    /// Adds `other` in: the totals, and the breakdowns index-wise
    /// (shard `i` into entry `i`, growing as needed).
    pub fn accumulate(&mut self, other: &AxisIo) {
        self.total.accumulate(&other.total);
        if self.shards.len() < other.shards.len() {
            self.shards
                .resize(other.shards.len(), StoreStats::default());
        }
        for (slot, shard) in self.shards.iter_mut().zip(&other.shards) {
            slot.accumulate(shard);
        }
    }
}

/// The exact I/O of one run's real pass, or of a whole sweep: the
/// feature axis (gathers) and the topology axis (sampling reads).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunIo {
    /// What gathering the batches' features read.
    pub features: AxisIo,
    /// What sampling the batches read of the graph.
    pub topology: AxisIo,
}

impl RunIo {
    /// Adds `other` in, axis by axis.
    pub fn accumulate(&mut self, other: &RunIo) {
        self.features.accumulate(&other.features);
        self.topology.accumulate(&other.topology);
    }
}

/// The per-sweep accounting context a [`Runner`](crate::runner::Runner)
/// installs on its worker threads.
#[derive(Debug, Clone)]
pub struct SweepScope {
    /// The sweep's private store registry: every job of the sweep
    /// shares one open store (feature file and graph file alike) and
    /// one page cache per content key through it.
    pub registry: Arc<StoreRegistry>,
    /// Where this sweep's runs' I/O accumulates.
    pub io: Arc<Mutex<RunIo>>,
}

impl SweepScope {
    /// A fresh scope with a zeroed accumulator and an empty private
    /// registry.
    pub fn new() -> SweepScope {
        SweepScope {
            registry: Arc::new(StoreRegistry::new()),
            io: Arc::default(),
        }
    }

    // The two breakdown snapshots stay while `benchmark/` calls them.
    #[doc(hidden)]
    pub fn store_shards_snapshot(&self) -> Vec<StoreStats> {
        self.io.safe_lock().features.shards.clone()
    }

    #[doc(hidden)]
    pub fn topology_shards_snapshot(&self) -> Vec<StoreStats> {
        self.io.safe_lock().topology.shards.clone()
    }
}

impl Default for SweepScope {
    fn default() -> Self {
        SweepScope::new()
    }
}

/// Pops the scope on drop, restoring whatever was installed before.
#[derive(Debug)]
pub struct ScopeGuard(());

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        SCOPES.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// Installs `scope` as this thread's innermost accounting scope until
/// the returned guard drops. Scopes nest; [`record`] feeds every
/// active scope on the thread, [`current_registry`] answers with the
/// innermost one.
pub fn install_scope(scope: SweepScope) -> ScopeGuard {
    SCOPES.with(|s| s.borrow_mut().push(scope));
    ScopeGuard(())
}

/// The store registry pipeline runs on this thread should open stores
/// through: the innermost scope's, or the process-wide
/// [`StoreRegistry::global`] when no sweep is active.
pub fn current_registry() -> Option<Arc<StoreRegistry>> {
    SCOPES.with(|s| s.borrow().last().map(|scope| Arc::clone(&scope.registry)))
}

/// Adds one run's exact I/O to every scope active on this thread. A
/// run records once, at its end, so the accumulators' locks are never
/// contended for long; a recorder that panicked mid-add leaves whole
/// integer adds behind, so a recovered accumulator is still valid.
pub fn record(io: &RunIo) {
    SCOPES.with(|s| {
        for scope in s.borrow().iter() {
            scope.io.safe_lock().accumulate(io);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gathers(n: u64) -> RunIo {
        let mut io = RunIo::default();
        io.features.total.gathers = n;
        io
    }

    #[test]
    fn scopes_capture_only_their_own_records() {
        let one = gathers(1);
        let outer = SweepScope::new();
        let inner = SweepScope::new();
        {
            let _g1 = install_scope(outer.clone());
            record(&one);
            {
                let _g2 = install_scope(inner.clone());
                record(&one);
                assert!(Arc::ptr_eq(&current_registry().unwrap(), &inner.registry));
            }
            record(&one);
            assert!(Arc::ptr_eq(&current_registry().unwrap(), &outer.registry));
        }
        record(&one); // outside any scope: nobody sees it
        assert_eq!(outer.io.safe_lock().features.total.gathers, 3);
        assert_eq!(
            inner.io.safe_lock().features.total.gathers,
            1,
            "nested records feed both"
        );
        assert!(current_registry().is_none());
    }

    #[test]
    fn scopes_are_thread_local() {
        let scope = SweepScope::new();
        let _g = install_scope(scope.clone());
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(
                    current_registry().is_none(),
                    "a scope never leaks onto other threads"
                );
                record(&gathers(5));
            });
        });
        assert_eq!(
            scope.io.safe_lock().features.total.gathers,
            0,
            "other threads' records don't reach this scope"
        );
    }

    #[test]
    fn breakdowns_accumulate_index_wise_and_grow() {
        let shard = |gathers| StoreStats {
            gathers,
            ..StoreStats::default()
        };
        let mut sum = RunIo::default();
        let mut run = RunIo::default();
        run.topology.shards = vec![shard(1), shard(2)];
        sum.accumulate(&run);
        run.topology.shards.push(shard(4));
        sum.accumulate(&run);
        assert_eq!(sum.topology.shards, [shard(2), shard(4), shard(4)]);
        assert!(
            sum.features.shards.is_empty(),
            "an unsharded axis stays empty"
        );
    }
}
