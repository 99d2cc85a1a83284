//! Scoped feature-store I/O accounting.
//!
//! Experiment drivers return typed tables, not pipeline reports, so
//! per-run [`StoreStats`] need a side channel to reach sweep consumers
//! (the `reproduce` CLI). That channel is *scoped*, never
//! process-global — a second sweep in the same process must not report
//! the first sweep's bytes on top of its own, and concurrent sweeps
//! must not contaminate each other. A sweep installs a [`SweepScope`]
//! on each of its worker threads (see
//! [`Runner::sweep`](crate::runner::Runner::sweep)): shared
//! [`StoreStats`] accumulators plus the sweep's private
//! [`StoreRegistry`]. Every pipeline run [`record`]s its exact per-run
//! counters into the scopes on its thread, and [`current_registry`]
//! routes the run's store opens through the sweep's registry — one
//! shared store and one page cache per sweep, zero leakage between
//! sweeps. Consumers read
//! [`SweepOutcome::store_stats`](crate::runner::SweepOutcome).

use smartsage_hostio::LockExt;
use smartsage_store::{StoreRegistry, StoreStats};
use std::cell::RefCell;
use std::sync::{Arc, Mutex};

// ssl::allow(SSL004): the scope stack is per-thread by design — a
// sweep installs its scope on each worker thread and the guard pops
// it, so nothing survives the sweep that pushed it.
thread_local! {
    /// Innermost-last stack of scopes installed on this thread.
    static SCOPES: RefCell<Vec<SweepScope>> = const { RefCell::new(Vec::new()) };
}

/// The per-sweep accounting context a [`Runner`](crate::runner::Runner)
/// installs on its worker threads.
#[derive(Debug, Clone)]
pub struct SweepScope {
    /// Where this sweep's per-run feature-store stats accumulate.
    pub stats: Arc<Mutex<StoreStats>>,
    /// Where this sweep's per-run graph-topology stats accumulate —
    /// kept separate from the feature side so a sweep's report can
    /// split the two halves of the dataset.
    pub topology: Arc<Mutex<StoreStats>>,
    /// The sweep's private store registry: every job of the sweep
    /// shares one open store (feature file and graph file alike) and
    /// one page cache per content key through it.
    pub registry: Arc<StoreRegistry>,
    /// Per-shard feature-store breakdown of sharded runs, accumulated
    /// index-wise (shard `i` of every run adds into entry `i`). Empty
    /// unless the sweep ran with more than one shard.
    pub store_shards: Arc<Mutex<Vec<StoreStats>>>,
    /// Per-shard graph-topology breakdown, mirroring `store_shards`.
    pub topology_shards: Arc<Mutex<Vec<StoreStats>>>,
}

impl SweepScope {
    /// A fresh scope with zeroed accumulators and an empty private
    /// registry.
    pub fn new() -> SweepScope {
        SweepScope {
            stats: Arc::default(),
            topology: Arc::default(),
            registry: Arc::new(StoreRegistry::new()),
            store_shards: Arc::default(),
            topology_shards: Arc::default(),
        }
    }

    /// The accumulated per-shard feature-store breakdown.
    pub fn store_shards_snapshot(&self) -> Vec<StoreStats> {
        self.store_shards.safe_lock().clone()
    }

    /// The accumulated per-shard graph-topology breakdown.
    pub fn topology_shards_snapshot(&self) -> Vec<StoreStats> {
        self.topology_shards.safe_lock().clone()
    }
}

/// Adds `per_shard` index-wise into `acc`, growing it as needed.
fn accumulate_shards(acc: &Mutex<Vec<StoreStats>>, per_shard: &[StoreStats]) {
    let mut acc = acc.safe_lock();
    if acc.len() < per_shard.len() {
        acc.resize(per_shard.len(), StoreStats::default());
    }
    for (slot, shard) in acc.iter_mut().zip(per_shard) {
        slot.accumulate(shard);
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

/// Runs `add` on every scope active on this thread. A run records
/// once, at its end, so the accumulators' locks are never contended
/// for long; a recorder that panicked mid-add leaves whole integer
/// adds behind, so a recovered accumulator is still valid.
fn each_scope(add: impl Fn(&SweepScope)) {
    SCOPES.with(|s| s.borrow().iter().for_each(add));
}

/// Adds one run's exact feature-store counters to every active scope
/// on this thread.
pub fn record(stats: &StoreStats) {
    each_scope(|scope| scope.stats.safe_lock().accumulate(stats));
}

/// Adds one run's exact graph-topology counters to every active scope
/// on this thread.
pub fn record_topology(stats: &StoreStats) {
    each_scope(|scope| scope.topology.safe_lock().accumulate(stats));
}

/// Adds one sharded run's per-device feature-store breakdown to every
/// active scope on this thread, index-wise (shard `i` into entry `i`).
pub fn record_shards(per_shard: &[StoreStats]) {
    each_scope(|scope| accumulate_shards(&scope.store_shards, per_shard));
}

/// Adds one sharded run's per-device graph-topology breakdown to every
/// active scope on this thread, mirroring [`record_shards`].
pub fn record_topology_shards(per_shard: &[StoreStats]) {
    each_scope(|scope| accumulate_shards(&scope.topology_shards, per_shard));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scopes_capture_only_their_own_records() {
        let one = StoreStats {
            gathers: 1,
            bytes_read: 10,
            ..StoreStats::default()
        };
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
        assert_eq!(outer.stats.safe_lock().gathers, 3);
        assert_eq!(
            inner.stats.safe_lock().gathers,
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
                record(&StoreStats {
                    gathers: 5,
                    ..StoreStats::default()
                });
            });
        });
        assert_eq!(
            scope.stats.safe_lock().gathers,
            0,
            "other threads' records don't reach this scope"
        );
    }
}
