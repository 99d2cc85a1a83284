// lint-path: crates/graph/src/counters_fixture.rs
// expect: SSL004

// New mutable global state makes runs order-dependent and hides data
// flow; keep state in explicit structs.

use std::sync::atomic::AtomicU64;
use std::sync::Mutex;

static SAMPLED: AtomicU64 = AtomicU64::new(0);
static LAST_SEED: Mutex<u64> = Mutex::new(0);

thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(Vec::new());
}
