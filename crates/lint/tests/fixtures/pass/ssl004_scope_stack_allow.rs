// lint-path: crates/core/src/store_metrics.rs

// store_metrics has no file-level exemption: its one sanctioned piece
// of global state — the per-thread scope stack — carries a line-level
// allow, so SSL004 still covers everything else in the module.

use std::cell::RefCell;

// ssl::allow(SSL004): per-thread by design; the guard pops what the
// sweep pushed, so nothing survives it.
thread_local! {
    static SCOPES: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

pub fn depth() -> usize {
    SCOPES.with(|s| s.borrow().len())
}
