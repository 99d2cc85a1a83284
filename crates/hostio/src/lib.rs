//! Host I/O software-stack models for the SmartSAGE reproduction.
//!
//! The paper's software contribution is a *latency-optimized* host stack:
//! it observes that the OS page cache — the locality machinery behind
//! `mmap` — costs tens of microseconds per miss in kernel overheads while
//! providing little locality benefit for neighbor sampling, and replaces
//! it with direct I/O into a user-space scratchpad plus NVMe command
//! coalescing (paper §IV-C, Fig 12).
//!
//! This crate models both paths:
//!
//! * [`layout::GraphFile`] — the on-SSD byte layout of the graph (the
//!   offset table, then the neighbor edge-list array), mapping nodes to
//!   logical block addresses; the store's real `SSGRPH01` file is this
//!   same layout placed after its header.
//! * [`HostPath`] — the one modeled host read of an edge-list chunk:
//!   `SSD (mmap)` (a page fault per missing 4 KiB page, minor-hit costs)
//!   and SmartSAGE(SW) (one `O_DIRECT` syscall per missing run, a
//!   user-space scratchpad) differ only in the software around the same
//!   block reads. The host caches are not modeled exactly: each access
//!   carries a hit verdict drawn at the [`locality`] rate.
//! * [`LruSet`] — the generic exact-LRU key set (it lives in
//!   `smartsage-sim`; re-exported here).
//! * [`engine::ReadEngine`] — the submission-queue batched read engine:
//!   a fixed pool of I/O workers executing positioned reads
//!   concurrently per file, with an order-preserving completion handle
//!   so batched results stay bit-identical to serial reads.
//! * [`coalesce`] — page-run merging: a batch's page reads coalesced
//!   into one read per contiguous run. No product path calls it (a
//!   paged read plans its pages as a `RankSet`); it is kept only for
//!   the frozen benchmark's coalesce probe, until the benchmark drops
//!   it.
//! * [`locality`] — Che's approximation for LRU hit rates at *full-scale*
//!   capacities. Scaled-down materializations would otherwise overstate
//!   locality (a thousand-node graph fits in any cache); experiments
//!   instead impose the hit probability the cache would achieve at the
//!   dataset's true size.

#![warn(missing_docs)]

pub mod coalesce;
pub mod engine;
pub mod host_path;
pub mod layout;
pub mod locality;
pub mod params;
#[doc(hidden)]
pub mod sharded_cache;
pub mod sync;

pub use coalesce::{merge_page_runs, PageRun};
pub use engine::{Completion, EngineStats, ReadEngine, ReadRequest, ReadSource};
pub use host_path::{HostPath, HostRead};
pub use layout::{ByteRange, GraphFile};
pub use locality::lru_hit_rate;
pub use params::HostIoParams;
#[doc(hidden)]
pub use sharded_cache::ShardedPageCache;
pub use smartsage_sim::LruSet;
pub use sync::{CondvarExt, LockExt};
