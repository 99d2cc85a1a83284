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
//! * [`layout::GraphFile`] — the on-SSD byte layout of the neighbor
//!   edge-list array (and feature table), mapping nodes to logical block
//!   addresses.
//! * [`LruSet`] — the generic exact-LRU under both host caches (it
//!   lives in `smartsage-sim`; re-exported here). The OS page cache and
//!   the scratchpad are each a `smartsage_sim::CountedLru<u64>` — the
//!   one counted model cache, shared with the SSD page buffer — held by
//!   their reader.
//! * [`mmap::MmapReader`] — the baseline `SSD (mmap)` read path: the OS
//!   page cache over 4 KiB pages, page faults with kernel-crossing
//!   costs, minor-hit costs.
//! * [`direct_io::DirectIoReader`] — SmartSAGE(SW)'s `O_DIRECT` path with
//!   a user-space scratchpad buffer.
//! * [`sharded_cache::ShardedPageCache`] — a lock-striped payload page
//!   cache (N exact-LRU shards) for the *shared* feature store, so
//!   parallel gathers don't serialize on one cache lock.
//! * [`engine::ReadEngine`] — the submission-queue batched read engine:
//!   a fixed pool of I/O workers executing positioned reads
//!   concurrently per file, with an order-preserving completion handle
//!   so batched results stay bit-identical to serial reads.
//! * [`coalesce`] — NVMe command coalescing cost model (Fig 15).
//! * [`locality`] — Che's approximation for LRU hit rates at *full-scale*
//!   capacities. Scaled-down materializations would otherwise overstate
//!   locality (a thousand-node graph fits in any cache); experiments
//!   instead impose the hit probability the cache would achieve at the
//!   dataset's true size.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod direct_io;
pub mod engine;
pub mod layout;
pub mod locality;
pub mod mmap;
pub mod params;
pub mod sharded_cache;
pub mod sync;

pub use coalesce::{merge_page_runs, PageRun};
pub use direct_io::DirectIoReader;
pub use engine::{Completion, EngineStats, ReadEngine, ReadRequest, ReadSource};
pub use layout::{ByteRange, GraphFile};
pub use locality::lru_hit_rate;
pub use mmap::MmapReader;
pub use params::HostIoParams;
pub use sharded_cache::ShardedPageCache;
pub use smartsage_sim::LruSet;
pub use sync::{CondvarExt, LockExt};
