//! CPU memory-hierarchy characterization (paper Fig 5).
//!
//! The paper characterizes in-memory neighbor sampling with Linux `perf`
//! (LLC miss rate) and Intel RDT (DRAM bandwidth utilization), finding 62%
//! average LLC miss rate and only 21% of the 125 GB/s DRAM bandwidth used
//! — the signature of a latency-bound, fine-grained random-access
//! workload. This crate provides the pieces to regenerate that figure
//! from the *actual address trace* of our sampler:
//!
//! * [`cache::SetAssocCache`] — a set-associative, write-allocate
//!   last-level cache model (Xeon Gold 6242-like defaults) whose sets
//!   are the workspace's one exact LRU, `smartsage_sim::CountedLru`,
//! * [`meter::BandwidthMeter`] — achieved-vs-peak DRAM bandwidth
//!   accounting given the miss stream, over the modeled DRAM's peak
//!   bandwidth and line size.

pub mod cache;
pub mod meter;

pub use cache::{CacheParams, SetAssocCache};
pub use meter::BandwidthMeter;
