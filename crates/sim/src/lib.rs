//! Simulation substrate for the SmartSAGE reproduction.
//!
//! This crate provides the small, dependency-free building blocks shared by
//! every simulated subsystem in the workspace:
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`])
//!   with picosecond resolution, so that both sub-nanosecond DRAM transfer
//!   slices and multi-second training epochs are representable exactly.
//! * [`rng`] — deterministic, seedable random number generation
//!   ([`Xoshiro256`]/[`SplitMix64`]) so every experiment is reproducible
//!   bit-for-bit from its seed.
//! * [`events`] — a stable discrete-event queue ([`EventQueue`]) used by the
//!   producer/consumer pipeline simulator.
//! * [`resource`] — capacity-`c` FIFO resource servers ([`Server`]) used to
//!   model contended devices (flash channels, SSD embedded cores, PCIe
//!   links, host CPU cores).
//! * [`bandwidth`] — serialized bandwidth links ([`Link`]) for bulk data
//!   movement (PCIe DMA, flash channel buses).
//! * [`lru`] — the one exact LRU: a key set ([`LruSet`]) with hit/miss
//!   counters ([`CountedLru`]) behind the modeled caches that keep
//!   residency (the SSD page buffer, the LLC sets), and its
//!   payload-carrying form ([`LruMap`]) behind the real ones. The OS
//!   page cache and the scratchpad are no cache here: their lookups
//!   are verdicts drawn at a full-scale rate.
//! * [`rank_set`] — the sorted-distinct integer set ([`RankSet`]) the
//!   paged read path plans and stages pages with, and a sampled batch
//!   lists its distinct nodes with: a bitmap with O(1) ranks when its
//!   values are dense in their span, a sorted list otherwise.
//! * [`stats`] — log-scale histograms ([`Histogram`]) for metric
//!   collection.
//!
//! # Example
//!
//! ```
//! use smartsage_sim::{SimTime, SimDuration, resource::Server};
//!
//! // Two flash channels, three page reads of 50us each arriving together.
//! let mut channels = Server::new(2);
//! let t0 = SimTime::ZERO;
//! let tr = SimDuration::from_micros(50);
//! let (_, e1) = channels.schedule(t0, tr);
//! let (_, e2) = channels.schedule(t0, tr);
//! let (_, e3) = channels.schedule(t0, tr);
//! assert_eq!(e1, t0 + tr);
//! assert_eq!(e2, t0 + tr);
//! assert_eq!(e3, t0 + tr + tr); // third read queues behind a channel
//! ```

pub mod bandwidth;
pub mod events;
pub mod lru;
pub mod rank_set;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use bandwidth::Link;
pub use events::EventQueue;
pub use lru::{CountedLru, LruMap, LruSet};
pub use rank_set::RankSet;
pub use resource::Server;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
