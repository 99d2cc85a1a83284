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
//!   counters ([`CountedLru`]) behind every modeled cache (OS page
//!   cache, scratchpads, SSD page buffer), and its payload-carrying
//!   form ([`LruMap`]) behind the real ones.
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

#![forbid(unsafe_code)]

pub mod bandwidth;
pub mod events;
pub mod lru;
pub mod resource;
pub mod rng;
pub mod stats;
pub mod time;

pub use bandwidth::Link;
pub use events::EventQueue;
pub use lru::{CountedLru, LruMap, LruSet};
pub use resource::Server;
pub use rng::{SplitMix64, Xoshiro256};
pub use stats::Histogram;
pub use time::{SimDuration, SimTime};
