//! Storage device models for the SmartSAGE reproduction.
//!
//! The paper's hardware platform is the Cosmos+ OpenSSD: a full NVMe flash
//! SSD whose firmware runs on a dual-core ARM Cortex-A9 and which exposes
//! 2 TB of NAND behind a PCIe gen2 x8 link (paper §V). This crate models
//! that device — and the DRAM/PMEM alternatives of §VI-C — at the
//! granularity the paper's results depend on:
//!
//! * [`flash`] — NAND channels and dies: cell-read latency (`tR`) in the
//!   die array, then page transfer over the per-channel bus. Channel
//!   parallelism is what gives the ISP its internal-bandwidth advantage;
//!   channel saturation is what compresses multi-worker gains (Fig 16).
//! * [`ftl`] — logical→physical translation with a deterministic striping
//!   layout and a per-request firmware cost.
//! * [`pagebuf`] — the SSD's DRAM page buffer (an LRU cache of flash
//!   pages). In-storage sampling reads *from this buffer* (paper Fig 8).
//! * [`cores`] — the embedded processor cores, time-shared between
//!   baseline firmware work and ISP sampling. Their saturation under
//!   concurrent workers reproduces Fig 17's declining speedup.
//! * [`nvme`] — NVMe command cost model (submission/completion,
//!   in-firmware handling, polling-loop pickup latency).
//! * [`ssd`] — the composed device, plus its PCIe link, and the one
//!   in-device page path every model runs: [`Ssd::fetch_page`] (FTL
//!   translate → page-buffer lookup → flash read on a miss).
//! * [`memdev`] — DRAM and Optane-PMEM main-memory device models used by
//!   the in-memory baselines.
//!
//! All components are *virtual-time* models: methods take a
//! [`smartsage_sim::SimTime`] arrival and return completion times while
//! accumulating contention in shared [`smartsage_sim::Server`]s and
//! [`smartsage_sim::Link`]s.

#![forbid(unsafe_code)]

pub mod cores;
pub mod flash;
pub mod ftl;
pub mod memdev;
pub mod nvme;
pub mod pagebuf;
pub mod ssd;

pub use cores::EmbeddedCores;
pub use flash::{FlashArray, FlashParams};
pub use ftl::{Ftl, FtlParams};
pub use memdev::{MemDevice, MemDeviceParams};
pub use nvme::NvmeParams;
pub use pagebuf::PageBuffer;
pub use ssd::{Ssd, SsdParams};
