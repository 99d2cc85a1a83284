//! System configurations for the seven designs the paper compares.

use smartsage_gnn::GpuParams;
use smartsage_hostio::HostIoParams;
use smartsage_sim::SimDuration;
use smartsage_storage::cores::CoreParams;
use smartsage_storage::memdev::MemDeviceParams;
use smartsage_storage::ssd::SsdParams;

/// The training-system design points of the evaluation (paper §VI).
/// `Ord` follows declaration order so keyed collections iterate in the
/// paper's system order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SystemKind {
    /// Oracular in-memory baseline: edge list entirely in DRAM (§VI-C).
    Dram,
    /// Intel Optane DC PMEM holds the edge list (§VI-C).
    Pmem,
    /// Baseline SSD-centric system: mmap + OS page cache (§III-C).
    SsdMmap,
    /// SmartSAGE software-only: direct I/O + scratchpad, no ISP (§IV-C).
    SmartSageSw,
    /// Full SmartSAGE: direct I/O + command coalescing + firmware ISP.
    SmartSageHwSw,
    /// SmartSAGE on a CSD with dedicated ISP cores (Newport-like, §VI-C).
    SmartSageOracle,
    /// FPGA-based CSD with two-step P2P transfers (§VI-D).
    FpgaCsd,
}

impl SystemKind {
    /// All systems in the paper's Fig 18 presentation order.
    pub const ALL: [SystemKind; 7] = [
        SystemKind::SsdMmap,
        SystemKind::SmartSageSw,
        SystemKind::SmartSageHwSw,
        SystemKind::SmartSageOracle,
        SystemKind::Pmem,
        SystemKind::Dram,
        SystemKind::FpgaCsd,
    ];

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::Dram => "DRAM",
            SystemKind::Pmem => "PMEM",
            SystemKind::SsdMmap => "SSD (mmap)",
            SystemKind::SmartSageSw => "SmartSAGE (SW)",
            SystemKind::SmartSageHwSw => "SmartSAGE (HW/SW)",
            SystemKind::SmartSageOracle => "SmartSAGE (oracle)",
            SystemKind::FpgaCsd => "FPGA-CSD",
        }
    }

    /// Whether the edge-list array lives on the SSD for this system.
    pub fn edge_list_on_ssd(self) -> bool {
        !matches!(self, SystemKind::Dram | SystemKind::Pmem)
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// FPGA-based CSD parameters (Samsung-Xilinx SmartSSD-like, §VI-D).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaParams {
    /// SSD→FPGA P2P bandwidth over the in-device PCIe switch (bytes/s).
    pub p2p_bytes_per_sec: u64,
    /// Per-P2P-transfer latency (NVMe read issued by the FPGA shell
    /// through the device's block interface).
    pub p2p_latency: SimDuration,
    /// Outstanding P2P reads the FPGA shell sustains. SmartSSD's P2P path
    /// goes through ordinary NVMe block reads from the FPGA host-channel
    /// — far shallower queueing than the firmware's internal flash queue,
    /// which is precisely why the two-step design loses (Fig 19).
    pub p2p_queue_depth: usize,
    /// FPGA gather-unit cost per sampled neighbor.
    pub sample_cost: SimDuration,
    /// FPGA kernel invocation overhead per command batch.
    pub kernel_overhead: SimDuration,
}

impl Default for FpgaParams {
    fn default() -> Self {
        FpgaParams {
            p2p_bytes_per_sec: 3_000_000_000,
            p2p_latency: SimDuration::from_micros(80),
            p2p_queue_depth: 2,
            sample_cost: SimDuration::from_nanos(20),
            kernel_overhead: SimDuration::from_micros(50),
        }
    }
}

/// Every device/stack parameter of one experiment run.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceParams {
    /// The SSD (shared by all SSD-backed systems).
    pub ssd: SsdParams,
    /// Host software stack costs.
    pub hostio: HostIoParams,
    /// Host DRAM (features always live here; edge list too under `Dram`).
    pub dram: MemDeviceParams,
    /// Optane PMEM (edge list under `Pmem`).
    pub pmem: MemDeviceParams,
    /// GPU + host→GPU link.
    pub gpu: GpuParams,
    /// FPGA-CSD parameters.
    pub fpga: FpgaParams,
    /// Host DRAM capacity available for the OS page cache at full scale
    /// (the paper's machine has 192 GB total).
    pub host_cache_bytes: u64,
    /// User-space scratchpad capacity at full scale (SmartSAGE SW).
    pub scratchpad_bytes: u64,
    /// SSD DRAM page-buffer capacity at full scale.
    pub ssd_buffer_bytes: u64,
    /// Embedded cores used by the oracle CSD (dedicated, faster complex).
    pub oracle_cores: CoreParams,
    /// Flash-read queue depth the ISP subgraph generator sustains
    /// (pending flash page request queue, Fig 11 step 3).
    pub isp_queue_depth: usize,
    /// Embedded-core work per sampled neighbor during in-storage sampling.
    pub isp_sample_cost: SimDuration,
    /// Embedded-core work per edge-list access (chunk locate + offset
    /// lookup in SSD DRAM + bookkeeping).
    pub isp_access_cost: SimDuration,
}

impl Default for DeviceParams {
    fn default() -> Self {
        DeviceParams {
            ssd: SsdParams::default(),
            hostio: HostIoParams::default(),
            dram: MemDeviceParams::dram(),
            pmem: MemDeviceParams::pmem(),
            gpu: GpuParams::default(),
            fpga: FpgaParams::default(),
            // Of the machine's 192 GB, the DRAM-resident feature table
            // (up to 91 GB), framework state, pinned staging buffers and
            // worker heaps leave only a modest slice for edge-list
            // caching during active training — the paper's premise that
            // the page cache "is rarely useful" (§III-C). Both cache
            // budgets get the same slice; the SW design's advantage is
            // that it caches bare chunks (no page-granular waste) behind
            // a 3 us syscall instead of a 16 us fault.
            host_cache_bytes: 16 * 1024 * 1024 * 1024,
            scratchpad_bytes: 16 * 1024 * 1024 * 1024,
            ssd_buffer_bytes: 2 * 1024 * 1024 * 1024, // 2 GB device DRAM
            oracle_cores: CoreParams {
                cores: 4,
                firmware_share: 0.0,
                speed_vs_host: 0.5,
            },
            isp_queue_depth: 4,
            isp_sample_cost: SimDuration::from_nanos(350),
            isp_access_cost: SimDuration::from_nanos(1000),
        }
    }
}

/// A complete system configuration: which design point plus its knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct SystemConfig {
    /// The design point.
    pub kind: SystemKind,
    /// NVMe command coalescing granularity in targets per command
    /// (Fig 15's sweep; 1024 = whole batch, the default).
    pub coalescing_granularity: u32,
    /// Device and stack parameters (the SSD's PCIe link is
    /// `devices.ssd.pcie`).
    pub devices: DeviceParams,
}

impl SystemConfig {
    /// Default configuration for a design point.
    pub fn new(kind: SystemKind) -> Self {
        SystemConfig {
            kind,
            coalescing_granularity: 1024,
            devices: DeviceParams::default(),
        }
    }

    /// Same configuration with a different coalescing granularity.
    pub fn with_coalescing(mut self, granularity: u32) -> Self {
        self.coalescing_granularity = granularity;
        self
    }
}

/// A design point stands for its default configuration.
impl From<SystemKind> for SystemConfig {
    fn from(kind: SystemKind) -> Self {
        SystemConfig::new(kind)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_match_paper_figures() {
        assert_eq!(SystemKind::SsdMmap.label(), "SSD (mmap)");
        assert_eq!(SystemKind::SmartSageHwSw.label(), "SmartSAGE (HW/SW)");
        assert_eq!(format!("{}", SystemKind::Pmem), "PMEM");
    }

    #[test]
    fn edge_list_placement() {
        assert!(!SystemKind::Dram.edge_list_on_ssd());
        assert!(!SystemKind::Pmem.edge_list_on_ssd());
        assert!(SystemKind::SsdMmap.edge_list_on_ssd());
        assert!(SystemKind::SmartSageHwSw.edge_list_on_ssd());
        assert!(SystemKind::FpgaCsd.edge_list_on_ssd());
    }

    #[test]
    fn oracle_cores_strictly_better_than_shared() {
        let d = DeviceParams::default();
        assert!(d.oracle_cores.firmware_share < d.ssd.cores.firmware_share);
        assert!(d.oracle_cores.cores >= d.ssd.cores.cores);
        assert!(d.oracle_cores.speed_vs_host >= d.ssd.cores.speed_vs_host);
    }

    #[test]
    fn builder_sets_granularity() {
        let c = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(64);
        assert_eq!(c.coalescing_granularity, 64);
    }
}
