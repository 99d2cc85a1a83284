//! Per-run shared state: dataset, on-SSD layout, locality rates, devices.

use crate::config::{DeviceParams, SystemConfig};
use smartsage_graph::datasets::MaterializedDataset;
use smartsage_graph::{CsrGraph, GraphScale};
use smartsage_hostio::locality::{degree_buckets, lru_hit_rate};
use smartsage_hostio::GraphFile;
use smartsage_sim::{Link, Server};
use smartsage_storage::cores::EmbeddedCores;
use smartsage_storage::memdev::MemDevice;
use smartsage_storage::ssd::SsdParams;
use smartsage_storage::Ssd;

/// Analytic full-scale cache hit probabilities (see
/// `smartsage_hostio::locality` for why these are imposed rather than
/// measured on the scaled graph).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LocalityRates {
    /// OS page-cache hit probability per edge-chunk access (mmap path).
    pub page_cache_hit: f64,
    /// User scratchpad hit probability (direct-I/O path).
    pub scratchpad_hit: f64,
    /// SSD-internal page-buffer hit probability for host block reads.
    pub ssd_buffer_hit_host: f64,
    /// SSD-internal page-buffer hit probability for ISP page fetches.
    pub ssd_buffer_hit_isp: f64,
}

impl LocalityRates {
    /// Computes the rates for a materialized dataset under `devices`'
    /// full-scale cache capacities, using Che's approximation over the
    /// degree-weighted popularity distribution.
    pub fn compute(data: &MaterializedDataset, devices: &DeviceParams) -> LocalityRates {
        let full_nodes = data.full_stats().nodes;
        let graph = &data.graph;
        let block = devices.hostio.os_page_bytes;
        let page = devices.ssd.flash.page_bytes;
        // Page-cache objects: a node's edge-list chunk costs whole OS
        // pages (at low coverage the co-resident chunks of a faulted page
        // are unlikely to be re-referenced before eviction, so each chunk
        // effectively occupies its block-rounded footprint).
        let chunk_blocks = |d: u64| ((d * 8).div_ceil(block).max(1)) * block;
        let host_buckets = degree_buckets(graph, full_nodes, chunk_blocks);
        let page_cache_hit = lru_hit_rate(&host_buckets, devices.host_cache_bytes);
        // Scratchpad objects: the SW runtime stores bare chunks (its
        // whole point is to avoid caching useless bytes), so its objects
        // are the raw chunk sizes.
        let chunk_raw = |d: u64| (d * 8).max(8);
        let scratch_buckets = degree_buckets(graph, full_nodes, chunk_raw);
        let scratchpad_hit = lru_hit_rate(&scratch_buckets, devices.scratchpad_bytes);
        // Objects for the SSD page buffer: flash pages.
        let chunk_pages = |d: u64| ((d * 8).div_ceil(page).max(1)) * page;
        let ssd_buckets = degree_buckets(graph, full_nodes, chunk_pages);
        let ssd_buffer = lru_hit_rate(&ssd_buckets, devices.ssd_buffer_bytes);
        LocalityRates {
            page_cache_hit,
            scratchpad_hit,
            ssd_buffer_hit_host: ssd_buffer,
            ssd_buffer_hit_isp: ssd_buffer,
        }
    }
}

/// All shared (contended) devices of one run.
#[derive(Debug)]
pub struct Devices {
    /// The SSD (used by SSD-backed systems).
    pub ssd: Ssd,
    /// Host DRAM: feature gathers always, edge list under `Dram`.
    pub host_dram: MemDevice,
    /// PMEM: edge list under `Pmem`.
    pub pmem: MemDevice,
    /// Host→GPU PCIe link.
    pub gpu_link: Link,
    /// The GPU itself (one training stream).
    pub gpu: Server,
    /// Dedicated ISP cores for the oracle CSD (separate complex).
    pub oracle_cores: EmbeddedCores,
}

impl Devices {
    /// Instantiates devices from a system configuration.
    pub fn new(config: &SystemConfig) -> Devices {
        let d = &config.devices;
        let ssd_params = SsdParams {
            // The *exact* buffer is sized for the scaled graph; analytic
            // hit rates override its decisions for paper experiments.
            buffer_pages: (d.ssd_buffer_bytes / d.ssd.flash.page_bytes) as usize,
            ..d.ssd.clone()
        };
        Devices {
            ssd: Ssd::new(ssd_params),
            host_dram: MemDevice::new(d.dram.clone()),
            pmem: MemDevice::new(d.pmem.clone()),
            gpu_link: Link::new(d.gpu.pcie_bytes_per_sec, d.gpu.pcie_latency),
            gpu: Server::new(1),
            oracle_cores: EmbeddedCores::new(d.oracle_cores.clone()),
        }
    }
}

/// Shared, read-only state of one experiment run.
#[derive(Debug, Clone)]
pub struct RunContext {
    /// The materialized (scaled) dataset.
    pub data: MaterializedDataset,
    /// The on-SSD layout of the graph file.
    pub layout: GraphFile,
    /// Full-scale locality rates, or `None` to use the exact caches
    /// (small-graph demos and tests).
    pub locality: Option<LocalityRates>,
    /// The system configuration.
    pub config: SystemConfig,
}

impl RunContext {
    /// Builds a context for `data` under `config`, using analytic
    /// full-scale locality (the paper-experiment mode).
    pub fn new(data: MaterializedDataset, config: SystemConfig) -> RunContext {
        let layout = GraphFile::new(&data.graph);
        let locality = Some(LocalityRates::compute(&data, &config.devices));
        RunContext {
            data,
            layout,
            locality,
            config,
        }
    }

    /// Builds a context that uses the exact cache models instead of the
    /// analytic locality rates (appropriate when the materialized graph
    /// *is* the full graph, e.g. unit tests and small demos).
    pub fn new_exact(data: MaterializedDataset, config: SystemConfig) -> RunContext {
        let layout = GraphFile::new(&data.graph);
        RunContext {
            data,
            layout,
            locality: None,
            config,
        }
    }

    /// The graph being trained on.
    pub fn graph(&self) -> &CsrGraph {
        &self.data.graph
    }

    /// Convenience: is this a large-scale (SSD-resident) variant?
    pub fn is_large_scale(&self) -> bool {
        self.data.scale == GraphScale::LargeScale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use smartsage_graph::{Dataset, DatasetProfile};

    fn data() -> MaterializedDataset {
        DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::LargeScale, 60_000, 3)
    }

    #[test]
    fn locality_rates_are_probabilities_and_ordered() {
        let d = data();
        let rates = LocalityRates::compute(&d, &DeviceParams::default());
        for r in [
            rates.page_cache_hit,
            rates.scratchpad_hit,
            rates.ssd_buffer_hit_host,
            rates.ssd_buffer_hit_isp,
        ] {
            assert!((0.0..=1.0).contains(&r), "rate {r} out of range");
        }
        // SSD buffer (2 GB) must hit far less than the 160 GB host cache.
        assert!(rates.ssd_buffer_hit_host < rates.page_cache_hit);
    }

    #[test]
    fn larger_dataset_means_lower_hit_rate() {
        // Reddit-large (431 GB of edges) vs Amazon-large (76 GB): the
        // same 160 GB page cache covers less of Reddit.
        let reddit =
            DatasetProfile::of(Dataset::Reddit).materialize(GraphScale::LargeScale, 60_000, 3);
        let amazon = data();
        let d = DeviceParams::default();
        let r_reddit = LocalityRates::compute(&reddit, &d);
        let r_amazon = LocalityRates::compute(&amazon, &d);
        assert!(
            r_reddit.page_cache_hit < r_amazon.page_cache_hit,
            "reddit {} should be below amazon {}",
            r_reddit.page_cache_hit,
            r_amazon.page_cache_hit
        );
    }

    #[test]
    fn context_construction() {
        let ctx = RunContext::new(data(), SystemConfig::new(SystemKind::SmartSageHwSw));
        assert!(ctx.locality.is_some());
        assert!(ctx.is_large_scale());
        assert!(ctx.layout.total_bytes() > 0);
        let exact = RunContext::new_exact(
            DatasetProfile::of(Dataset::Amazon).materialize(GraphScale::InMemory, 10_000, 1),
            SystemConfig::new(SystemKind::Dram),
        );
        assert!(exact.locality.is_none());
        assert!(!exact.is_large_scale());
    }

    #[test]
    fn devices_instantiate() {
        let devs = Devices::new(&SystemConfig::new(SystemKind::SsdMmap));
        assert_eq!(devs.gpu.capacity(), 1);
        assert!(devs.ssd.page_bytes() > 0);
    }
}
