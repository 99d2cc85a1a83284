//! Per-run shared state: dataset, on-SSD layout, locality rates, devices.
//!
//! The locality rates are the run's caches: the host page cache, the
//! scratchpad and the SSD page buffer each answer a cost policy's
//! lookup with a verdict drawn at the full-scale rate, never from the
//! scaled graph's residency.

use crate::config::{DeviceParams, SystemConfig};
use smartsage_graph::datasets::MaterializedDataset;
use smartsage_graph::CsrGraph;
use smartsage_hostio::locality::{degree_buckets, lru_hit_rate};
use smartsage_hostio::GraphFile;
use smartsage_sim::{Link, Server};
use smartsage_storage::memdev::MemDevice;
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
    /// SSD-internal page-buffer hit probability per flash page fetch,
    /// for host block reads and ISP fetches alike.
    pub ssd_buffer_hit: f64,
}

impl LocalityRates {
    /// Computes the rates for a materialized dataset under `devices`'
    /// full-scale cache capacities (the SSD buffer's is
    /// `ssd.buffer_pages` flash pages), using Che's approximation over
    /// the degree-weighted popularity distribution.
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
        LocalityRates {
            page_cache_hit,
            scratchpad_hit,
            ssd_buffer_hit: lru_hit_rate(&ssd_buckets, devices.ssd.buffer_pages as u64 * page),
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
}

impl Devices {
    /// Instantiates devices from a system configuration.
    pub fn new(config: &SystemConfig) -> Devices {
        let d = &config.devices;
        Devices {
            // Carries the modeled buffer size; every cost-policy lookup
            // imposes its verdict, so the buffer never holds a page.
            ssd: Ssd::new(d.ssd.clone()),
            host_dram: MemDevice::new(d.dram.clone()),
            pmem: MemDevice::new(d.pmem.clone()),
            gpu_link: Link::new(d.gpu.pcie_bytes_per_sec, d.gpu.pcie_latency),
            gpu: Server::new(1),
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
    /// Full-scale locality rates: every modeled cache lookup carries a
    /// verdict drawn at these rates.
    pub locality: LocalityRates,
    /// The system configuration.
    pub config: SystemConfig,
}

impl RunContext {
    /// Builds a context for `data` under `config`, with the full-scale
    /// locality rates of `config`'s cache capacities.
    pub fn new(data: MaterializedDataset, config: SystemConfig) -> RunContext {
        let layout = GraphFile::new(&data.graph);
        let locality = LocalityRates::compute(&data, &config.devices);
        RunContext {
            data,
            layout,
            locality,
            config,
        }
    }

    /// The graph being trained on.
    pub fn graph(&self) -> &CsrGraph {
        &self.data.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SystemKind;
    use smartsage_graph::{Dataset, DatasetProfile, GraphScale};

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
            rates.ssd_buffer_hit,
        ] {
            assert!((0.0..=1.0).contains(&r), "rate {r} out of range");
        }
        // SSD buffer (2 GB) must hit far less than the 160 GB host cache.
        assert!(rates.ssd_buffer_hit < rates.page_cache_hit);
    }

    #[test]
    fn each_rate_grows_with_its_cache_and_is_zero_without_one() {
        use crate::experiments::ExperimentScale;
        type Cache = (u64, fn(&mut DeviceParams, u64), fn(&LocalityRates) -> f64);
        let base = DeviceParams::default();
        let caches: [Cache; 3] = [
            (
                base.host_cache_bytes,
                |d, n| d.host_cache_bytes = n,
                |r| r.page_cache_hit,
            ),
            (
                base.scratchpad_bytes,
                |d, n| d.scratchpad_bytes = n,
                |r| r.scratchpad_hit,
            ),
            (
                base.ssd.buffer_pages as u64,
                |d, n| d.ssd.buffer_pages = n as usize,
                |r| r.ssd_buffer_hit,
            ),
        ];
        let scale = ExperimentScale::tiny();
        for dataset in Dataset::ALL {
            let data = DatasetProfile::of(dataset).materialize(
                GraphScale::LargeScale,
                scale.edge_budget,
                scale.seed,
            );
            for (i, &(default, set, rate)) in caches.iter().enumerate() {
                let at = |capacity| {
                    let mut devices = base.clone();
                    set(&mut devices, capacity);
                    rate(&LocalityRates::compute(&data, &devices))
                };
                assert_eq!(at(0), 0.0, "{dataset:?} cache {i}: no capacity, no hits");
                // Doublings from 1/16 of the default size to 8 times it.
                let mut below = 0.0;
                for capacity in (0..8).map(|k| (default >> 4) << k) {
                    let r = at(capacity);
                    assert!(
                        r >= below,
                        "{dataset:?} cache {i} at {capacity}: {r} < {below}"
                    );
                    below = r;
                }
            }
        }
    }

    #[test]
    fn the_default_rates_are_pinned_to_the_bit() {
        // Amazon at tiny scale; the default SSD buffer, 131 072 pages of
        // 16 KiB, sizes its rate at 2 GiB.
        let scale = crate::experiments::ExperimentScale::tiny();
        let d = DatasetProfile::of(Dataset::Amazon).materialize(
            GraphScale::LargeScale,
            scale.edge_budget,
            scale.seed,
        );
        let r = LocalityRates::compute(&d, &DeviceParams::default());
        assert_eq!(
            [r.page_cache_hit, r.scratchpad_hit, r.ssd_buffer_hit].map(f64::to_bits),
            [
                0x3fa7_9270_0dba_bf22,
                0x3fcc_76c6_c3fe_1b1c,
                0x3f57_f346_8009_b5b6
            ]
        );
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
        assert_eq!(
            ctx.locality,
            LocalityRates::compute(&ctx.data, &ctx.config.devices)
        );
        assert!(ctx.layout.total_bytes() > 0);
    }

    #[test]
    fn devices_instantiate() {
        let devs = Devices::new(&SystemConfig::new(SystemKind::SsdMmap));
        assert_eq!(devs.gpu.capacity(), 1);
        assert!(devs.ssd.page_bytes() > 0);
    }
}
