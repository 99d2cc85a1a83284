//! Ablation studies of SmartSAGE's design choices.
//!
//! The paper's §VI-A attributes the HW/SW design's gains to three
//! mechanisms — direct I/O, command coalescing, and ISP acceleration —
//! and its §VI-C argues that future CSDs (more ISP compute, faster
//! flash/links) close the remaining gap to DRAM. These drivers decompose
//! and extrapolate those claims on our simulated platform:
//!
//! (registry names; run them with
//! [`Experiment::find`](crate::experiments::Experiment::find))
//!
//! * `ablation-mechanisms` — stack the three mechanisms one at a
//!   time (mmap → +direct I/O → +ISP at fine granularity → +full
//!   coalescing) and report per-step sampling speedups.
//! * `ablation-csd` — sweep CSD generations (OpenSSD-class → Newport-
//!   class → a hypothetical gen4 CSD) against the DRAM bound, the
//!   paper's "viable option for large-scale GNN training" projection.
//! * `ablation-buffer` — the SSD DRAM page buffer's contribution to
//!   in-storage sampling.
//!
//! Every cell runs through the experiment layer's one seam
//! ([`Prepared`]): the dataset is materialized once per driver, the
//! tweaked [`SystemConfig`] is the cell, and the reported number is the
//! run's `sampling_throughput` (batches over makespan, training or not).

use crate::config::{SystemConfig, SystemKind};
use crate::experiments::{large_scale, ExperimentScale, Prepared};
use crate::report::{num, speedup, Table};
use smartsage_graph::{Dataset, GraphScale};
use smartsage_sim::SimDuration;
use smartsage_storage::cores::CoreParams;

/// Throughput (batches/s) of one ablation cell. Ablations run at least
/// two batches per worker so every worker reaches steady state.
fn throughput(p: &Prepared, config: impl Into<SystemConfig>, workers: usize, train: bool) -> f64 {
    p.run_with(config, workers, train, |cfg| {
        cfg.total_batches = cfg.total_batches.max(2 * workers)
    })
    .sampling_throughput
}

/// Decomposes the HW/SW design's speedup into its three mechanisms
/// (single worker, per dataset): baseline mmap, + direct I/O (the SW
/// design), + ISP with *per-target* commands (granularity 1), + full
/// mini-batch coalescing.
pub(crate) fn contribution_breakdown_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: mechanism-by-mechanism speedup over SSD(mmap)",
        &[
            "Dataset",
            "+direct I/O (SW)",
            "+ISP, no coalescing",
            "+coalescing (full HW/SW)",
        ],
    );
    for (d, p) in large_scale(scale) {
        let mmap = throughput(&p, SystemKind::SsdMmap, 1, false);
        let sw = throughput(&p, SystemKind::SmartSageSw, 1, false);
        let fine = SystemConfig::new(SystemKind::SmartSageHwSw).with_coalescing(1);
        let isp_fine = throughput(&p, fine, 1, false);
        let full = throughput(&p, SystemKind::SmartSageHwSw, 1, false);
        t.row(vec![
            d.name().into(),
            speedup(sw / mmap),
            speedup(isp_fine / mmap),
            speedup(full / mmap),
        ]);
    }
    t
}

/// A CSD generation for the `ablation-csd` sweep.
#[derive(Debug, Clone)]
pub struct CsdGeneration {
    /// Display name.
    pub name: &'static str,
    /// Embedded-core complex.
    pub cores: CoreParams,
    /// Flash sense latency.
    pub flash_read_latency: SimDuration,
    /// SSD PCIe bandwidth (bytes/s).
    pub pcie_bytes_per_sec: u64,
}

/// The generations swept by `ablation-csd`.
pub fn csd_generations() -> Vec<CsdGeneration> {
    vec![
        CsdGeneration {
            name: "OpenSSD (eval platform)",
            cores: CoreParams::default(),
            flash_read_latency: SimDuration::from_micros(25),
            pcie_bytes_per_sec: 3_200_000_000,
        },
        CsdGeneration {
            name: "Newport-class (oracle)",
            cores: CoreParams {
                cores: 4,
                firmware_share: 0.0,
                speed_vs_host: 0.5,
            },
            flash_read_latency: SimDuration::from_micros(25),
            pcie_bytes_per_sec: 3_200_000_000,
        },
        CsdGeneration {
            name: "future gen4 CSD",
            cores: CoreParams {
                cores: 8,
                firmware_share: 0.0,
                speed_vs_host: 0.7,
            },
            flash_read_latency: SimDuration::from_micros(10),
            pcie_bytes_per_sec: 7_000_000_000,
        },
    ]
}

/// §VI-C extrapolation: end-to-end training throughput per CSD
/// generation, as a fraction of the DRAM bound (12 workers, Reddit
/// profile) — the paper's "an NVMe SSD based system can become a viable
/// option ... while not compromising on performance" projection.
pub(crate) fn future_csd_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: CSD generations vs the DRAM bound (Reddit, 12 workers, end-to-end)",
        &[
            "CSD generation",
            "Training throughput (batches/s)",
            "Fraction of DRAM",
        ],
    );
    let p = Prepared::of(Dataset::Reddit, GraphScale::LargeScale, scale);
    let dram = throughput(&p, SystemKind::Dram, scale.workers, true);
    for generation in csd_generations() {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageOracle);
        cfg.devices.oracle_cores = generation.cores.clone();
        cfg.devices.ssd.flash.read_latency = generation.flash_read_latency;
        cfg.devices.ssd.pcie.bytes_per_sec = generation.pcie_bytes_per_sec;
        let thr = throughput(&p, cfg, scale.workers, true);
        t.row(vec![
            generation.name.into(),
            num(thr, 1),
            num(thr / dram, 3),
        ]);
    }
    t.row(vec!["DRAM bound".into(), num(dram, 1), num(1.0, 3)]);
    t
}

/// The page buffer's contribution to in-storage sampling (single
/// worker, Movielens profile): ISP throughput across buffer capacities.
pub(crate) fn buffer_sensitivity_driver(scale: &ExperimentScale) -> Table {
    let mut t = Table::new(
        "Ablation: SSD page-buffer capacity vs ISP sampling throughput",
        &[
            "Buffer (GiB)",
            "Sampling throughput (batches/s)",
            "Relative",
        ],
    );
    let p = Prepared::of(Dataset::Movielens, GraphScale::LargeScale, scale);
    let mut base = None;
    for gib in [0u64, 1, 2, 8, 32] {
        let mut cfg = SystemConfig::new(SystemKind::SmartSageHwSw);
        cfg.devices.ssd_buffer_bytes = gib << 30;
        let thr = throughput(&p, cfg, 1, false);
        let b = *base.get_or_insert(thr);
        t.row(vec![gib.into(), num(thr, 1), num(thr / b, 3)]);
    }
    t
}

#[cfg(test)]
mod tests {
    use crate::experiments::{Experiment, ExperimentScale};
    use crate::report::Table;

    /// Runs the registered ablation `name` at tiny scale.
    fn ablation(name: &str) -> Table {
        Experiment::find(name)
            .expect("ablation is registered")
            .run(&ExperimentScale::tiny())
    }

    #[test]
    fn contribution_stacks_monotonically() {
        let t = ablation("ablation-mechanisms");
        assert_eq!(t.len(), 5);
        for row in t.rows() {
            let sw = row[1].value().expect("sw");
            let full = row[3].value().expect("full");
            assert!(sw > 1.0, "direct I/O must help: {row:?}");
            assert!(full > sw, "full design must beat SW alone: {row:?}");
        }
    }

    #[test]
    fn future_csds_approach_dram() {
        let t = ablation("ablation-csd");
        let rows = t.rows();
        let openssd = rows[0][2].value().expect("frac");
        let future = rows[2][2].value().expect("frac");
        assert!(
            future > openssd,
            "newer CSDs must close the gap: {openssd} -> {future}"
        );
    }

    #[test]
    fn bigger_buffers_do_not_hurt() {
        let t = ablation("ablation-buffer");
        let first = t.rows()[0][1].value().expect("thr");
        let last = t.rows().last().expect("rows")[1].value().expect("thr");
        assert!(last >= first * 0.95, "more buffer should not hurt");
    }
}
