//! Figure equivalence: the unified storage path reproduces every
//! figure byte-for-byte.
//!
//! `tests/fixtures/tiny_all_experiments.csv` is the CSV output of
//! `reproduce --scale tiny --format csv` captured **before** the
//! per-system sampling simulators were collapsed into cost policies
//! over the one real storage path. These tests pin the refactor's
//! central promise: every one of the 18 experiment tables (Table I,
//! Figs 5–21) is byte-identical on the unified path — across store
//! tiers and job counts — because modeled time is a pure function of
//! the byte trace, and the byte trace did not change.
//!
//! Intentional deltas from the pre-unification behavior (none of which
//! can appear in these tables):
//!
//! - There is no "storeless" mode: the default `mem` tiers run on the
//!   same real storage path, so a sweep's `io` is always populated (access counters exact, I/O columns zero). The
//!   old `storeless_sweep_reports_zero_stats` regression test became
//!   `default_mem_tier_sweep_counts_accesses_without_any_io` in
//!   `tests/sweep_accounting.rs`.
//! - `PipelineReport::{store_stats,topology_stats}` are plain structs,
//!   not `Option`s — reports differ in *values*, never in shape.

use smartsage::core::experiments::ExperimentScale;
use smartsage::core::runner::{OutputFormat, Runner, SweepOutcome};
use smartsage::core::{StoreKind, TopologyKind};

const FIXTURE: &str = include_str!("fixtures/tiny_all_experiments.csv");

fn tiny_sweep(store: StoreKind, topology: TopologyKind, jobs: usize) -> SweepOutcome {
    let mut scale = ExperimentScale::tiny();
    scale.store = store;
    scale.topology = topology;
    Runner {
        scale,
        jobs,
        ..Runner::default()
    }
    .sweep(|_| {})
}

#[test]
fn unified_path_reproduces_the_pre_refactor_figures_byte_identically() {
    // The exact run the fixture was captured from:
    // `reproduce --scale tiny --format csv` (mem tiers, one job).
    let sweep = tiny_sweep(StoreKind::Mem, TopologyKind::Mem, 1);
    assert_eq!(sweep.outcomes.len(), 18, "full registry");
    let got = OutputFormat::Csv.render(&sweep.outcomes);
    assert_eq!(
        got, FIXTURE,
        "unified-path figures diverged from the committed pre-refactor capture"
    );
}

#[test]
#[ignore = "runs 4 full-registry sweeps; CI runs it with --release -- --include-ignored"]
fn figures_are_identical_across_store_tiers_and_job_counts() {
    // The tier moves bytes through different machinery (in-memory
    // tables, a paged file, a modeled in-storage gather) and the job
    // count reorders experiment completion — neither may perturb a
    // single byte of any table.
    for (store, topology, jobs) in [
        (StoreKind::File, TopologyKind::File, 1),
        (StoreKind::Isp, TopologyKind::Isp, 1),
        (StoreKind::Mem, TopologyKind::Mem, 4),
        (StoreKind::File, TopologyKind::File, 4),
    ] {
        let got = OutputFormat::Csv.render(&tiny_sweep(store, topology, jobs).outcomes);
        assert_eq!(
            got, FIXTURE,
            "figures diverged under store={store:?} topology={topology:?} jobs={jobs}"
        );
    }
}

#[test]
#[ignore = "runs 2 full-registry sweeps; CI runs it with --release -- --include-ignored"]
fn isp_tier_ships_strictly_fewer_host_bytes_than_the_file_tier() {
    // Identical figures, different physics: the in-storage tier must
    // beat the whole-page file tier on the modeled host link for the
    // exact same access stream (paper Fig 10(a) vs 10(b)). The strict
    // win comes from sampling (the topology side, where the file tier
    // ships whole offset/edge pages and the ISP ships only sampled
    // ids). On the feature side the tiny sweep touches every row and
    // the page cache holds the whole file, so both tiers ship each
    // byte exactly once — equality there is structural, not a bug.
    let file = tiny_sweep(StoreKind::File, TopologyKind::File, 1);
    let isp = tiny_sweep(StoreKind::Isp, TopologyKind::Isp, 1);
    let (file_store, file_topology) = (file.io.features.total, file.io.topology.total);
    let (isp_store, isp_topology) = (isp.io.features.total, isp.io.topology.total);
    assert_eq!(
        file_store.nodes_gathered, isp_store.nodes_gathered,
        "same access stream"
    );
    assert!(isp_store.device_ns > 0 && isp_topology.device_ns > 0);
    assert!(
        isp_store.host_bytes_transferred <= file_store.host_bytes_transferred,
        "isp feature bytes {} must not exceed file's {}",
        isp_store.host_bytes_transferred,
        file_store.host_bytes_transferred
    );
    assert!(
        isp_topology.host_bytes_transferred < file_topology.host_bytes_transferred,
        "isp topology bytes {} must undercut file's {}",
        isp_topology.host_bytes_transferred,
        file_topology.host_bytes_transferred
    );
    let file_total = file_store.host_bytes_transferred + file_topology.host_bytes_transferred;
    let isp_total = isp_store.host_bytes_transferred + isp_topology.host_bytes_transferred;
    assert!(
        isp_total < file_total,
        "isp total host traffic {isp_total} must undercut file's {file_total}"
    );
}
