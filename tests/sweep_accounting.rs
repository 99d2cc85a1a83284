//! Regression: per-sweep store accounting is exactly scoped.
//!
//! The historical bug: feature-store I/O counters lived in
//! process-global atomics that were never reset, so the second sweep in
//! a process reported the first sweep's bytes on top of its own. The
//! fix is design-level — every sweep owns a private accumulator and a
//! private [`StoreRegistry`](smartsage::store::StoreRegistry) — and
//! these tests pin the observable consequences: back-to-back sweeps
//! report identically, parallel sweeps share one registry entry per
//! content key, and tables stay byte-identical at any job count.

use smartsage::core::experiments::{registry, ExperimentScale};
use smartsage::core::runner::{OutputFormat, Runner, SweepOutcome};
use smartsage::core::{StoreKind, TopologyKind};

/// Sweeps the registry entries named in `names` at `scale` on `jobs`
/// workers.
fn run(scale: ExperimentScale, jobs: usize, names: &[&str]) -> SweepOutcome {
    let selection = registry().iter().filter(|e| names.contains(&e.name));
    Runner {
        scale,
        selection: selection.collect(),
        jobs,
    }
    .sweep(|_| {})
}

/// A deliberately small file-store sweep. The seed is distinctive so no
/// other test in this binary shares content-keyed feature files with
/// these sweeps.
fn sweep(jobs: usize, names: &[&str]) -> SweepOutcome {
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 0x5EED5,
        store: StoreKind::File,
        topology: TopologyKind::Mem,
        shards: 1,
    };
    run(scale, jobs, names)
}

#[test]
fn second_sweep_in_one_process_reports_exactly_its_solo_stats() {
    // The first sweep IS the solo run; the second must match it to the
    // byte — no leftover counters, no leftover cache warmth.
    let first = sweep(1, &["fig7"]);
    let second = sweep(1, &["fig7"]);
    assert!(first.io.features.total.bytes_read > 0, "sweep did real I/O");
    assert!(first.io.features.total.gathers > 0);
    assert!(
        first.io.features.total.page_hits > 0,
        "the page cache saw reuse"
    );
    assert_eq!(
        first.io.features.total, second.io.features.total,
        "second sweep's report must equal its solo run"
    );
    // And a third, after other sweeps ran in between, still matches.
    sweep(2, &["fig7", "fig6"]);
    let third = sweep(1, &["fig7"]);
    assert_eq!(first.io.features.total, third.io.features.total);
}

#[test]
fn parallel_jobs_share_one_registry_entry_and_tables_are_identical() {
    let serial = sweep(1, &["fig6", "fig7"]);
    let parallel = sweep(4, &["fig6", "fig7"]);
    // One open store per content key (5 datasets), no matter how many
    // experiments or worker threads touch it.
    assert_eq!(parallel.stores.len(), 5, "one registry entry per dataset");
    assert_eq!(serial.stores.len(), 5);
    for occ in &parallel.stores {
        assert!(
            occ.resident_pages > 0,
            "{}: shared cache ended a sweep empty",
            occ.path.display()
        );
        assert!(occ.resident_pages <= occ.capacity_pages);
    }
    // Tables are byte-identical serial vs parallel (the determinism
    // contract: stores and threading never change results).
    assert_eq!(
        OutputFormat::Text.render(&serial.outcomes),
        OutputFormat::Text.render(&parallel.outcomes)
    );
    // Access-level counters are interleaving-independent; the hit/miss
    // *split* may shift under concurrency but every lookup is still
    // classified exactly once.
    let (s, p) = (serial.io.features.total, parallel.io.features.total);
    assert_eq!(s.gathers, p.gathers);
    assert_eq!(s.nodes_gathered, p.nodes_gathered);
    assert_eq!(s.feature_bytes, p.feature_bytes);
    assert_eq!(s.page_hits + s.page_misses, p.page_hits + p.page_misses);
    assert_eq!(p.pages_read, p.page_misses);
}

/// A deliberately small graph-topology sweep (distinct seed, same
/// scoping rules as the feature sweeps above).
fn graph_sweep(jobs: usize, names: &[&str]) -> SweepOutcome {
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 0x5EED9,
        store: StoreKind::Mem,
        topology: TopologyKind::File,
        shards: 1,
    };
    run(scale, jobs, names)
}

#[test]
fn second_graph_sweep_in_one_process_reports_exactly_its_solo_stats() {
    let first = graph_sweep(1, &["fig7"]);
    let second = graph_sweep(1, &["fig7"]);
    assert!(
        first.io.topology.total.bytes_read > 0,
        "sampling did real topology I/O"
    );
    assert!(first.io.topology.total.gathers > 0);
    // The feature side ran on the mem tier: counted, but no disk I/O.
    assert!(first.io.features.total.gathers > 0);
    assert_eq!(
        first.io.features.total.bytes_read, 0,
        "mem tier reads no disk"
    );
    assert_eq!(
        first.io.topology.total, second.io.topology.total,
        "second sweep's topology report must equal its solo run"
    );
}

#[test]
fn parallel_graph_sweep_shares_one_registry_entry_and_tables_are_identical() {
    let serial = graph_sweep(1, &["fig6", "fig7"]);
    let parallel = graph_sweep(4, &["fig6", "fig7"]);
    // One open graph file per content key (5 datasets), no matter how
    // many experiments or worker threads sample through it.
    assert_eq!(parallel.stores.len(), 5, "one graph entry per dataset");
    assert_eq!(serial.stores.len(), 5);
    for occ in &parallel.stores {
        assert!(occ.resident_pages > 0);
        assert!(occ.resident_pages <= occ.capacity_pages);
    }
    assert_eq!(
        OutputFormat::Text.render(&serial.outcomes),
        OutputFormat::Text.render(&parallel.outcomes)
    );
    // Access-level counters are interleaving-independent; every page
    // lookup is classified exactly once.
    let (s, p) = (serial.io.topology.total, parallel.io.topology.total);
    assert_eq!(s.gathers, p.gathers);
    assert_eq!(s.nodes_gathered, p.nodes_gathered);
    assert_eq!(s.feature_bytes, p.feature_bytes);
    assert_eq!(s.page_hits + s.page_misses, p.page_hits + p.page_misses);
    assert_eq!(p.pages_read, p.page_misses);
}

#[test]
fn memory_store_sweeps_scope_their_stats_too() {
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 0x5EED6,
        store: StoreKind::Mem,
        topology: TopologyKind::Mem,
        shards: 1,
    };
    let a = run(scale, 1, &["fig7"]);
    let b = run(scale, 1, &["fig7"]);
    assert!(a.io.features.total.gathers > 0);
    assert_eq!(
        a.io.features.total.bytes_read, 0,
        "mem store does no disk I/O"
    );
    assert_eq!(a.io.features.total, b.io.features.total);
    assert!(
        a.stores.is_empty(),
        "no registry entries without a file store"
    );
}

#[test]
fn default_mem_tier_sweep_counts_accesses_without_any_io() {
    // Intentional delta from the pre-unification suite: there is no
    // "storeless" mode anymore. The default mem tiers sit on the same
    // real storage path, so access counters are always exact — only the
    // I/O columns are zero.
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 0x5EED7,
        store: StoreKind::Mem,
        topology: TopologyKind::Mem,
        shards: 1,
    };
    let outcome = run(scale, 1, &["fig7"]);
    assert!(
        outcome.io.features.total.gathers > 0,
        "every gather is counted"
    );
    assert!(outcome.io.topology.total.gathers > 0);
    assert_eq!(outcome.io.features.total.bytes_read, 0);
    assert_eq!(outcome.io.topology.total.bytes_read, 0);
    assert!(outcome.stores.is_empty());
    assert_eq!(outcome.outcomes.len(), 1);
}

#[test]
fn modeled_time_is_a_pure_function_of_the_trace_across_tiers_and_jobs() {
    // The unification contract at sweep granularity: the store tier and
    // the job count change where bytes physically come from, never the
    // byte trace — so every modeled-time column in every table is
    // byte-identical across all combinations.
    let tables = |store: StoreKind, topology: TopologyKind, jobs: usize| {
        let scale = ExperimentScale {
            edge_budget: 20_000,
            batch_size: 8,
            batches: 2,
            workers: 2,
            seed: 0x5EEDA,
            store,
            topology,
            shards: 1,
        };
        let sweep = run(scale, jobs, &["fig6", "fig7", "fig14", "fig18"]);
        OutputFormat::Text.render(&sweep.outcomes)
    };
    let reference = tables(StoreKind::Mem, TopologyKind::Mem, 1);
    for (store, topology, jobs) in [
        (StoreKind::File, TopologyKind::File, 1),
        (StoreKind::Isp, TopologyKind::Isp, 1),
        (StoreKind::File, TopologyKind::Isp, 4),
        (StoreKind::Mem, TopologyKind::Mem, 4),
    ] {
        let got = tables(store, topology, jobs);
        assert_eq!(
            got, reference,
            "tables diverged under store={store:?} topology={topology:?} jobs={jobs}"
        );
    }
}

/// A deliberately small sweep with both axes file-backed and the
/// dataset partitioned across three modeled devices.
fn sharded_sweep(jobs: usize, shards: usize, names: &[&str]) -> SweepOutcome {
    let scale = ExperimentScale {
        edge_budget: 20_000,
        batch_size: 8,
        batches: 2,
        workers: 1,
        seed: 0x5EEDB,
        store: StoreKind::File,
        topology: TopologyKind::File,
        shards,
    };
    run(scale, jobs, names)
}

#[test]
fn sharded_sweeps_scope_their_stats_exactly_like_unsharded_ones() {
    // The scoping contract holds on the shard axis too: the second
    // three-shard sweep in a process reports exactly its solo stats —
    // totals AND the per-device breakdown.
    let first = sharded_sweep(1, 3, &["fig7"]);
    let second = sharded_sweep(1, 3, &["fig7"]);
    assert!(first.io.features.total.bytes_read > 0, "sweep did real I/O");
    assert_eq!(
        first.io.features.shards.len(),
        3,
        "one breakdown entry per device"
    );
    assert_eq!(first.io.topology.shards.len(), 3);
    assert_eq!(first.io.features.total, second.io.features.total);
    assert_eq!(first.io.topology.total, second.io.topology.total);
    assert_eq!(first.io.features.shards, second.io.features.shards);
    assert_eq!(first.io.topology.shards, second.io.topology.shards);
}

#[test]
fn sharded_jobs_4_matches_jobs_1_and_tables_match_unsharded() {
    let serial = sharded_sweep(1, 3, &["fig6", "fig7"]);
    let parallel = sharded_sweep(4, 3, &["fig6", "fig7"]);
    let unsharded = sharded_sweep(1, 1, &["fig6", "fig7"]);
    // Tables are byte-identical across job counts AND shard counts —
    // partitioning the store moves bytes between devices, never
    // results.
    let reference = OutputFormat::Text.render(&unsharded.outcomes);
    assert_eq!(OutputFormat::Text.render(&serial.outcomes), reference);
    assert_eq!(OutputFormat::Text.render(&parallel.outcomes), reference);
    // Access-level counters are interleaving- and shard-independent.
    for (s, p, u) in [
        (
            serial.io.features.total,
            parallel.io.features.total,
            unsharded.io.features.total,
        ),
        (
            serial.io.topology.total,
            parallel.io.topology.total,
            unsharded.io.topology.total,
        ),
    ] {
        assert_eq!(s.gathers, p.gathers);
        assert_eq!(s.gathers, u.gathers);
        assert_eq!(s.nodes_gathered, p.nodes_gathered);
        assert_eq!(s.nodes_gathered, u.nodes_gathered);
        assert_eq!(s.feature_bytes, p.feature_bytes);
        assert_eq!(s.feature_bytes, u.feature_bytes);
        assert_eq!(s.page_hits + s.page_misses, p.page_hits + p.page_misses);
        assert_eq!(p.pages_read, p.page_misses);
    }
    // One registry entry per shard file: 5 datasets x 3 shards on each
    // axis (feature shards + graph shards).
    assert_eq!(parallel.stores.len(), 30, "one entry per shard file");
    assert_eq!(serial.stores.len(), 30);
    assert_eq!(unsharded.stores.len(), 10);
    // An unsharded sweep reports no per-device breakdown.
    assert!(unsharded.io.features.shards.is_empty());
    assert!(unsharded.io.topology.shards.is_empty());
}

#[test]
fn per_shard_breakdowns_sum_exactly_to_the_sweep_totals() {
    let outcome = sharded_sweep(1, 3, &["fig7"]);
    for (per_shard, total) in [
        (&outcome.io.features.shards, outcome.io.features.total),
        (&outcome.io.topology.shards, outcome.io.topology.total),
    ] {
        assert_eq!(per_shard.len(), 3);
        let sum =
            |f: fn(&smartsage::store::StoreStats) -> u64| -> u64 { per_shard.iter().map(f).sum() };
        // Work splits across devices: every I/O-level field (and the
        // answer-volume fields) sums exactly to the sweep total.
        assert_eq!(sum(|s| s.nodes_gathered), total.nodes_gathered);
        assert_eq!(sum(|s| s.feature_bytes), total.feature_bytes);
        assert_eq!(sum(|s| s.pages_read), total.pages_read);
        assert_eq!(sum(|s| s.bytes_read), total.bytes_read);
        assert_eq!(sum(|s| s.page_hits), total.page_hits);
        assert_eq!(sum(|s| s.page_misses), total.page_misses);
        assert_eq!(sum(|s| s.device_bytes_read), total.device_bytes_read);
        assert_eq!(
            sum(|s| s.host_bytes_transferred),
            total.host_bytes_transferred
        );
        assert!(
            per_shard.iter().filter(|s| s.bytes_read > 0).count() >= 2,
            "a three-shard sweep must spread I/O over at least two devices"
        );
    }
}

#[test]
fn one_batch_cells_record_their_io_like_every_other_run() {
    // Regression: Fig 19 and the transfer table once ran their batches
    // on a second pipeline that never recorded into the sweep's scope,
    // so a sweep of them reported zero I/O beside warm caches. They are
    // one-batch cells of the drivers' one path now: 5 datasets, each
    // one-batch epoch sampled and gathered once for both systems, every
    // resident page read by a counted miss.
    let scale = ExperimentScale {
        seed: 0x5EEDC,
        store: StoreKind::File,
        topology: TopologyKind::File,
        ..ExperimentScale::tiny()
    };
    let outcome = run(scale, 1, &["transfer"]);
    let (features, topology) = (outcome.io.features.total, outcome.io.topology.total);
    assert_eq!(features.gathers, 5);
    assert!(features.bytes_read > 0 && topology.bytes_read > 0);
    let resident: usize = outcome.stores.iter().map(|o| o.resident_pages).sum();
    assert!(resident > 0, "the sweep warmed its caches");
    assert!(features.pages_read + topology.pages_read >= resident as u64);
}

#[test]
fn a_driver_samples_each_distinct_epoch_once() {
    // Fig 17 runs 10 cells per dataset (2 systems x 5 worker counts),
    // all over one epoch: 5 datasets, so 5 epochs are sampled and
    // gathered, not 50.
    let scale = ExperimentScale {
        seed: 0x5EED17,
        store: StoreKind::File,
        topology: TopologyKind::File,
        ..ExperimentScale::tiny()
    };
    let outcome = run(scale, 1, &["fig17"]);
    let batches = scale.batches as u64;
    assert_eq!(outcome.io.features.total.gathers, 5 * batches);
    // Every window of `queue_depth` batches is sampled as one group,
    // which reads each hop's degrees and picks once through the
    // topology tier.
    let hops = smartsage::gnn::Fanouts::paper_default().hops() as u64;
    let depth = smartsage::core::pipeline::PipelineConfig::default().queue_depth;
    let windows = scale.batches.div_ceil(depth) as u64;
    assert_eq!(outcome.io.topology.total.gathers, 5 * windows * 2 * hops);
}
