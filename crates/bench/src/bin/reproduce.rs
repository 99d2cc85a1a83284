//! Regenerates tables and figures of the SmartSAGE paper from the
//! experiment registry.
//!
//! Usage:
//!
//! ```text
//! reproduce [EXPERIMENT...] [--list] [--filter SUBSTR]
//!           [--scale tiny|default|paper] [--format text|csv|json]
//!           [--jobs N] [--store mem|file|isp] [--graph mem|file|isp]
//!           [--shards N] [--clean-store]
//! ```
//!
//! With no experiment names, everything runs in paper (registry) order.
//! `--jobs N` fans the sweep across N threads (`0` = one per CPU);
//! each result is *streamed* to stdout as soon as it and all of its
//! predecessors in the selection are done, so parallel output is
//! byte-identical to serial output and long sweeps show progress.
//! Timing lines go to stderr. `--list` prints the selection (after
//! name/filter resolution) without running anything.
//!
//! `--store mem|file|isp` routes every pipeline run's feature gathers
//! through a feature store. With `file` or `isp`, all jobs of the
//! sweep share **one** registry-opened feature file per content key
//! (one open file, one sharded page cache), and the end-of-sweep
//! stderr report carries the sweep's *exact* scoped I/O — the
//! device-vs-host byte split, page-cache hit rate, modeled device
//! time, and per-shard cache occupancy — never contaminated by earlier
//! sweeps in the same process. `file` ships every fetched page to the
//! host whole (the Fig 10(a) baseline); `isp` gathers device-side and
//! ships only the packed feature rows (Fig 10(b)), so its host bytes
//! undercut `file`'s for the same sweep. Tables are byte-identical with
//! and without a store, serial or parallel (the determinism contract);
//! only the I/O accounting changes.
//!
//! `--graph mem|file|isp` does for the *topology* half of the dataset
//! what `--store` does for features: neighbor sampling reads degrees
//! and edge slices through a topology store. With `file`, the
//! content-keyed `SSGRPH01` graph file is shared across the sweep's
//! jobs and every fetched page crosses the modeled host link whole;
//! with `isp`, hop expansion resolves device-side and only packed
//! degrees and sampled neighbor ids cross, so isp host bytes undercut
//! `file`'s for the same sweep. The end-of-sweep stderr report adds
//! the sweep's exact, scoped topology I/O. Tables stay byte-identical
//! across `--graph` tiers (the determinism contract).
//!
//! `--shards N` partitions both halves of every dataset across `N`
//! modeled storage devices: contiguous node ranges, one per-shard
//! content-keyed file, cache-budget slice, and (on the isp tiers) SSD
//! timing model per device. Batched requests scatter to their owning
//! shards and merge back in request order, so tables are byte-identical
//! at every shard count — the end-of-sweep stderr report simply gains a
//! per-shard `[store shard i: ...]` / `[graph shard i: ...]` breakdown
//! whose I/O columns sum exactly to the sweep totals.
//!
//! `--clean-store` removes the content-keyed feature files
//! (`smartsage-feat-*.fbin`), graph files (`smartsage-graph-*.gbin`),
//! and any orphaned publish temporaries from the OS temp directory,
//! then exits.
//!
//! All flags are validated (and unknown experiment names rejected with
//! the list of valid names, exit code 2) before any experiment runs.

#![forbid(unsafe_code)]

use smartsage_bench::scale_from_flag;
use smartsage_core::experiments::{registry, Experiment, ExperimentScale};
use smartsage_core::report::Table;
use smartsage_core::runner::{OutputFormat, Runner};
use smartsage_core::{StoreKind, TopologyKind};
use smartsage_store::{remove_cached_feature_files, StoreStats};
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Mutex;

fn fail_usage(message: &str) -> ! {
    eprintln!("{message}");
    eprintln!(
        "usage: reproduce [EXPERIMENT...] [--list] [--filter SUBSTR] \
         [--scale tiny|default|paper] [--format text|csv|json] [--jobs N] \
         [--store mem|file|isp] [--graph mem|file|isp] [--shards N] \
         [--clean-store]"
    );
    std::process::exit(2);
}

fn fail_unknown_experiment(name: &str) -> ! {
    eprintln!("unknown experiment '{name}'; valid names:");
    for e in registry() {
        eprintln!("  {:<20} {}", e.name, e.artifact);
    }
    std::process::exit(2);
}

/// Writes to stdout, treating a closed pipe (e.g. `reproduce | head`)
/// as a clean early exit rather than a panic.
fn emit(s: &str) {
    let mut out = std::io::stdout().lock();
    if out.write_all(s.as_bytes()).is_err() || out.flush().is_err() {
        std::process::exit(0);
    }
}

fn print_list(selection: &[&'static Experiment]) {
    emit(&format!("{:<20} {:<18} DESCRIPTION\n", "NAME", "ARTIFACT"));
    for e in selection {
        emit(&format!(
            "{:<20} {:<18} {}\n",
            e.name, e.artifact, e.description
        ));
    }
}

struct Cli {
    names: Vec<String>,
    filter: Option<String>,
    scale: ExperimentScale,
    format: OutputFormat,
    jobs: usize,
    list: bool,
    store: Option<StoreKind>,
    graph: Option<TopologyKind>,
    shards: usize,
    clean_store: bool,
}

fn parse_args(args: Vec<String>) -> Cli {
    let mut cli = Cli {
        names: Vec::new(),
        filter: None,
        scale: ExperimentScale::default(),
        format: OutputFormat::Text,
        jobs: 1,
        list: false,
        store: None,
        graph: None,
        shards: 1,
        clean_store: false,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value_of = |flag: &str| {
            it.next()
                .unwrap_or_else(|| fail_usage(&format!("{flag} requires a value")))
        };
        match arg.as_str() {
            "--list" => cli.list = true,
            "--scale" => {
                let value = value_of("--scale");
                cli.scale = scale_from_flag(&value).unwrap_or_else(|| {
                    fail_usage(&format!("unknown scale '{value}' (tiny|default|paper)"))
                });
            }
            "--format" => {
                let value = value_of("--format");
                cli.format = OutputFormat::parse(&value).unwrap_or_else(|| {
                    fail_usage(&format!("unknown format '{value}' (text|csv|json)"))
                });
            }
            "--jobs" => {
                let value = value_of("--jobs");
                cli.jobs = value.parse().unwrap_or_else(|_| {
                    fail_usage(&format!("--jobs expects an integer, got '{value}'"))
                });
            }
            "--store" => {
                let value = value_of("--store");
                cli.store = Some(StoreKind::parse(&value).unwrap_or_else(|| {
                    fail_usage(&format!("unknown store '{value}' (mem|file|isp)"))
                }));
            }
            "--graph" => {
                let value = value_of("--graph");
                cli.graph = Some(TopologyKind::parse(&value).unwrap_or_else(|| {
                    fail_usage(&format!("unknown graph tier '{value}' (mem|file|isp)"))
                }));
            }
            "--shards" => {
                let value = value_of("--shards");
                cli.shards = value.parse().unwrap_or_else(|_| {
                    fail_usage(&format!("--shards expects an integer, got '{value}'"))
                });
                if cli.shards == 0 {
                    fail_usage("--shards expects at least one device");
                }
            }
            "--clean-store" => cli.clean_store = true,
            "--filter" => cli.filter = Some(value_of("--filter")),
            flag if flag.starts_with("--") => fail_usage(&format!("unknown flag '{flag}'")),
            name => cli.names.push(name.to_string()),
        }
    }
    cli
}

/// The end-of-sweep stderr report of one dataset half: totals, the
/// device-vs-host split, the typed table, then the per-device breakdown
/// of a sharded sweep (exact, scoped, and summing to the totals — the
/// shard-conformance contract). `[axis, verb, payload]` are the three
/// nouns the feature and topology reports differ in.
fn report_axis(
    [axis, verb, payload]: [&str; 3],
    tier: &str,
    s: &StoreStats,
    table: &Table,
    shards: &[StoreStats],
) {
    eprintln!(
        "[{axis} {tier}: {} {verb}, {} {payload} bytes, {} bytes read from disk \
         ({} pages), page-cache hit rate {:.1}%]",
        s.gathers,
        s.feature_bytes,
        s.bytes_read,
        s.pages_read,
        s.hit_rate() * 100.0
    );
    eprintln!(
        "[{axis} {tier}: device {} bytes read, host {} bytes transferred, \
         transfer reduction {:.2}x, modeled device time {:.3} ms]",
        s.device_bytes_read,
        s.host_bytes_transferred,
        s.transfer_reduction(),
        s.device_ns as f64 / 1e6
    );
    eprint!("{table}");
    for (i, s) in shards.iter().enumerate() {
        eprintln!(
            "[{axis} shard {i}: {} sub-{verb}, {} bytes read from disk \
             ({} pages), host {} bytes transferred, modeled device time \
             {:.3} ms]",
            s.gathers,
            s.bytes_read,
            s.pages_read,
            s.host_bytes_transferred,
            s.device_ns as f64 / 1e6
        );
    }
}

fn main() {
    let cli = parse_args(std::env::args().skip(1).collect());

    if cli.clean_store {
        // A standalone action: combining it with a selection would
        // silently skip the sweep the user asked for.
        if !cli.names.is_empty()
            || cli.list
            || cli.filter.is_some()
            || cli.store.is_some()
            || cli.graph.is_some()
            || cli.shards != 1
        {
            fail_usage("--clean-store is a standalone action and cannot be combined with a sweep");
        }
        let removed = remove_cached_feature_files();
        eprintln!(
            "[clean-store: removed {removed} cached feature file(s) from the temp directory]"
        );
        return;
    }

    // Resolve and validate the whole selection up front: a typo in the
    // last name must abort before the first experiment runs, and
    // `--list` must show exactly what a run would execute.
    let mut selection: Vec<&'static Experiment> = if cli.names.is_empty() {
        registry().iter().collect()
    } else {
        cli.names
            .iter()
            .map(|n| Experiment::find(n).unwrap_or_else(|| fail_unknown_experiment(n)))
            .collect()
    };
    if let Some(filter) = &cli.filter {
        selection
            .retain(|e| e.name.contains(filter.as_str()) || e.artifact.contains(filter.as_str()));
        if selection.is_empty() {
            fail_usage(&format!("--filter '{filter}' matches no experiments"));
        }
    }
    if cli.list {
        print_list(&selection);
        return;
    }

    // Stream each result as soon as it and all earlier selections are
    // done: completion order may differ under --jobs, so buffer
    // out-of-order chunks and flush the contiguous prefix. This keeps
    // parallel stdout byte-identical to serial while long sweeps still
    // show progress.
    let format = cli.format;
    let printer: Mutex<(usize, BTreeMap<usize, String>)> = Mutex::new((0, BTreeMap::new()));
    let mut scale = cli.scale;
    if let Some(kind) = cli.store {
        scale.store = kind;
    }
    if let Some(kind) = cli.graph {
        scale.topology = kind;
    }
    scale.shards = cli.shards;
    let runner = Runner::builder()
        .scale(scale)
        .experiments(selection)
        .jobs(cli.jobs)
        .on_result(move |o| {
            eprintln!(
                "[{} finished in {:.1}s]",
                o.experiment.name,
                o.wall.as_secs_f64()
            );
            let chunk = format.render_one(o, o.index == 0);
            let mut state = printer.lock().expect("printer state");
            state.1.insert(o.index, chunk);
            loop {
                let next = state.0;
                match state.1.remove(&next) {
                    Some(chunk) => {
                        emit(&chunk);
                        state.0 += 1;
                    }
                    None => break,
                }
            }
        })
        .build();

    if format == OutputFormat::Text {
        emit(&format!(
            "# SmartSAGE reproduction (edge budget {}, batch {}, {} batches, {} workers)\n\n",
            scale.edge_budget, scale.batch_size, scale.batches, scale.workers
        ));
    }
    emit(format.prologue());
    let sweep = runner.sweep();
    emit(format.epilogue());

    // Report this sweep's exact, scoped I/O on each axis a flag chose —
    // never a process-lifetime aggregate, so back-to-back sweeps report
    // independently. Stderr, like the timing lines, so every --format
    // stays machine-parseable.
    if let Some(kind) = cli.store {
        report_axis(
            ["store", "gathers", "feature"],
            kind.label(),
            &sweep.store_stats,
            &sweep.store_table(kind),
            &sweep.store_shards,
        );
    }
    if let Some(kind) = cli.graph {
        report_axis(
            ["graph", "reads", "topology"],
            kind.label(),
            &sweep.topology_stats,
            &sweep.topology_table(kind),
            &sweep.topology_shards,
        );
    }
    if cli.store.is_some() || cli.graph.is_some() {
        for occ in &sweep.stores {
            let shards: Vec<String> = occ.shard_pages.iter().map(usize::to_string).collect();
            eprintln!(
                "[store cache {}: {}/{} pages resident, shards [{}]]",
                occ.path.display(),
                occ.resident_pages(),
                occ.capacity_pages,
                shards.join(" ")
            );
        }
    }
}
