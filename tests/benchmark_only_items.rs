//! Items kept only because the frozen `benchmark/` package spells them
//! are an allowlist: each is `#[doc(hidden)]`, and outside its
//! definition and re-export no product code names it. The list is the
//! delete list of the next change to `benchmark/` (ROADMAP item 1(b)).
//! Tests may still call them, which keeps the benchmark's path tested.

use std::fs;
use std::path::{Path, PathBuf};

/// Each benchmark-only item, with the files allowed to name it.
const BENCHMARK_ONLY: [(&str, &[&str]); 8] = [
    // The plan-then-resolve shim over `TracingTopology`.
    ("plan_sample_on", &["crates/gnn/src/sampler.rs"]),
    (
        "SamplePlan",
        &["crates/gnn/src/sampler.rs", "crates/core/src/cost/trace.rs"],
    ),
    ("resolve_on", &["crates/gnn/src/sampler.rs"]),
    (
        "trace_of_plan",
        &[
            "crates/core/src/cost/trace.rs",
            "crates/core/src/cost/mod.rs",
        ],
    ),
    // The two prefetch stubs (the read-ahead they counted is gone).
    (
        "prefetch_stats",
        &[
            "crates/store/src/shared.rs",
            "crates/store/src/graph_file.rs",
        ],
    ),
    // The striped page cache the benchmark's probe times.
    (
        "ShardedPageCache",
        &[
            "crates/hostio/src/sharded_cache.rs",
            "crates/hostio/src/lib.rs",
        ],
    ),
    // The sweep scope's breakdown snapshots (product code reads
    // `SweepOutcome::io`).
    (
        "store_shards_snapshot",
        &["crates/core/src/store_metrics.rs"],
    ),
    (
        "topology_shards_snapshot",
        &["crates/core/src/store_metrics.rs"],
    ),
];

fn files(dir: PathBuf) -> Vec<PathBuf> {
    let paths = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    paths
        .flat_map(|p| if p.is_dir() { files(p) } else { vec![p] })
        .filter(|p| p.is_dir() || p.extension().is_some_and(|e| e == "rs"))
        .collect()
}

/// Whether `source` names `item` as a whole identifier.
fn names(source: &str, item: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    source.match_indices(item).any(|(at, _)| {
        let before = source[..at].chars().next_back();
        let after = source[at + item.len()..].chars().next();
        !before.is_some_and(ident) && !after.is_some_and(ident)
    })
}

#[test]
fn benchmark_only_items_are_named_only_where_allowed() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let crates = fs::read_dir(root.join("crates")).unwrap();
    let mut sources: Vec<PathBuf> = crates
        .flat_map(|c| files(c.unwrap().path().join("src")))
        .collect();
    sources.extend(files(root.join("examples")));
    let mut strays = Vec::new();
    let mut seen = vec![0usize; BENCHMARK_ONLY.len()];
    for path in &sources {
        let file = path.strip_prefix(root).unwrap().display().to_string();
        let source = fs::read_to_string(path).unwrap();
        // The product part: what precedes the file's test module.
        let product = source.split("\n#[cfg(test)]").next().unwrap();
        for ((item, allowed), seen) in BENCHMARK_ONLY.iter().zip(&mut seen) {
            if names(product, item) {
                *seen += 1;
                if !allowed.contains(&file.as_str()) {
                    strays.push(format!("{file} names {item}"));
                }
            }
        }
    }
    assert!(
        strays.is_empty(),
        "benchmark-only items named in product code: {strays:?}"
    );
    // Each item is still defined somewhere the scan looks, so the list
    // cannot go stale by a rename.
    for ((item, _), seen) in BENCHMARK_ONLY.iter().zip(seen) {
        assert!(seen > 0, "{item} is named nowhere: drop it from the list");
    }
}
