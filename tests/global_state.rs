//! Mutable global state is an allowlist: a `static` holding an atomic, a
//! lock, a once-cell or a `*Cell` is never reset between sweeps. (A
//! `thread_local!` is a `LocalKey`, which `clippy.toml` disallows, and
//! `static mut` needs `unsafe`, which the workspace forbids.)

use std::fs;
use std::path::{Path, PathBuf};

const CELL_TYPES: [&str; 6] = ["Atomic", "OnceLock", "LazyLock", "Mutex", "RwLock", "Cell"];

/// Every mutable static under `crates/*/src`, sorted, with its purpose.
const SANCTIONED: [&str; 5] = [
    "crates/hostio/src/engine.rs GLOBAL", // the process-wide read engine
    "crates/hostio/src/engine.rs SEQ",    // test-only temp-file names
    "crates/store/src/registry.rs GLOBAL", // the process-wide registry
    "crates/store/src/registry.rs SEQ",   // publish-temporary file names
    "crates/store/src/scratch.rs SEQ",    // scratch-file names
];

fn files(dir: PathBuf) -> Vec<PathBuf> {
    let paths = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path());
    paths
        .flat_map(|p| if p.is_dir() { files(p) } else { vec![p] })
        .collect()
}

#[test]
fn mutable_statics_are_exactly_the_sanctioned_ones() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut hits = Vec::new();
    let crates = fs::read_dir(root.join("crates")).unwrap();
    for path in crates.flat_map(|c| files(c.unwrap().path().join("src"))) {
        let file = path.strip_prefix(root).unwrap().display().to_string();
        let source = fs::read_to_string(&path).unwrap();
        let mut in_thread_local = false;
        for line in source.lines().map(str::trim) {
            in_thread_local = (in_thread_local || line == "thread_local! {") && line != "}";
            let (vis, item) = line.split_once("static ").unwrap_or(("-", ""));
            let (name, ty) = item.split_once(':').unwrap_or_default();
            let is_item = (vis.is_empty() || vis.starts_with("pub")) && !in_thread_local;
            let is_const = name.to_ascii_uppercase() == name;
            if is_item && is_const && CELL_TYPES.iter().any(|t| ty.contains(t)) {
                hits.push(format!("{file} {name}"));
            }
        }
    }
    hits.sort();
    assert_eq!(hits, SANCTIONED, "list a new one here, with its reason");
}
