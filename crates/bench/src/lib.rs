//! CLI support for the SmartSAGE reproduction.
//!
//! The real entry point is the `reproduce` binary
//! (`cargo run --release -p smartsage-bench --bin reproduce`), which
//! regenerates paper tables/figures from the experiment registry
//! (`--list`, `--filter`, `--jobs N`, `--format text|csv|json`).
//! Wall-clock measurement lives in the standalone `benchmark/` package
//! (`sagebench`).
//!
//! The set of experiment names is owned by
//! [`smartsage_core::experiments::registry`]; this crate only re-derives
//! views of it and parses the `--scale` flag value.

#![forbid(unsafe_code)]

use smartsage_core::experiments::{registry, ExperimentScale};

/// Parses an experiment scale from a CLI flag value.
///
/// Accepts `tiny`, `default`, or `paper`.
pub fn scale_from_flag(flag: &str) -> Option<ExperimentScale> {
    match flag {
        "tiny" => Some(ExperimentScale::tiny()),
        "default" => Some(ExperimentScale::default()),
        "paper" => Some(ExperimentScale::paper()),
        _ => None,
    }
}

/// The experiment names the `reproduce` binary understands, derived
/// from the registry (registry order).
pub fn experiment_names() -> Vec<&'static str> {
    registry().iter().map(|e| e.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_flags_parse() {
        assert!(scale_from_flag("tiny").is_some());
        assert!(scale_from_flag("default").is_some());
        assert!(scale_from_flag("paper").is_some());
        assert!(scale_from_flag("bogus").is_none());
    }

    #[test]
    fn experiment_names_mirror_the_registry() {
        // Uniqueness itself is asserted next to the registry (core) and
        // in tests/registry_runner.rs; here only the derivation matters.
        let names = experiment_names();
        assert_eq!(names.len(), registry().len());
        assert!(names.contains(&"fig18"));
        assert!(names.contains(&"ablation-buffer"));
    }
}
