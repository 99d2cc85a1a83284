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
//! [`smartsage_core::experiments::registry`], which `reproduce` reads
//! directly; this crate only parses the `--scale` flag value.

use smartsage_core::experiments::ExperimentScale;

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
}
