//! `sagebench`: one layered, repeated, self-checking benchmark for the
//! SmartSAGE reproduction's wall-clock — offline sweeps, functional
//! training and online serving. See `README.md` for the catalogue.
//!
//! Everything here lives outside the program: workloads call the
//! crates' public functions, spans are recorded from this package's own
//! files, and outputs are checked against the in-memory tiers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod compare;
pub mod data;
pub mod fit;
pub mod probes;
pub mod report;
pub mod serve;
pub mod stats;
pub mod sweep;
pub mod trace;

use report::{RunOpts, WorkloadResult};

/// A workload either produced a result or could not run at all.
pub type BenchResult<T> = Result<T, String>;

/// Runs one pass of one workload in this process. Store files are
/// published into `std::env::temp_dir()`, which the caller owns.
pub fn run_workload(opts: &RunOpts) -> BenchResult<WorkloadResult> {
    if catalog::workload(&opts.workload).is_none() {
        return Err(format!("unknown workload '{}'", opts.workload));
    }
    if let Some(spec) = sweep::SweepSpec::named(&opts.workload) {
        let run = if opts.trace {
            sweep::run_traced
        } else {
            sweep::run_end_to_end
        };
        return run(&spec, opts).map_err(|e| e.to_string());
    }
    match (opts.workload.as_str(), opts.trace) {
        (catalog::FIT_MEM, false) => fit::run_end_to_end(opts).map_err(|e| e.to_string()),
        (catalog::FIT_MEM, true) => fit::run_traced(opts).map_err(|e| e.to_string()),
        (_, false) => serve::run_end_to_end(opts),
        (_, true) => serve::run_traced(opts),
    }
}
