//! Integration: the experiment registry is complete and the sweep
//! runner executes it correctly — every registered experiment produces
//! a non-empty table at tiny scale, names are unique and match what the
//! CLI derives, and parallel sweeps reproduce serial results exactly.

use smartsage::core::experiments::{registry, Experiment, ExperimentScale};
use smartsage::core::runner::{OutputFormat, Runner};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};

#[test]
fn registry_names_are_unique_and_match_cli_listing() {
    let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
    let unique: BTreeSet<&str> = names.iter().copied().collect();
    assert_eq!(unique.len(), names.len(), "duplicate experiment names");
    for e in registry() {
        assert!(!e.artifact.is_empty(), "{} has no artifact", e.name);
        assert!(!e.description.is_empty(), "{} has no description", e.name);
        assert!(
            std::ptr::eq(Experiment::find(e.name).expect("findable"), e),
            "find() must return the registry entry for {}",
            e.name
        );
    }
}

#[test]
fn every_registered_experiment_runs_nonempty_at_tiny_scale() {
    let observed = AtomicUsize::new(0);
    let runner = Runner {
        scale: ExperimentScale::tiny(),
        jobs: 0, // one worker per CPU: this is the whole grid
        ..Runner::default()
    };
    let outcomes = runner
        .sweep(|_| {
            observed.fetch_add(1, Ordering::Relaxed);
        })
        .outcomes;
    assert_eq!(outcomes.len(), registry().len());
    assert_eq!(observed.load(Ordering::Relaxed), registry().len());
    for (entry, outcome) in registry().iter().zip(&outcomes) {
        assert_eq!(
            entry.name, outcome.experiment.name,
            "outcomes must come back in registry order"
        );
        assert!(
            !outcome.table.is_empty(),
            "{} returned an empty table",
            entry.name
        );
        assert!(
            !outcome.table.headers().is_empty(),
            "{} has no headers",
            entry.name
        );
        // Machine renderings must be derivable from every table.
        assert!(outcome.table.to_json().starts_with("{\"title\":"));
        assert!(outcome.table.to_csv().contains('\n'));
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // A representative, cheap subset: the full-grid equivalence is the
    // CLI acceptance check; this guards the Runner mechanism in CI.
    let run = |jobs: usize| {
        let selection = registry()
            .iter()
            .filter(|e| matches!(e.name, "table1" | "fig5" | "fig13" | "transfer"));
        Runner {
            scale: ExperimentScale::tiny(),
            selection: selection.collect(),
            jobs,
        }
        .sweep(|_| {})
        .outcomes
    };
    let serial = run(1);
    let parallel = run(4);
    for format in [OutputFormat::Text, OutputFormat::Csv, OutputFormat::Json] {
        assert_eq!(
            format.render(&serial),
            format.render(&parallel),
            "{format:?} rendering diverged between serial and parallel"
        );
    }
}
