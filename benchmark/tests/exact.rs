//! Same seed, same scale → every value marked exact repeats exactly,
//! on every workload and both passes; another seed gives other inputs.

use sagebench::catalog::WORKLOADS;
use sagebench::report::RunOpts;
use sagebench::run_workload;

fn opts(workload: &str, seed: u64, trace: bool) -> RunOpts {
    RunOpts {
        workload: workload.to_string(),
        seed,
        seconds: 1.0,
        trace,
        quick: true,
        trace_out: None,
        corrupt_expected: false,
    }
}

// One test, so the workloads run one after another: they share the
// process's TMPDIR and its read engine.
#[test]
fn exact_values_repeat_for_a_seed_and_move_with_it() {
    let tmp = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("exact");
    std::fs::create_dir_all(&tmp).unwrap();
    std::env::set_var("TMPDIR", &tmp);
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let first = run_workload(&opts(workload.name, 11, trace)).unwrap();
            let second = run_workload(&opts(workload.name, 11, trace)).unwrap();
            let what = format!("{} (trace {trace})", workload.name);
            assert!(first.correct && second.correct, "{what}: {:?}", first.notes);
            assert_eq!((first.failed, second.failed), (0, 0), "{what}");
            assert!(first.attempted > 0, "{what}");
            assert!(!first.exact.is_empty(), "{what} marks nothing exact");
            assert_eq!(first.exact, second.exact, "{what}");
            let other = run_workload(&opts(workload.name, 12, trace)).unwrap();
            assert!(other.correct, "{what}: {:?}", other.notes);
            assert_ne!(first.exact, other.exact, "{what}: the seed moved nothing");
        }
    }
    let _ = std::fs::remove_dir_all(&tmp);
}
