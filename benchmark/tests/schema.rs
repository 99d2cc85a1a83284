//! `BENCHMARK.json` against the catalogue and against what the binary
//! prints, plus the command-line behaviours the contract leans on.

use sagebench::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sagebench::report::Record;
use smartsage_core::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};
use std::sync::Mutex;

/// Tests that spawn the binary take this, so its timed runs do not
/// compete with each other for the cores.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

fn sagebench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_sagebench"))
        .args(args)
        .output()
        .expect("spawn sagebench")
}

fn benchmark_json() -> JsonValue {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    assert!(text.len() <= 64 * 1024, "BENCHMARK.json is over 64 KiB");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn names(doc: &JsonValue, key: &str) -> Vec<String> {
    doc.get(key)
        .and_then(JsonValue::as_array)
        .unwrap_or_else(|| panic!("'{key}' is an array"))
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(JsonValue::as_str)
                .unwrap()
                .to_string()
        })
        .collect()
}

fn well_formed(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(ok)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[test]
fn benchmark_json_is_the_catalogue() {
    let doc = benchmark_json();
    assert_eq!(
        doc,
        json::parse(&catalog::benchmark_json()).unwrap(),
        "regenerate with `sagebench --print-benchmark-json > BENCHMARK.json`"
    );
    let JsonValue::Obj(fields) = &doc else {
        panic!("not an object")
    };
    let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
}

#[test]
fn the_catalogue_stays_inside_the_contract() {
    assert_eq!(WORKLOADS.len(), 5);
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        assert!(well_formed(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        assert!(seen.insert(w.name), "{} is used twice", w.name);
    }
    let unit_ok = |unit: &str| {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    };
    for m in &END_TO_END {
        assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
    }
    for m in &PER_LAYER {
        assert!(well_formed(m.name) && unit_ok(m.unit), "{}", m.name);
        assert!(seen.insert(m.name), "{} is used twice", m.name);
        assert!(
            m.moves.starts_with("none") || m.moves == "failed" || {
                m.moves
                    .split([',', ' ', '(', ')'])
                    .any(|word| catalog::end_to_end(word).is_some())
            },
            "{} names no end-to-end metric to move",
            m.name
        );
    }
    let setup = catalog::end_to_end("setup_s").expect("setup_s is required");
    assert_eq!((setup.unit, setup.better), ("s", catalog::Better::Lower));
    let largest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
    assert_eq!(setup.bound, largest, "setup_s carries the largest bound");
    assert!(catalog::COMMAND.len() <= 32);
}

/// The metric names and units on the last line of a driver-form run.
fn driver_metrics(workload: &str, trace: &str) -> Vec<(String, String)> {
    let out = sagebench(&[
        "--workload",
        workload,
        "--seed",
        "5",
        "--seconds",
        "1",
        "--trace",
        trace,
        "--quick",
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    assert!(out.status.success(), "{workload}: {stdout}");
    assert!(
        stdout.contains("QUICK"),
        "a quick run says it is not comparable"
    );
    let line = json::parse(stdout.lines().last().unwrap()).expect("last line is JSON");
    let JsonValue::Obj(top) = &line else {
        panic!("not an object")
    };
    let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(line.get("correct").and_then(JsonValue::as_bool), Some(true));
    assert_eq!(line.get("failed").and_then(JsonValue::as_u64), Some(0));
    assert!(line.get("attempted").and_then(JsonValue::as_u64).unwrap() >= 1);
    let JsonValue::Obj(metrics) = line.get("metrics").unwrap() else {
        panic!("metrics is not an object")
    };
    metrics
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value").and_then(JsonValue::as_f64).is_some(),
                "{name}"
            );
            // Every printed name also appears, with its unit, above the line.
            assert!(stdout.contains(&format!("  {name} ")), "{name} not printed");
            (
                name.clone(),
                m.get("unit")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string(),
            )
        })
        .collect()
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    let doc = benchmark_json();
    let sorted = |mut v: Vec<String>| {
        v.sort();
        v
    };
    let (end_to_end, per_layer) = (
        sorted(names(&doc, "end_to_end")),
        sorted(names(&doc, "per_layer")),
    );
    for workload in names(&doc, "workloads") {
        for (trace, declared) in [("0", &end_to_end), ("1", &per_layer)] {
            let printed = driver_metrics(&workload, trace);
            let printed_names = sorted(printed.iter().map(|(n, _)| n.clone()).collect());
            assert_eq!(&printed_names, declared, "{workload} --trace {trace}");
            for (name, unit) in printed {
                assert_eq!(Some(unit.as_str()), catalog::unit_of(&name), "{name}");
            }
        }
    }
}

#[test]
fn a_corrupted_expectation_fails_the_run() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    for (workload, trace) in [
        ("sweep_file_hot", "0"),
        ("sweep_file_hot", "1"),
        ("fit_mem", "0"),
        ("serve_infer_file", "0"),
    ] {
        let out = sagebench(&[
            "--workload",
            workload,
            "--trace",
            trace,
            "--quick",
            "--corrupt-expected",
        ]);
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            !out.status.success(),
            "{workload} --trace {trace} passed: {stdout}"
        );
        assert!(stdout.contains("FAILED:"), "{stdout}");
        assert!(stdout.contains("\"correct\":false"), "{stdout}");
    }
}

#[test]
fn bad_arguments_exit_nonzero_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--trace", "2"],
        &["--seconds", "-1"],
        &["--bogus"],
    ] {
        let out = sagebench(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn full_quick_run_writes_a_record_traces_and_leaves_no_files_behind() {
    let _guard = ONE_AT_A_TIME.lock().unwrap();
    let dir = scratch("full");
    let (record_path, traces) = (dir.join("run.json"), dir.join("traces"));
    let started = std::time::Instant::now();
    let out = sagebench(&[
        "--quick",
        "--seed",
        "3",
        "--out",
        record_path.to_str().unwrap(),
        "--trace-out",
        traces.to_str().unwrap(),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        started.elapsed().as_secs() < 60,
        "a quick run is meant to take seconds"
    );
    assert!(stdout.contains("error_rate 0"));

    let record = Record::parse(&std::fs::read_to_string(&record_path).unwrap()).unwrap();
    assert!(record.quick && record.seed == 3);
    assert_eq!(record.results.len(), 2 * WORKLOADS.len());
    for w in &WORKLOADS {
        let untraced = record.result(w.name, false).unwrap();
        for m in &END_TO_END {
            let s = untraced.metrics.get(m.name).unwrap();
            assert!(s.value > 0.0, "{} {} must never be 0", w.name, m.name);
        }
        assert_eq!(untraced.error_rate(), 0.0);
        // One Chrome trace per workload, loadable: complete events
        // with microsecond timestamps under "traceEvents".
        let text = std::fs::read_to_string(traces.join(format!("{}.trace.json", w.name))).unwrap();
        let trace = json::parse(&text).unwrap();
        let events = trace
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .unwrap();
        assert!(events.len() > 10, "{}", w.name);
        assert!(events.iter().skip(1).all(|e| {
            e.get("ph").and_then(JsonValue::as_str) == Some("X")
                && e.get("ts").and_then(JsonValue::as_f64).is_some()
                && e.get("dur").and_then(JsonValue::as_f64).is_some()
        }));
    }

    // A record agrees with itself; a doctored one does not.
    let same = sagebench(&[
        "--compare",
        record_path.to_str().unwrap(),
        record_path.to_str().unwrap(),
    ]);
    assert_eq!(
        same.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&same.stdout)
    );
    let mut doctored = record.clone();
    for r in &mut doctored.results {
        if let Some(s) = r.metrics.get_mut("items_per_s") {
            s.value *= 0.5;
            s.lo *= 0.5;
            s.hi *= 0.5;
        }
    }
    let slower_path = dir.join("slower.json");
    std::fs::write(&slower_path, doctored.to_json()).unwrap();
    let slower = sagebench(&[
        "--compare",
        record_path.to_str().unwrap(),
        slower_path.to_str().unwrap(),
    ]);
    assert_eq!(slower.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&slower.stdout).contains("REGRESSED"));

    // Every pass's TMPDIR is gone again.
    let tmp_root = Path::new(env!("CARGO_BIN_EXE_sagebench"))
        .parent()
        .unwrap()
        .join("sagebench-tmp");
    let left: Vec<_> = std::fs::read_dir(&tmp_root)
        .map(|d| d.flatten().map(|e| e.path()).collect())
        .unwrap_or_default();
    assert!(left.is_empty(), "left behind: {left:?}");
    let _ = std::fs::remove_dir_all(&dir);
}
