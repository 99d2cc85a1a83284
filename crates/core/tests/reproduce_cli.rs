//! The `reproduce` CLI end to end, through the built binary: bad input
//! is a usage error before anything runs, `--list` shows the registry,
//! and stdout does not depend on `--jobs`.
//!
//! `--clean-store` is only ever run here combined with a selection
//! (which it refuses): alone it deletes every published store file in
//! the temp directory, under tests that run in parallel.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(args)
        .output()
        .expect("the reproduce binary runs")
}

/// Asserts `args` is a usage error that ran nothing, and returns its
/// stderr.
fn usage_error(args: &[&str]) -> String {
    let out = reproduce(args);
    let stderr = String::from_utf8(out.stderr).expect("UTF-8 stderr");
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed on stdout");
    assert!(stderr.contains("usage: reproduce"), "{args:?}: {stderr}");
    assert!(!stderr.contains("finished in"), "{args:?} ran: {stderr}");
    stderr
}

#[test]
fn bad_input_is_a_usage_error_before_anything_runs() {
    let stderr = usage_error(&[
        "--readahead",
        "--store",
        "file",
        "--filter",
        "fig7",
        "--scale",
        "tiny",
    ]);
    assert!(stderr.contains("unknown flag '--readahead'"), "{stderr}");

    let stderr = usage_error(&["table1", "nope", "--scale", "tiny"]);
    assert!(stderr.contains("unknown experiment 'nope'"), "{stderr}");
    for name in ["table1", "fig7", "fig21", "ablation-buffer"] {
        assert!(stderr.contains(&format!("  {name} ")), "{name}: {stderr}");
    }

    let stderr = usage_error(&["table1", "--shards", "0"]);
    assert!(stderr.contains("--shards"), "{stderr}");

    let stderr = usage_error(&["table1", "--scale", "bogus"]);
    assert!(stderr.contains("unknown scale 'bogus'"), "{stderr}");

    let stderr = usage_error(&["--clean-store", "table1"]);
    assert!(stderr.contains("--clean-store"), "{stderr}");
}

#[test]
fn list_prints_the_header_and_every_registry_row() {
    let out = reproduce(&["--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 stdout");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 19, "{stdout}");
    assert!(lines[0].starts_with("NAME "), "{stdout}");
    assert!(lines[0].ends_with("DESCRIPTION"), "{stdout}");
    assert!(lines[1].starts_with("table1 "), "{stdout}");
}

#[test]
fn stdout_is_the_same_at_one_and_three_jobs_in_every_format() {
    // Three cheap experiments, so three workers finish out of order and
    // the printer has to put their chunks back in selection order.
    for format in ["text", "csv", "json"] {
        let run = |jobs: &str| {
            let out = reproduce(&[
                "table1",
                "fig5",
                "ablation-csd",
                "--scale",
                "tiny",
                "--format",
                format,
                "--jobs",
                jobs,
            ]);
            assert!(out.status.success(), "{format} at --jobs {jobs}");
            out.stdout
        };
        let serial = run("1");
        assert!(!serial.is_empty(), "{format}");
        assert_eq!(serial, run("3"), "{format}");
    }
}
