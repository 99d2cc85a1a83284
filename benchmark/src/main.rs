//! `sagebench` command line. Each workload pass runs in a fresh child
//! process of this same binary with a benchmark-owned `TMPDIR`, so
//! peak RSS, the process-wide read engine's counters and the published
//! store files belong to that pass alone.

#![forbid(unsafe_code)]

use sagebench::catalog::{self, END_TO_END, PER_LAYER, WORKLOADS};
use sagebench::compare::compare;
use sagebench::data::nproc;
use sagebench::report::{Record, RunOpts, WorkloadResult};
use sagebench::{run_workload, BenchResult};
use smartsage_core::json;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "\
usage: sagebench [options]                      run all five workloads, both passes
       sagebench --workload W [options]         run one pass of one workload; the last
                                                line of stdout is its JSON result
       sagebench --compare A.json B.json        compare two --out records
       sagebench --list                         print the workload and metric catalogue

options:
  --seed N         seed of every generated input (default 7)
  --seconds S      wall-clock for timed repeats per pass (default 20; never fewer
                   than 3 repeats of the workload's fixed work)
  --trace 0|1      with --workload: 0 = end-to-end metrics from untraced passes
                   (default), 1 = the traced pass behind the per-layer metrics
  --trace-out DIR  write one Chrome trace-event file per traced workload
  --out FILE       write the run's record (values, ranges, n, exact values, notes)
  --quick          datasets /10, less work, one repeat: for this package's tests
                   only, NOT comparable with a full run
";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_out: Option<PathBuf>,
    out: Option<PathBuf>,
    corrupt_expected: bool,
    child: bool,
    compare: Option<(PathBuf, PathBuf)>,
    list: bool,
    print_benchmark_json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: f64::from(catalog::RUN_SECONDS),
        trace: false,
        quick: false,
        trace_out: None,
        out: None,
        corrupt_expected: false,
        child: false,
        compare: None,
        list: false,
        print_benchmark_json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--trace-out" => args.trace_out = Some(value("a directory")?.into()),
            "--out" => args.out = Some(value("a file")?.into()),
            "--compare" => {
                args.compare = Some((value("two files")?.into(), value("two files")?.into()))
            }
            "--quick" => args.quick = true,
            "--list" => args.list = true,
            "--print-benchmark-json" => args.print_benchmark_json = true,
            // Test hook and child marker; not part of the documented surface.
            "--corrupt-expected" => args.corrupt_expected = true,
            "--child" => args.child = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if let Some(name) = &args.workload {
        if catalog::workload(name).is_none() {
            let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload '{name}' (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

impl Args {
    fn run_opts(&self, workload: &str, trace: bool) -> RunOpts {
        RunOpts {
            workload: workload.to_string(),
            seed: self.seed,
            seconds: self.seconds,
            trace,
            quick: self.quick,
            trace_out: self.trace_out.clone(),
            corrupt_expected: self.corrupt_expected,
        }
    }
}

/// A directory under the build's target directory that one pass owns:
/// store files are published there and the whole directory is removed
/// when the pass ends, however it ends.
struct OwnedTmp(PathBuf);

impl OwnedTmp {
    fn create() -> BenchResult<OwnedTmp> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let root = exe
            .parent()
            .ok_or("the executable has no parent directory")?
            .join("sagebench-tmp");
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.subsec_nanos());
        let dir = root.join(format!("run-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(OwnedTmp(dir))
    }
}

impl Drop for OwnedTmp {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs one pass in a fresh child process and returns its result.
fn run_in_child(opts: &RunOpts) -> BenchResult<WorkloadResult> {
    let tmp = OwnedTmp::create()?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("--child")
        .args(["--workload", &opts.workload])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.trace { "1" } else { "0" }])
        .env("TMPDIR", &tmp.0)
        // Fix glibc's allocator thresholds (they otherwise adapt to the
        // allocation history, and peak RSS then varies by 30 % with the
        // seed), and fix them high: per-batch buffers come from the
        // retained heap instead of a fresh mmap each, whose page faults
        // cost every workload a third of its time at the default 128 KiB
        // and are what a busy neighbour on the host slows most.
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .env("MALLOC_TRIM_THRESHOLD_", "1099511627776")
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.quick {
        command.arg("--quick");
    }
    if opts.corrupt_expected {
        command.arg("--corrupt-expected");
    }
    if let Some(dir) = &opts.trace_out {
        command.arg("--trace-out").arg(dir);
    }
    // `output` waits for the child to exit; `tmp` is removed after.
    let output = command
        .output()
        .map_err(|e| format!("spawning the {} child: {e}", opts.workload))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let result = stdout
        .lines()
        .last()
        .ok_or_else(|| "no output".to_string())
        .and_then(|line| json::parse(line).map_err(|e| e.to_string()))
        .and_then(|doc| WorkloadResult::from_json(&doc))
        .map_err(|e| {
            format!(
                "the {} child ended with {} and no result ({e})",
                opts.workload, output.status
            )
        })?;
    if !output.status.success() {
        return Err(format!(
            "the {} child ended with {}",
            opts.workload, output.status
        ));
    }
    Ok(result)
}

/// Prints every metric of a pass by name, with its unit and spread.
fn print_result(r: &WorkloadResult) {
    println!(
        "== {} ({}, seed {}{}): attempted {}, failed {}, error_rate {}, {}",
        r.workload,
        if r.trace {
            "traced pass"
        } else {
            "untraced passes"
        },
        r.seed,
        if r.quick {
            ", QUICK - not comparable"
        } else {
            ""
        },
        r.attempted,
        r.failed,
        r.error_rate(),
        if r.correct {
            "outputs correct"
        } else {
            "OUTPUTS WRONG"
        },
    );
    let order: Vec<&str> = if r.trace {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    for name in order {
        if let Some(s) = r.metrics.get(name) {
            let unit = catalog::unit_of(name).unwrap_or("");
            if s.n > 1 {
                println!(
                    "  {name:<36} {:>16.6} {unit:<8} (range {:.6} .. {:.6}, n={})",
                    s.value, s.lo, s.hi, s.n
                );
            } else {
                println!("  {name:<36} {:>16.6} {unit}", s.value);
            }
        }
    }
    for (name, value) in &r.exact {
        println!("  exact {name} = {value}");
    }
    if !r.slowest.is_empty() {
        let top: Vec<String> = r
            .slowest
            .iter()
            .take(3)
            .map(|(name, ms)| format!("{name} {ms:.3} ms"))
            .collect();
        println!("  slowest layers by self time per item: {}", top.join(", "));
    }
    for note in &r.notes {
        println!("  {note}");
    }
}

fn print_catalogue() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<20} {}", w.name, w.why);
    }
    println!("\nend-to-end metrics (every workload; bound = allowed worsening):");
    for m in &END_TO_END {
        println!(
            "  {:<18} {:<5} {:<7} bound {:<5} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.bound,
            m.what
        );
    }
    println!("\nper-layer metrics (name, unit, better, should move, measured on):");
    for m in &PER_LAYER {
        println!(
            "  {:<36} {:<8} {:<7} {:<38} {}",
            m.name,
            m.unit,
            m.better.label(),
            m.moves,
            m.on
        );
    }
}

fn read_record(path: &Path) -> BenchResult<Record> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    Record::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> BenchResult<ExitCode> {
    if args.list {
        print_catalogue();
        return Ok(ExitCode::SUCCESS);
    }
    if args.print_benchmark_json {
        print!("{}", catalog::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &args.compare {
        let comparison = compare(&read_record(a)?, &read_record(b)?)?;
        print!("{}", comparison.render());
        return Ok(ExitCode::from(comparison.exit_code() as u8));
    }
    if args.child {
        let workload = args.workload.as_deref().ok_or("--child needs --workload")?;
        let result = run_workload(&args.run_opts(workload, args.trace))?;
        println!("{}", result.to_json());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(workload) = &args.workload {
        // The driver's form: one pass, the result as the last line.
        let result = run_in_child(&args.run_opts(workload, args.trace))?;
        print_result(&result);
        println!("{}", result.driver_line());
        return Ok(if result.correct {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        });
    }
    println!(
        "sagebench: seed {}, {} s per pass, {} core(s){}",
        args.seed,
        args.seconds,
        nproc(),
        if args.quick {
            " - QUICK run, numbers are not comparable with a full run"
        } else {
            ""
        }
    );
    let mut record = Record {
        seed: args.seed,
        quick: args.quick,
        nproc: nproc(),
        results: Vec::new(),
    };
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let result = run_in_child(&args.run_opts(workload.name, trace))?;
            print_result(&result);
            record.results.push(result);
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, record.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("sagebench: wrote {}", path.display());
    }
    Ok(if record.results.iter().all(|r| r.correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            if !message.is_empty() {
                eprintln!("sagebench: {message}\n");
            }
            eprint!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("sagebench: {message}");
            ExitCode::from(3)
        }
    }
}
