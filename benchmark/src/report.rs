//! What a workload run produces, and its JSON forms: the one-line
//! result the driver reads, and the record `--out` / `--compare` use.

use crate::catalog::{self, PER_LAYER};
use crate::stats::Summary;
use smartsage_core::json::{self, escape_string, number, JsonValue};
use std::collections::BTreeMap;

/// How one workload is run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOpts {
    /// Catalogue name of the workload.
    pub workload: String,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock to spend on timed repeats (never fewer than three
    /// repeats of the workload's fixed work).
    pub seconds: f64,
    /// `false`: end-to-end metrics from untraced passes. `true`: the
    /// traced pass, counters and probes behind the per-layer metrics.
    pub trace: bool,
    /// Datasets ÷10, less work, one repeat — for the package's own tests
    /// only; numbers are not comparable with a full run.
    pub quick: bool,
    /// Where to write the workload's Chrome trace (traced pass only).
    pub trace_out: Option<std::path::PathBuf>,
    /// Test hook: corrupt one expected value so the output check must
    /// fail.
    pub corrupt_expected: bool,
}

/// A run's verdict and numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadResult {
    /// Catalogue name of the workload.
    pub workload: String,
    /// Seed the inputs were generated from.
    pub seed: u64,
    /// Whether this was the traced pass.
    pub trace: bool,
    /// Whether this was a `--quick` run.
    pub quick: bool,
    /// Every output check passed.
    pub correct: bool,
    /// Batches, steps or requests attempted in the timed repeats.
    pub attempted: u64,
    /// How many of them errored, were refused or failed verification.
    pub failed: u64,
    /// Every end-to-end metric (untraced) or per-layer metric (traced).
    pub metrics: BTreeMap<String, Summary>,
    /// Values that must repeat exactly for a given seed and scale.
    pub exact: BTreeMap<String, String>,
    /// Failed checks and workload-validity findings, one line each.
    pub notes: Vec<String>,
    /// Traced pass: layers by self time per item, slowest first (ms).
    pub slowest: Vec<(String, f64)>,
}

impl WorkloadResult {
    /// An empty passing result for `opts`.
    pub fn new(opts: &RunOpts) -> WorkloadResult {
        WorkloadResult {
            workload: opts.workload.clone(),
            seed: opts.seed,
            trace: opts.trace,
            quick: opts.quick,
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: BTreeMap::new(),
            exact: BTreeMap::new(),
            notes: Vec::new(),
            slowest: Vec::new(),
        }
    }

    /// Records a metric summarized over repeats.
    pub fn set(&mut self, name: &str, summary: Summary) {
        assert!(
            catalog::unit_of(name).is_some(),
            "metric {name} is not in the catalogue"
        );
        self.metrics.insert(name.to_string(), summary);
    }

    /// Records a single reading.
    pub fn set_value(&mut self, name: &str, value: f64) {
        self.set(name, Summary::single(value));
    }

    /// Records an exactly repeatable value.
    pub fn set_exact(&mut self, name: &str, value: impl ToString) {
        self.exact.insert(name.to_string(), value.to_string());
    }

    /// Fails the run with a reason.
    pub fn fail(&mut self, why: String) {
        self.correct = false;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Checks `ok`, failing the run with `why` otherwise.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        if !ok {
            self.fail(why());
        }
    }

    /// Traced pass: layers not on this workload's path read 0.
    pub fn fill_missing_layers(&mut self) {
        for m in &PER_LAYER {
            self.metrics
                .entry(m.name.to_string())
                .or_insert_with(|| Summary::single(0.0));
        }
    }

    /// The last line of a driver run:
    /// `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
    pub fn driver_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    escape_string(name),
                    number(s.value),
                    escape_string(catalog::unit_of(name).unwrap_or(""))
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        )
    }

    /// The full record (one line).
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, s)| {
                format!(
                    "{}:{{\"value\":{},\"lo\":{},\"hi\":{},\"n\":{},\"unit\":{}}}",
                    escape_string(name),
                    number(s.value),
                    number(s.lo),
                    number(s.hi),
                    s.n,
                    escape_string(catalog::unit_of(name).unwrap_or(""))
                )
            })
            .collect();
        let exact: Vec<String> = self
            .exact
            .iter()
            .map(|(k, v)| format!("{}:{}", escape_string(k), escape_string(v)))
            .collect();
        let notes: Vec<String> = self.notes.iter().map(|n| escape_string(n)).collect();
        let slowest: Vec<String> = self
            .slowest
            .iter()
            .map(|(name, ms)| format!("[{},{}]", escape_string(name), number(*ms)))
            .collect();
        format!(
            "{{\"workload\":{},\"seed\":{},\"trace\":{},\"quick\":{},\"correct\":{},\
             \"attempted\":{},\"failed\":{},\"metrics\":{{{}}},\"exact\":{{{}}},\
             \"notes\":[{}],\"slowest\":[{}]}}",
            escape_string(&self.workload),
            self.seed,
            self.trace,
            self.quick,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(","),
            exact.join(","),
            notes.join(","),
            slowest.join(","),
        )
    }

    /// Parses [`WorkloadResult::to_json`] output.
    pub fn from_json(value: &JsonValue) -> Result<WorkloadResult, String> {
        let field = |key: &str| value.get(key).ok_or_else(|| format!("missing '{key}'"));
        let object = |key: &str| -> Result<&[(String, JsonValue)], String> {
            match field(key)? {
                JsonValue::Obj(fields) => Ok(fields),
                _ => Err(format!("'{key}' is not an object")),
            }
        };
        let mut metrics = BTreeMap::new();
        for (name, m) in object("metrics")? {
            let num = |key: &str| {
                m.get(key)
                    .and_then(JsonValue::as_f64)
                    .ok_or_else(|| format!("metric {name}: missing '{key}'"))
            };
            metrics.insert(
                name.clone(),
                Summary {
                    value: num("value")?,
                    lo: num("lo")?,
                    hi: num("hi")?,
                    n: num("n")? as usize,
                },
            );
        }
        let mut exact = BTreeMap::new();
        for (name, v) in object("exact")? {
            exact.insert(
                name.clone(),
                v.as_str()
                    .ok_or_else(|| format!("exact {name}: not a string"))?
                    .to_string(),
            );
        }
        let strings = |key: &str| -> Result<Vec<String>, String> {
            Ok(field(key)?
                .as_array()
                .ok_or_else(|| format!("'{key}' is not an array"))?
                .iter()
                .filter_map(|n| n.as_str().map(str::to_string))
                .collect())
        };
        let slowest = field("slowest")?
            .as_array()
            .ok_or("'slowest' is not an array")?
            .iter()
            .filter_map(|pair| {
                let pair = pair.as_array()?;
                Some((pair.first()?.as_str()?.to_string(), pair.get(1)?.as_f64()?))
            })
            .collect();
        let boolean = |key: &str| {
            field(key)?
                .as_bool()
                .ok_or_else(|| format!("'{key}' is not a boolean"))
        };
        let integer = |key: &str| {
            field(key)?
                .as_u64()
                .ok_or_else(|| format!("'{key}' is not a whole number"))
        };
        Ok(WorkloadResult {
            workload: field("workload")?
                .as_str()
                .ok_or("'workload' is not a string")?
                .to_string(),
            seed: integer("seed")?,
            trace: boolean("trace")?,
            quick: boolean("quick")?,
            correct: boolean("correct")?,
            attempted: integer("attempted")?,
            failed: integer("failed")?,
            metrics,
            exact,
            notes: strings("notes")?,
            slowest,
        })
    }

    /// `failed / attempted`.
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A whole `sagebench` run: both passes of every workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Seed of the run.
    pub seed: u64,
    /// Whether it was a `--quick` run.
    pub quick: bool,
    /// `available_parallelism` where it ran.
    pub nproc: usize,
    /// Untraced then traced result of each workload, in run order.
    pub results: Vec<WorkloadResult>,
}

impl Record {
    /// The record as a JSON document, one result per line.
    pub fn to_json(&self) -> String {
        let results: Vec<String> = self.results.iter().map(WorkloadResult::to_json).collect();
        format!(
            "{{\"schema\":\"sagebench/1\",\"claim\":null,\"seed\":{},\"quick\":{},\"nproc\":{},\
             \"results\":[\n{}\n]}}\n",
            self.seed,
            self.quick,
            self.nproc,
            results.join(",\n")
        )
    }

    /// Parses [`Record::to_json`] output.
    pub fn parse(text: &str) -> Result<Record, String> {
        let doc = json::parse(text).map_err(|e| e.to_string())?;
        if doc.get("schema").and_then(JsonValue::as_str) != Some("sagebench/1") {
            return Err("not a sagebench/1 record".to_string());
        }
        let results = doc
            .get("results")
            .and_then(JsonValue::as_array)
            .ok_or("missing 'results'")?
            .iter()
            .map(WorkloadResult::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Record {
            seed: doc
                .get("seed")
                .and_then(JsonValue::as_u64)
                .ok_or("missing 'seed'")?,
            quick: doc
                .get("quick")
                .and_then(JsonValue::as_bool)
                .ok_or("missing 'quick'")?,
            nproc: doc
                .get("nproc")
                .and_then(JsonValue::as_u64)
                .ok_or("missing 'nproc'")? as usize,
            results,
        })
    }

    /// The result of one workload's untraced (`trace == false`) or
    /// traced pass.
    pub fn result(&self, workload: &str, trace: bool) -> Option<&WorkloadResult> {
        self.results
            .iter()
            .find(|r| r.workload == workload && r.trace == trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts() -> RunOpts {
        RunOpts {
            workload: catalog::FIT_MEM.to_string(),
            seed: 9,
            seconds: 1.0,
            trace: false,
            quick: true,
            trace_out: None,
            corrupt_expected: false,
        }
    }

    #[test]
    fn records_round_trip_through_json() {
        let mut r = WorkloadResult::new(&opts());
        r.attempted = 36;
        r.set("items_per_s", Summary::of(&[12.5, 13.0, 12.75]));
        r.set_value("peak_rss_mb", 101.25);
        r.set_exact("loss_hash", format!("{:016x}", 0xDEAD_BEEFu64));
        r.notes.push("a \"quoted\" note".to_string());
        r.slowest.push(("gnn.model.forward".to_string(), 31.5));
        let record = Record {
            seed: 9,
            quick: true,
            nproc: 2,
            results: vec![r],
        };
        assert_eq!(Record::parse(&record.to_json()).unwrap(), record);
    }

    #[test]
    fn driver_line_carries_value_and_unit_per_metric() {
        let mut r = WorkloadResult::new(&opts());
        r.attempted = 4;
        r.set_value("setup_s", 0.8127);
        let doc = json::parse(&r.driver_line()).unwrap();
        assert_eq!(doc.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(doc.get("failed").and_then(JsonValue::as_u64), Some(0));
        let m = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(m.get("value").and_then(JsonValue::as_f64), Some(0.8127));
        assert_eq!(m.get("unit").and_then(JsonValue::as_str), Some("s"));
    }

    #[test]
    fn a_failed_check_marks_the_run_incorrect_with_its_reason() {
        let mut r = WorkloadResult::new(&opts());
        r.check(true, || unreachable!());
        assert!(r.correct);
        r.check(false, || "makespan differs".to_string());
        assert!(!r.correct);
        assert_eq!(r.notes, vec!["FAILED: makespan differs".to_string()]);
    }
}
