//! `sagebench --compare A.json B.json`: is B worse than A beyond what
//! the benchmark's bounds and the recorded run-to-run spread allow?

use crate::catalog::{Better, EndToEnd, END_TO_END, WORKLOADS};
use crate::report::Record;
use crate::stats::Summary;

/// What the comparison concluded for one workload × metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or better).
    Ok,
    /// Worse by more than the bound, and outside A's recorded spread.
    Regressed,
    /// The repeats spread wider than the bound, so a shift of the
    /// bound's size cannot be told from noise.
    Unresolved,
}

/// One compared workload × end-to-end metric.
#[derive(Debug, Clone)]
pub struct Row {
    /// Workload name.
    pub workload: &'static str,
    /// Metric compared.
    pub metric: &'static EndToEnd,
    /// Side A.
    pub a: Summary,
    /// Side B.
    pub b: Summary,
    /// How much worse B's median is, as a share of A's (negative when
    /// B is better).
    pub worsening: f64,
    /// The conclusion.
    pub verdict: Verdict,
}

/// The whole comparison.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// One row per workload × end-to-end metric present on both sides.
    pub rows: Vec<Row>,
    /// Exact values that differ, failed runs, missing results.
    pub broken: Vec<String>,
}

/// Judges one metric. `a`/`b` carry each side's reported value and the
/// range its repeats recorded.
pub fn judge(metric: &EndToEnd, a: &Summary, b: &Summary) -> (f64, Verdict) {
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worsening = if a.value == 0.0 {
        0.0
    } else {
        sign * (b.value - a.value) / a.value.abs()
    };
    // The worse / better edge of each side's recorded range.
    let (a_worst, b_worst, a_best) = match metric.better {
        Better::Lower => (a.hi, b.hi, a.lo),
        Better::Higher => (a.lo, b.lo, a.hi),
    };
    let beyond = |x: f64, edge: f64| sign * (x - edge) > 0.0;
    let verdict = if worsening > metric.bound && beyond(b.value, a_worst) {
        Verdict::Regressed
    } else if a.relative_spread().max(b.relative_spread()) > metric.bound
        && !beyond(a_best, b_worst)
    {
        // Too noisy to call — unless every run of B beat every run of A.
        Verdict::Unresolved
    } else {
        Verdict::Ok
    };
    (worsening, verdict)
}

/// Compares two records of the same seed and scale.
pub fn compare(a: &Record, b: &Record) -> Result<Comparison, String> {
    if (a.seed, a.quick) != (b.seed, b.quick) {
        return Err(format!(
            "records are not comparable: seed {} quick {} against seed {} quick {}",
            a.seed, a.quick, b.seed, b.quick
        ));
    }
    let mut out = Comparison {
        rows: Vec::new(),
        broken: Vec::new(),
    };
    for workload in &WORKLOADS {
        for trace in [false, true] {
            let pass = if trace { "traced" } else { "untraced" };
            let (ra, rb) = match (
                a.result(workload.name, trace),
                b.result(workload.name, trace),
            ) {
                (Some(ra), Some(rb)) => (ra, rb),
                _ => {
                    out.broken.push(format!(
                        "{}: {pass} pass missing on one side",
                        workload.name
                    ));
                    continue;
                }
            };
            for (side, r) in [("A", ra), ("B", rb)] {
                if !r.correct || r.failed > 0 {
                    out.broken.push(format!(
                        "{} ({pass}, {side}): {} of {} failed; {}",
                        workload.name,
                        r.failed,
                        r.attempted,
                        r.notes.join("; ")
                    ));
                }
            }
            if ra.exact != rb.exact {
                for (key, va) in &ra.exact {
                    let vb = rb.exact.get(key);
                    if vb != Some(va) {
                        out.broken.push(format!(
                            "{} ({pass}): exact {key} = {va} against {}",
                            workload.name,
                            vb.map_or("<absent>", String::as_str)
                        ));
                    }
                }
                for key in rb.exact.keys().filter(|k| !ra.exact.contains_key(*k)) {
                    out.broken
                        .push(format!("{} ({pass}): exact {key} only in B", workload.name));
                }
            }
            if trace {
                continue;
            }
            for metric in &END_TO_END {
                match (ra.metrics.get(metric.name), rb.metrics.get(metric.name)) {
                    (Some(sa), Some(sb)) => {
                        let (worsening, verdict) = judge(metric, sa, sb);
                        out.rows.push(Row {
                            workload: workload.name,
                            metric,
                            a: *sa,
                            b: *sb,
                            worsening,
                            verdict,
                        });
                    }
                    _ => out.broken.push(format!(
                        "{}: {} missing on one side",
                        workload.name, metric.name
                    )),
                }
            }
        }
    }
    Ok(out)
}

impl Comparison {
    /// 0: every metric within its bound, exact values equal. 1: a
    /// regression, a failed run or an exact mismatch. 2: nothing worse,
    /// but at least one metric too noisy to call.
    pub fn exit_code(&self) -> i32 {
        if !self.broken.is_empty() || self.rows.iter().any(|r| r.verdict == Verdict::Regressed) {
            1
        } else if self.rows.iter().any(|r| r.verdict == Verdict::Unresolved) {
            2
        } else {
            0
        }
    }

    /// A table of both values with their recorded ranges, one row per
    /// workload × metric.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{:<20} {:<17} {:>12} {:>25} {:>12} {:>25} {:>8} {:>6}  verdict\n",
            "workload", "metric", "A value", "A range", "B value", "B range", "worse", "bound"
        );
        for row in &self.rows {
            let range = |s: &Summary| format!("{:.4}..{:.4} (n={})", s.lo, s.hi, s.n);
            out.push_str(&format!(
                "{:<20} {:<17} {:>12.4} {:>25} {:>12.4} {:>25} {:>+7.1}% {:>5.0}%  {}\n",
                row.workload,
                format!("{} [{}]", row.metric.name, row.metric.unit),
                row.a.value,
                range(&row.a),
                row.b.value,
                range(&row.b),
                row.worsening * 100.0,
                row.metric.bound * 100.0,
                match row.verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "REGRESSED",
                    Verdict::Unresolved => "unresolved",
                }
            ));
        }
        for line in &self.broken {
            out.push_str(&format!("BROKEN: {line}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    fn metric(name: &str) -> &'static EndToEnd {
        catalog::end_to_end(name).unwrap()
    }

    fn s(lo: f64, value: f64, hi: f64) -> Summary {
        Summary {
            value,
            lo,
            hi,
            n: 5,
        }
    }

    #[test]
    fn a_shift_inside_the_bound_is_ok_in_both_directions() {
        let m = metric("items_per_s"); // higher is better
        let inside = 100.0 * (1.0 - m.bound / 2.0);
        let b = s(inside - 1.0, inside, inside + 1.0);
        assert_eq!(judge(m, &s(99.0, 100.0, 101.0), &b).1, Verdict::Ok);
        let (w, v) = judge(m, &s(99.0, 100.0, 101.0), &s(119.0, 120.0, 121.0));
        assert!(w < 0.0, "faster reads as negative worsening");
        assert_eq!(v, Verdict::Ok);
    }

    #[test]
    fn beyond_the_bound_and_outside_the_spread_is_a_regression() {
        let m = metric("items_per_s");
        let beyond = 100.0 * (1.0 - m.bound - 0.05);
        let b = s(beyond - 1.0, beyond, beyond + 1.0);
        let (w, v) = judge(m, &s(99.0, 100.0, 101.0), &b);
        assert!((w - (m.bound + 0.05)).abs() < 1e-12);
        assert_eq!(v, Verdict::Regressed);
        let lower = metric("latency_p50_ms"); // lower is better
        let beyond = 10.0 * (1.0 + lower.bound + 0.05);
        let b = s(beyond - 0.1, beyond, beyond + 0.1);
        assert_eq!(judge(lower, &s(9.9, 10.0, 10.1), &b).1, Verdict::Regressed);
    }

    #[test]
    fn beyond_the_bound_but_inside_a_wide_spread_is_unresolved() {
        let m = metric("latency_p50_ms");
        // A's own runs already span more than the bound either way;
        // B's value is worse by more than the bound yet inside them.
        let wide = 10.0 * (1.0 + 2.0 * m.bound);
        let worse = 10.0 * (1.0 + m.bound + 0.05);
        assert_eq!(
            judge(m, &s(8.0, 10.0, wide), &s(worse - 0.1, worse, worse + 0.1)).1,
            Verdict::Unresolved
        );
        // Noisy, but every run of B beat every run of A: not unresolved.
        assert_eq!(
            judge(m, &s(8.0, 10.0, wide), &s(5.0, 6.0, 7.0)).1,
            Verdict::Ok
        );
    }

    fn record(rate: f64, checksum: &str) -> Record {
        use crate::report::{RunOpts, WorkloadResult};
        let mut results = Vec::new();
        for w in &WORKLOADS {
            for trace in [false, true] {
                let mut r = WorkloadResult::new(&RunOpts {
                    workload: w.name.to_string(),
                    seed: 7,
                    seconds: 10.0,
                    trace,
                    quick: false,
                    trace_out: None,
                    corrupt_expected: false,
                });
                r.attempted = 36;
                r.set_exact("checksum", checksum);
                if !trace {
                    for m in &END_TO_END {
                        r.set(m.name, s(rate * 0.99, rate, rate * 1.01));
                    }
                }
                results.push(r);
            }
        }
        Record {
            seed: 7,
            quick: false,
            nproc: 2,
            results,
        }
    }

    #[test]
    fn records_of_one_commit_agree_and_exit_zero() {
        let c = compare(&record(10.0, "abc"), &record(10.2, "abc")).unwrap();
        assert_eq!(c.rows.len(), WORKLOADS.len() * END_TO_END.len());
        assert_eq!(c.exit_code(), 0, "{}", c.render());
    }

    #[test]
    fn an_exact_mismatch_or_a_failed_run_breaks_the_comparison() {
        let c = compare(&record(10.0, "abc"), &record(10.0, "abd")).unwrap();
        assert_eq!(c.exit_code(), 1);
        assert!(c.render().contains("exact checksum = abc against abd"));
        let mut failed = record(10.0, "abc");
        failed.results[0].failed = 3;
        assert_eq!(
            compare(&record(10.0, "abc"), &failed).unwrap().exit_code(),
            1
        );
        let mut other_seed = record(10.0, "abc");
        other_seed.seed = 8;
        assert!(compare(&record(10.0, "abc"), &other_seed).is_err());
    }

    #[test]
    fn noise_wider_than_the_bound_exits_two() {
        let mut noisy = record(10.0, "abc");
        let m = noisy.results[0].metrics.get_mut("items_per_s").unwrap();
        (m.lo, m.hi) = (7.0, 13.0);
        let c = compare(&record(10.0, "abc"), &noisy).unwrap();
        assert_eq!(c.exit_code(), 2, "{}", c.render());
    }
}
