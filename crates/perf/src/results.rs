//! Result files (`run --out FILE`) and their comparison
//! (`compare A.json B.json`).
//!
//! A result file is `{"runs": [...]}` with one run per line. Each run
//! records the workload, seed, mode, the machine's parallelism, the
//! compiler and git revision, and the run's result object.

use std::fmt::Write as _;
use std::process::Command;

use gencache_bench::value_to_json;
use serde::Value;

use crate::metrics::{field, number, Contract};
use crate::run::RunOptions;
use crate::stats::{median, quartiles};

/// First line of `program args…`'s standard output, or `unknown`.
fn probe_command(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

/// One run's entry in a result file; `result` is the run's result
/// object.
pub fn run_entry(opts: &RunOptions, result: Value) -> Value {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    let jobs = field(&result, "attempted").and_then(number).unwrap_or(0.0) as u64;
    Value::Object(vec![
        (
            "workload".to_string(),
            Value::Str(opts.workload.name().to_string()),
        ),
        ("seed".to_string(), Value::UInt(opts.seed)),
        ("trace".to_string(), Value::UInt(u64::from(opts.traced))),
        ("seconds".to_string(), Value::Float(opts.seconds)),
        ("quick".to_string(), Value::Bool(opts.quick)),
        ("jobs".to_string(), Value::UInt(jobs)),
        ("nproc".to_string(), Value::UInt(nproc)),
        (
            "rustc".to_string(),
            Value::Str(probe_command("rustc", &["-V"])),
        ),
        (
            "git_rev".to_string(),
            Value::Str(probe_command("git", &["rev-parse", "HEAD"])),
        ),
        ("result".to_string(), result),
    ])
}

/// The runs of a result file.
///
/// # Errors
///
/// Describes an unreadable or malformed file.
pub fn load(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = serde_json::value_from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    field(&doc, "runs")
        .and_then(Value::as_array)
        .map(<[Value]>::to_vec)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))
}

/// Appends `entries` to the result file at `path`, creating it if absent.
///
/// # Errors
///
/// Describes an unreadable, malformed or unwritable file.
pub fn append(path: &str, entries: Vec<Value>) -> Result<(), String> {
    let mut runs = if std::path::Path::new(path).exists() {
        load(path)?
    } else {
        Vec::new()
    };
    runs.extend(entries);
    let lines: Vec<String> = runs.iter().map(value_to_json).collect();
    let text = format!("{{\"runs\": [\n{}\n]}}\n", lines.join(",\n"));
    std::fs::write(path, text).map_err(|e| format!("{path}: {e}"))
}

/// Values of `metric` over the correct plain runs of `workload`.
fn values(runs: &[Value], workload: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| matches!(field(r, "workload"), Some(Value::Str(w)) if w == workload))
        .filter(|r| field(r, "trace").and_then(number) == Some(0.0))
        .filter_map(|r| field(r, "result"))
        .filter(|res| matches!(field(res, "correct"), Some(Value::Bool(true))))
        .filter_map(|res| number(field(field(field(res, "metrics")?, metric)?, "value")?))
        .collect()
}

/// How B compares with A on one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better by more than the bound.
    Better,
    /// B's median is worse by more than the bound.
    Worse,
    /// The medians differ by no more than the bound.
    WithinBound,
    /// A spread is wider than the bound and the runs overlap.
    Unresolved,
    /// One side has no correct run.
    Missing,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::WithinBound => "within bound",
            Verdict::Unresolved => "unresolved",
            Verdict::Missing => "missing",
        }
    }
}

/// Judges B against A. Spreads are quartile distances as a share of the
/// median; when either exceeds `bound` the verdict is unresolved unless
/// every run of B beats every run of A.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    if a.is_empty() || b.is_empty() {
        return Verdict::Missing;
    }
    let (ma, mb) = (median(a), median(b));
    let spread = |v: &[f64], m: f64| {
        let (q1, q3) = quartiles(v);
        (q3 - q1) / m.abs()
    };
    let sign = if lower_is_better { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs();
    let b_beats_all = |x: f64| a.iter().all(|&y| sign * (x - y) < 0.0);
    if spread(a, ma).max(spread(b, mb)) > bound {
        if b.iter().all(|&x| b_beats_all(x)) {
            Verdict::Better
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

/// The comparison table of B against A for every workload and
/// end-to-end metric of `contract`, and whether any verdict is worse.
pub fn compare(a: &[Value], b: &[Value], contract: &Contract) -> (String, bool) {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<13} {:<20} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "change", "bound"
    );
    let mut any_worse = false;
    let summary = |v: &[f64]| {
        let (q1, q3) = quartiles(v);
        format!("{:.4} [{:.4}, {:.4}] ({})", median(v), q1, q3, v.len())
    };
    for workload in &contract.workloads {
        for metric in &contract.end_to_end {
            let va = values(a, workload, &metric.name);
            let vb = values(b, workload, &metric.name);
            let bound = metric.bound.unwrap_or(0.0);
            let v = verdict(&va, &vb, metric.lower_is_better, bound);
            any_worse |= v == Verdict::Worse;
            let change = (median(&vb) - median(&va)) / median(&va).abs() * 100.0;
            let _ = writeln!(
                out,
                "{:<13} {:<20} {:>32} {:>32} {:>7.2}% {:>5.1}%  {}",
                workload,
                metric.name,
                summary(&va),
                summary(&vb),
                change,
                bound * 100.0,
                v.label()
            );
        }
    }
    (out, any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        let faster = [80.0, 81.0, 79.0, 80.5, 79.5];
        let same = [100.2, 100.9, 99.1, 100.4, 99.6];
        assert_eq!(verdict(&a, &faster, true, 0.1), Verdict::Better);
        assert_eq!(verdict(&a, &faster, false, 0.1), Verdict::Worse);
        assert_eq!(verdict(&a, &same, true, 0.1), Verdict::WithinBound);
        let noisy = [50.0, 150.0, 100.0, 70.0, 130.0];
        assert_eq!(verdict(&a, &noisy, true, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[], &a, true, 0.1), Verdict::Missing);
    }
}
