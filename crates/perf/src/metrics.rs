//! The metrics this benchmark reports, as `BENCHMARK.json` at the
//! repository root names them, and the end-to-end metric and workloads
//! each per-layer metric should move.

use serde::Value;

/// A metric entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Whether lower is better.
    pub lower_is_better: bool,
    /// Regression bound as a share of the parent's median
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Contract {
    /// Seconds one run measures.
    pub run_seconds: u64,
    /// Workload names.
    pub workloads: Vec<String>,
    /// End-to-end metrics of plain runs, with their bounds.
    pub end_to_end: Vec<Metric>,
    /// Per-layer metrics of traced runs.
    pub per_layer: Vec<Metric>,
}

/// The `BENCHMARK.json` this binary was built with.
pub const CONTRACT_JSON: &str = include_str!("../../../BENCHMARK.json");

/// The end-to-end metric a faster layer should lower: every timed job of
/// a run does identical work, so the 10th percentile of their wall times
/// estimates the job's cost, and it is divided by the export lines the
/// job reads or writes because a seed changes the input size.
pub const JOB_METRIC: &str = "job_p10_us_per_line";

/// The end-to-end metric and the workloads on which a change to the
/// layer behind `layer_metric` should move it; `None` for the traced
/// run's own health checks (`trace.*`) and for unknown names.
pub fn moves(layer_metric: &str) -> Option<(&'static str, &'static [&'static str])> {
    let layer = layer_metric.split('.').next()?;
    let workloads: &'static [&'static str] = match (layer, layer_metric) {
        // Both export specs replay these models while recording.
        (_, "core.unified.null_ms" | "core.generational.null_ms") => {
            &["replay-grid", "record-suite"]
        }
        ("frontend" | "export", _) => &["record-suite"],
        ("ingest", _) => &["ingest-suite", "serve-closed", "replay-grid"],
        ("oracle" | "replay" | "cache" | "core", _) => &["replay-grid"],
        ("doc", _) => &["replay-grid", "ingest-suite"],
        ("serve", _) => &["serve-closed"],
        _ => return None,
    };
    Some((JOB_METRIC, workloads))
}

/// The value under `key` of a JSON object.
pub fn field<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Reads a JSON number of any representation as `f64`.
pub fn number(v: &Value) -> Option<f64> {
    match *v {
        Value::UInt(n) => Some(n as f64),
        Value::Int(n) => Some(n as f64),
        Value::Float(f) => Some(f),
        _ => None,
    }
}

fn required<'v>(v: &'v Value, key: &str) -> Result<&'v Value, String> {
    field(v, key).ok_or_else(|| format!("BENCHMARK.json: missing {key:?}"))
}

fn text(v: &Value, key: &str) -> Result<String, String> {
    match required(v, key)? {
        Value::Str(s) => Ok(s.clone()),
        other => Err(format!(
            "BENCHMARK.json: {key:?} is {other:?}, not a string"
        )),
    }
}

fn metrics(v: &Value, key: &str) -> Result<Vec<Metric>, String> {
    let items = required(v, key)?
        .as_array()
        .ok_or_else(|| format!("BENCHMARK.json: {key:?} is not an array"))?;
    items
        .iter()
        .map(|m| {
            let better = text(m, "better")?;
            Ok(Metric {
                name: text(m, "name")?,
                unit: text(m, "unit")?,
                lower_is_better: match better.as_str() {
                    "lower" => true,
                    "higher" => false,
                    other => return Err(format!("BENCHMARK.json: better = {other:?}")),
                },
                bound: field(m, "bound").and_then(number),
            })
        })
        .collect()
}

impl Contract {
    /// Parses a `BENCHMARK.json` document.
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn parse(json: &str) -> Result<Contract, String> {
        let v = serde_json::value_from_str(json).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let run_seconds = number(required(&v, "run_seconds")?)
            .ok_or("BENCHMARK.json: run_seconds is not a number")?;
        let workloads = required(&v, "workloads")?
            .as_array()
            .ok_or("BENCHMARK.json: workloads is not an array")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_, _>>()?;
        Ok(Contract {
            run_seconds: run_seconds as u64,
            workloads,
            end_to_end: metrics(&v, "end_to_end")?,
            per_layer: metrics(&v, "per_layer")?,
        })
    }

    /// The contract compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics if the embedded `BENCHMARK.json` does not parse, which the
    /// smoke test rules out.
    pub fn embedded() -> Contract {
        Contract::parse(CONTRACT_JSON).expect("embedded BENCHMARK.json parses")
    }
}
