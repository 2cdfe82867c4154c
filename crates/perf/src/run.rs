//! One measured run of one workload, and its report.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use gencache_bench::value_to_json;
use serde::Value;

use crate::metrics::{Contract, Metric, JOB_METRIC};
use crate::stats::{fnv1a64, median, percentile};
use crate::workload::{ms, Bench, Samples, Size, Timed, Workload};

/// Timed jobs each round of a run makes even when its time is up.
pub const MIN_JOBS: u64 = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// XORed into every profile seed; 0 keeps the calibrated profiles.
    pub seed: u64,
    /// How long the timed phase lasts, summed over the rounds.
    pub seconds: f64,
    /// Report per-layer metrics from traced jobs instead of end-to-end
    /// metrics from plain ones.
    pub traced: bool,
    /// [`Size::QUICK`] instead of [`Size::FULL`], for smoke tests.
    pub quick: bool,
}

/// A run's result: the object printed as the last line of its output.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every output matched its reference, every path agreed, and (at
    /// seed 0, full scale) the committed digest matched.
    pub correct: bool,
    /// Timed jobs attempted.
    pub attempted: u64,
    /// Timed jobs that failed or produced a wrong output.
    pub failed: u64,
    /// The contract's metrics of this mode with their values, in
    /// contract order; NaN for a metric the harness does not produce.
    pub metrics: Vec<(Metric, f64)>,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Wall times of the plain timed jobs that succeeded, in ms.
    pub job_ms: Vec<f64>,
    /// Wall time of each set-up, in s.
    pub setups: Vec<f64>,
}

impl Outcome {
    /// The result object: `correct`, `attempted`, `failed` and
    /// `metrics` (name → value and unit).
    pub fn to_value(&self) -> Value {
        let metrics = self
            .metrics
            .iter()
            .map(|(metric, value)| {
                (
                    metric.name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Float(*value)),
                        ("unit".to_string(), Value::Str(metric.unit.clone())),
                    ]),
                )
            })
            .collect();
        Value::Object(vec![
            ("correct".to_string(), Value::Bool(self.correct)),
            ("attempted".to_string(), Value::UInt(self.attempted)),
            ("failed".to_string(), Value::UInt(self.failed)),
            ("metrics".to_string(), Value::Object(metrics)),
        ])
    }

    /// The result object as one line of JSON.
    pub fn to_json(&self) -> String {
        value_to_json(&self.to_value())
    }
}

/// Resets this process's peak resident set size (`VmHWM`) to its
/// current resident set size.
fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

/// Peak resident set size of this process in MiB since the last
/// [`reset_peak_rss`] (`VmHWM`, the value `getrusage` reports as
/// `ru_maxrss` when nothing reset it).
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Scratch directory for export files: beside the running binary, so
/// that a run writes only inside its build directory.
fn scratch_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = exe
        .parent()
        .ok_or("binary has no parent directory")?
        .join("perf-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs the workload in [`Size::rounds`] rounds. Each round sets the
/// workload up afresh (recording, export, daemon bind and warm-up jobs),
/// then runs timed jobs for its share of `opts.seconds` (at least
/// [`MIN_JOBS`]), checking every output against the reference digest.
/// The first round also cross-checks the output paths, which sets that
/// digest.
///
/// Set-ups are spread over the run so that a slow spell of the host
/// slows only some of them; `setup_s` is the fastest. Peak memory is
/// measured over the timed phases only.
///
/// A traced run interleaves a plain job and a traced job in each step
/// and reports per-layer medians; otherwise the end-to-end metrics.
///
/// # Errors
///
/// Describes a set-up that failed; failures after set-up are counted in
/// the outcome instead.
pub fn run(opts: &RunOptions, contract: &Contract) -> Result<Outcome, String> {
    let size = if opts.quick { Size::QUICK } else { Size::FULL };
    let tmp = scratch_dir()?;
    let round_time = Duration::from_secs_f64(opts.seconds / size.rounds as f64);
    let mut samples = Samples::default();
    let mut setups = Vec::with_capacity(size.rounds);
    let mut problems = Vec::new();
    let mut digest = None;
    let mut peak_rss = 0.0f64;
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut coverage = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut export_lines = 0;
    for round in 0..size.rounds {
        let started = Instant::now();
        let bench = Bench::setup(
            opts.workload,
            opts.seed,
            size,
            opts.traced,
            &tmp,
            opts.traced.then_some(&mut samples),
        )?;
        for _ in 0..size.warmups {
            bench.job()?;
        }
        setups.push(started.elapsed().as_secs_f64());
        export_lines = bench.export_lines();

        let reference = match digest {
            Some(d) => d,
            None => {
                let (d, mismatches) = bench.cross_check()?;
                problems.extend(mismatches);
                let committed = opts.workload.seed0_digest();
                if opts.seed == 0 && !opts.quick && d != committed {
                    problems.push(format!(
                        "seed-0 output digest {d:016x} differs from the committed {committed:016x}"
                    ));
                }
                *digest.insert(d)
            }
        };
        let mut check = |result: Result<Timed, String>, problems: &mut Vec<String>| {
            attempted += 1;
            match result {
                Ok(t) if fnv1a64(t.output.as_bytes()) == reference => return Some(t),
                Ok(_) => problems.push("job output differs from the reference".to_string()),
                Err(e) => problems.push(e),
            }
            failed += 1;
            None
        };

        reset_peak_rss()?;
        let deadline = Instant::now() + round_time;
        let mut jobs = 0;
        while jobs < MIN_JOBS || Instant::now() < deadline {
            jobs += 1;
            if let Some(t) = check(bench.job(), &mut problems) {
                plain.push(ms(t.wall));
            }
            if opts.traced {
                if let Some(t) = check(bench.traced_job(&mut samples), &mut problems) {
                    traced.push(ms(t.wall));
                    coverage.push(t.covered.as_secs_f64() / t.wall.as_secs_f64());
                }
            }
        }
        peak_rss = peak_rss.max(peak_rss_mib()?);

        if opts.traced && round + 1 == size.rounds {
            let mut probed = Samples::default();
            if let Err(e) = bench.probe(&mut probed) {
                problems.push(format!("probe: {e}"));
            }
            samples.fill_from(probed);
        }
    }

    let metrics = if opts.traced {
        samples.push("trace.coverage", median(&coverage));
        samples.push("trace.overhead", median(&traced) / median(&plain) - 1.0);
        contract
            .per_layer
            .iter()
            .map(|m| (m.clone(), samples.get(&m.name).map_or(f64::NAN, median)))
            .collect()
    } else {
        let values = [
            (
                "setup_s",
                setups.iter().copied().fold(f64::INFINITY, f64::min),
            ),
            (
                JOB_METRIC,
                percentile(&plain, 0.1) * 1e3 / export_lines as f64,
            ),
            ("peak_rss_mb", peak_rss),
        ];
        contract
            .end_to_end
            .iter()
            .map(|m| {
                let value = values.iter().find(|(name, _)| *name == m.name);
                (m.clone(), value.map_or(f64::NAN, |&(_, v)| v))
            })
            .collect()
    };
    problems.dedup();
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted,
        failed,
        metrics,
        problems,
        job_ms: plain,
        setups,
    })
}
