//! # gencache-bench
//!
//! The benchmark harness regenerating every table and figure of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003). Each `src/bin/` target
//! reproduces one artifact:
//!
//! | Target | Paper artifact |
//! |---|---|
//! | `table1_benchmarks` | Table 1 — interactive benchmark roster |
//! | `table2_costs` | Table 2 — overhead cost model |
//! | `fig1_max_cache_size` | Figure 1 — unbounded cache sizes |
//! | `fig2_code_expansion` | Figure 2 — code expansion |
//! | `fig3_insertion_rate` | Figure 3 — trace insertion rates |
//! | `fig4_unmapped` | Figure 4 — unmapped-memory deletions |
//! | `fig6_lifetimes` | Figure 6 — trace lifetime histograms |
//! | `fig9_miss_rates` | Figure 9 — generational miss-rate reduction |
//! | `fig10_misses_eliminated` | Figure 10 — absolute misses eliminated |
//! | `fig11_overhead` | Figure 11 — instruction-overhead ratio |
//! | `sweep_proportions` | §6 proportions × threshold sweep |
//! | `ablate_local_policy` | §4 local-policy ablation (extension) |
//! | `ablate_probation` | §5.3 probation-cache ablation (extension) |
//! | `ablate_exceptions` | §4.2 undeletable-trace ablation (extension) |
//! | `explain` | one benchmark's event stream as a narrative (extension) |
//! | `delta` | phase-by-phase diff of two exported event streams (extension) |
//! | `simulate` | offline what-if replay of an exported stream (extension) |
//!
//! All binaries accept `--scale N` to divide every benchmark's footprint
//! by `N` (for quick smoke runs), `--suite spec|interactive` to limit
//! the benchmark set, and `--jobs N` to set the worker-thread count
//! (default: the `GENCACHE_JOBS` environment variable, then the
//! machine's available parallelism). Record and replay fan out across
//! benchmarks; output is deterministic and identical for every job
//! count. Observability flags: `--events-out` / `--metrics-out` /
//! `--sample N` / `--sample-seed S` / `--progress`. Memory flags:
//! `--stream` runs the figure pipeline through the bounded-channel
//! streamed record path (no full `AccessLog` is ever materialized;
//! peak memory is O(channel depth + model state)), and
//! `--stream-depth N` sets the channel depth.

#![warn(missing_docs)]

use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::time::Instant;

use gencache_obs::{
    CostObserver, JsonlSink, MetricsObserver, RunMeta, SamplingObserver, SamplingParams,
    StreamHeader, METRICS_SCHEMA, METRICS_VERSION,
};
use serde::Value;
use gencache_sim::par::{par_map, par_map_timed};
use gencache_sim::{
    compare_figure9_metered, record, replay_observed, Comparison, ModelSpec, ProgressMeter,
    RecordedRun, RecorderOptions, SpecReports, StreamedRecording, DEFAULT_STREAM_DEPTH,
};
use gencache_workloads::{all_benchmarks, Suite, WorkloadProfile};

pub mod ingest;

/// Command-line options shared by every figure binary.
///
/// Scaling caveat: `--scale` shrinks footprints for smoke runs, but the
/// Figure 9/11 economics depend on absolute working-set-to-cache ratios;
/// below roughly 1/8 scale the small benchmarks degenerate to a handful
/// of traces and the generational layouts can look arbitrarily bad. Use
/// full scale for any result you intend to read.
#[derive(Debug, Clone, Default)]
pub struct HarnessOptions {
    /// Divide every footprint by this factor (1 = full scale).
    pub scale: u64,
    /// Restrict to one suite.
    pub suite: Option<Suite>,
    /// Worker-thread count; `None` defers to `GENCACHE_JOBS` and then
    /// the machine's available parallelism.
    pub jobs: Option<usize>,
    /// Write the full cache-event stream here as JSONL (one
    /// [`EventRecord`](gencache_obs::EventRecord) per line).
    pub events_out: Option<String>,
    /// Write aggregated per-benchmark and suite-merged metrics here as
    /// one JSON document.
    pub metrics_out: Option<String>,
    /// Print a rate-limited records-replayed/total heartbeat to stderr.
    pub progress: bool,
    /// Record 1-in-N distribution values through a bounded-memory
    /// [`SamplingObserver`](gencache_obs::SamplingObserver) and add a
    /// `sampled` section to `--metrics-out` (counters stay exact).
    pub sample: Option<u64>,
    /// Seed for the sampling observer's striding/reservoir decisions.
    pub sample_seed: u64,
    /// Run the record→replay pipeline through the bounded-channel
    /// streamed path: no benchmark's full [`AccessLog`] is ever
    /// materialized. Each replay re-records (recording is
    /// deterministic), trading one extra recording pass per replay for
    /// peak memory bounded by O(channel depth + model state).
    pub stream: bool,
    /// Bounded-channel depth for `--stream` (records in flight);
    /// `None` uses [`DEFAULT_STREAM_DEPTH`].
    pub stream_depth: Option<usize>,
}

impl HarnessOptions {
    /// Parses `--scale N`, `--suite spec|interactive`, `--jobs N`,
    /// `--events-out FILE`, `--metrics-out FILE` and `--progress` from
    /// `args`.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments; these binaries
    /// are terminal tools, so failing loudly is the right interface.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Self {
        let mut opts = HarnessOptions {
            scale: 1,
            ..HarnessOptions::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().expect("--scale needs a value");
                    opts.scale = v.parse().expect("--scale must be a positive integer");
                    assert!(opts.scale > 0, "--scale must be positive");
                }
                "--suite" => {
                    let v = it.next().expect("--suite needs a value");
                    opts.suite = Some(match v.as_str() {
                        "spec" | "spec2000" => Suite::Spec2000,
                        "interactive" | "windows" => Suite::Interactive,
                        "adversarial" => Suite::Adversarial,
                        other => panic!("unknown suite {other:?}; use spec|interactive|adversarial"),
                    });
                }
                "--jobs" => {
                    let v = it.next().expect("--jobs needs a value");
                    let jobs = v.parse().expect("--jobs must be a positive integer");
                    assert!(jobs > 0, "--jobs must be positive");
                    opts.jobs = Some(jobs);
                }
                "--events-out" => {
                    opts.events_out = Some(it.next().expect("--events-out needs a file path"));
                }
                "--metrics-out" => {
                    opts.metrics_out = Some(it.next().expect("--metrics-out needs a file path"));
                }
                "--progress" => {
                    opts.progress = true;
                }
                "--sample" => {
                    let v = it.next().expect("--sample needs a value");
                    let n: u64 = v.parse().expect("--sample must be a positive integer");
                    assert!(n > 0, "--sample must be positive");
                    opts.sample = Some(n);
                }
                "--sample-seed" => {
                    let v = it.next().expect("--sample-seed needs a value");
                    opts.sample_seed = v.parse().expect("--sample-seed must be an integer");
                }
                "--stream" => {
                    opts.stream = true;
                }
                "--stream-depth" => {
                    let v = it.next().expect("--stream-depth needs a value");
                    let depth: usize = v.parse().expect("--stream-depth must be a positive integer");
                    assert!(depth > 0, "--stream-depth must be positive");
                    opts.stream_depth = Some(depth);
                }
                other => panic!(
                    "unknown argument {other:?}; use --scale N / --suite S / --jobs N / \
                     --events-out FILE / --metrics-out FILE / --progress / --sample N / \
                     --sample-seed S / --stream / --stream-depth N"
                ),
            }
        }
        opts
    }

    /// Parses the current process arguments (skipping `argv[0]`).
    pub fn from_env() -> Self {
        HarnessOptions::parse(std::env::args().skip(1))
    }

    /// The resolved worker-thread count: `--jobs`, else `GENCACHE_JOBS`,
    /// else the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        gencache_sim::par::effective_jobs(self.jobs)
    }

    /// The sampling knobs implied by `--sample N` / `--sample-seed S`:
    /// 1-in-N histogram striding and churn tracking, a 512-sample
    /// timeline cap, and a 1024-value reuse reservoir. `None` when
    /// `--sample` was not given.
    pub fn sampling_params(&self) -> Option<SamplingParams> {
        self.sample.map(|n| SamplingParams {
            stride: n,
            timeline_cap: 512,
            churn_every: n,
            reservoir: 1024,
            seed: self.sample_seed,
        })
    }

    /// The bounded-channel depth for streamed replays.
    pub fn effective_stream_depth(&self) -> usize {
        self.stream_depth.unwrap_or(DEFAULT_STREAM_DEPTH)
    }

    /// The benchmark profiles selected by these options.
    pub fn profiles(&self) -> Vec<WorkloadProfile> {
        all_benchmarks()
            .into_iter()
            .filter(|p| self.suite.is_none_or(|s| p.suite == s))
            .map(|p| {
                if self.scale > 1 {
                    p.scaled_down(self.scale)
                } else {
                    p
                }
            })
            .collect()
    }
}

/// Records every selected benchmark, fanning benchmarks across the
/// harness's worker threads and printing per-shard wall-clock timings to
/// stderr. Output order matches [`HarnessOptions::profiles`] regardless
/// of the job count.
pub fn record_all(opts: &HarnessOptions) -> Vec<Run> {
    let profiles = opts.profiles();
    let jobs = opts.effective_jobs();
    eprintln!("recording {} benchmarks ({jobs} jobs) ...", profiles.len());
    let started = Instant::now();
    let results = par_map_timed(&profiles, jobs, |p| {
        record(p).expect("calibrated profiles always plan")
    });
    let mut out = Vec::with_capacity(profiles.len());
    for (profile, (run, shard)) in profiles.into_iter().zip(results) {
        eprintln!("  recorded {:<10} in {:7.3}s", profile.name, shard.as_secs_f64());
        out.push((profile, run));
    }
    eprintln!(
        "recorded {} benchmarks in {:.3}s wall-clock",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// Replays every recorded run through the Figure 9 three-configuration
/// comparison, fanning benchmarks across the harness's worker threads
/// and printing per-shard wall-clock timings to stderr. Output order
/// matches `runs` and is bit-identical for every job count.
pub fn compare_all(opts: &HarnessOptions, runs: &[Run]) -> Vec<(WorkloadProfile, Comparison)> {
    let jobs = opts.effective_jobs();
    eprintln!("replaying {} benchmarks ({jobs} jobs) ...", runs.len());
    let started = Instant::now();
    // Each Figure 9 comparison replays the log into four models:
    // unified plus the three generational configurations.
    let total_records: u64 = runs.iter().map(|(_, r)| r.log.records.len() as u64 * 4).sum();
    let meter = if opts.progress {
        ProgressMeter::new("replay", total_records)
    } else {
        ProgressMeter::disabled("replay", total_records)
    };
    let results = par_map_timed(runs, jobs, |(_, r)| compare_figure9_metered(&r.log, &meter));
    if opts.progress {
        meter.finish();
    }
    let out: Vec<(WorkloadProfile, Comparison)> = runs
        .iter()
        .zip(results)
        .map(|((p, _), (c, shard))| {
            eprintln!("  replayed {:<10} in {:7.3}s", p.name, shard.as_secs_f64());
            (p.clone(), c)
        })
        .collect();
    eprintln!(
        "replayed {} benchmarks in {:.3}s wall-clock",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// A recorded benchmark paired with its profile.
pub type Run = (WorkloadProfile, RecordedRun);

/// A probed streamed recording paired with its profile — the `--stream`
/// counterpart of [`Run`], holding run facts instead of a log.
pub type StreamedRun = (WorkloadProfile, StreamedRecording);

/// Probes every selected benchmark for the streamed pipeline: one
/// recording pass per benchmark that discards records and keeps only the
/// run facts. Fan-out, ordering, and timing output mirror
/// [`record_all`].
pub fn record_all_streamed(opts: &HarnessOptions) -> Vec<StreamedRun> {
    let profiles = opts.profiles();
    let jobs = opts.effective_jobs();
    let depth = opts.effective_stream_depth();
    eprintln!(
        "probing {} benchmarks ({jobs} jobs, stream depth {depth}) ...",
        profiles.len()
    );
    let started = Instant::now();
    let results = par_map_timed(&profiles, jobs, |p| {
        StreamedRecording::probe(p, RecorderOptions::default(), depth)
            .expect("calibrated profiles always plan")
    });
    let mut out = Vec::with_capacity(profiles.len());
    for (profile, (rec, shard)) in profiles.into_iter().zip(results) {
        eprintln!("  probed   {:<10} in {:7.3}s", profile.name, shard.as_secs_f64());
        out.push((profile, rec));
    }
    eprintln!(
        "probed {} benchmarks in {:.3}s wall-clock",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// Streamed counterpart of [`compare_all`]: each benchmark re-records
/// through a bounded channel and drives all four Figure 9 models from
/// the single stream. Output order matches `recs` and is bit-identical
/// to the materialized path for every job count. (`--progress` is a
/// no-op here: the producer thread owns the record counter.)
pub fn compare_all_streamed(
    opts: &HarnessOptions,
    recs: &[StreamedRun],
) -> Vec<(WorkloadProfile, Comparison)> {
    let jobs = opts.effective_jobs();
    eprintln!("replaying {} benchmarks ({jobs} jobs, streamed) ...", recs.len());
    let started = Instant::now();
    let results = par_map_timed(recs, jobs, |(_, rec)| rec.compare_figure9());
    let out: Vec<(WorkloadProfile, Comparison)> = recs
        .iter()
        .zip(results)
        .map(|((p, _), (c, shard))| {
            eprintln!("  replayed {:<10} in {:7.3}s", p.name, shard.as_secs_f64());
            (p.clone(), c)
        })
        .collect();
    eprintln!(
        "replayed {} benchmarks in {:.3}s wall-clock",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// The full record → export → compare pipeline behind every figure
/// binary, dispatching on `--stream`: the materialized path records each
/// benchmark's [`AccessLog`] once and replays it in place, while the
/// streamed path never materializes a log and instead re-records through
/// a bounded channel for each replay. Both produce bit-identical
/// comparisons and telemetry artifacts.
pub fn comparison_pipeline(opts: &HarnessOptions) -> Vec<(WorkloadProfile, Comparison)> {
    if opts.stream {
        let recs = record_all_streamed(opts);
        export_telemetry_streamed(opts, &recs).expect("telemetry export failed");
        compare_all_streamed(opts, &recs)
    } else {
        let runs = record_all(opts);
        export_telemetry(opts, &runs).expect("telemetry export failed");
        compare_all(opts, &runs)
    }
}

/// The organizations exported by `--events-out` / `--metrics-out`: the
/// unified baseline and the paper's best-overall generational layout
/// (45%–10%–45%, promote on first probation hit).
pub fn export_specs() -> [(&'static str, ModelSpec); 2] {
    [
        ("unified", ModelSpec::Unified),
        ("gen-45-10-45@hit1", ModelSpec::best_generational()),
    ]
}

/// Timeline sampling interval giving roughly 64 occupancy samples per
/// replay. Keyed on access counts, not wall clock, so the timeline is
/// deterministic — and reproducible by the offline simulator, whose
/// reconstructed log preserves the access count exactly.
pub fn sample_interval(log: &gencache_sim::AccessLog) -> u64 {
    sample_interval_for(log.access_count())
}

/// [`sample_interval`] keyed on a bare access count, for the streamed
/// path where no log exists.
pub fn sample_interval_for(accesses: u64) -> u64 {
    (accesses / 64).max(1)
}

/// Honors `--events-out` and `--metrics-out`: replays every recorded
/// run through the [`export_specs`] models with instrumentation attached
/// and writes the requested artifacts. A no-op when neither flag is set.
pub fn export_telemetry(opts: &HarnessOptions, runs: &[Run]) -> io::Result<()> {
    if let Some(path) = &opts.events_out {
        let lines = write_events(path, runs)?;
        eprintln!("wrote {lines} events to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, runs, opts)?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// Streamed counterpart of [`export_telemetry`]: every artifact is
/// produced through bounded-channel replays (one extra recording pass
/// per instrumented replay) and is byte-identical to the materialized
/// export.
pub fn export_telemetry_streamed(opts: &HarnessOptions, recs: &[StreamedRun]) -> io::Result<()> {
    if let Some(path) = &opts.events_out {
        let lines = write_events_streamed(path, recs)?;
        eprintln!("wrote {lines} events to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics_streamed(path, recs, opts)?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

fn write_events(path: &str, runs: &[Run]) -> io::Result<u64> {
    let mut writer = BufWriter::new(File::create(path)?);
    let header =
        serde_json::to_string(&StreamHeader::current()).map_err(|e| io::Error::other(format!("{e:?}")))?;
    writeln!(writer, "{header}")?;
    let mut lines = 1u64;
    for (profile, run) in runs {
        for (label, spec) in export_specs() {
            // The run facts the events alone cannot reproduce; the
            // offline simulator rebuilds capacity / cost attribution
            // from these.
            let meta = RunMeta {
                source: profile.name.clone(),
                model: label.to_string(),
                duration_us: run.log.duration.as_micros(),
                peak_trace_bytes: run.log.peak_trace_bytes,
                phases: profile.phases.max(1),
            };
            let meta = serde_json::to_string(&meta).map_err(|e| io::Error::other(format!("{e:?}")))?;
            writeln!(writer, "{meta}")?;
            lines += 1;
            let sink = JsonlSink::new(writer, profile.name.clone(), label);
            let (_, sink) = replay_observed(&run.log, spec, sink);
            lines += sink.lines();
            writer = sink.finish()?;
        }
    }
    writer.flush()?;
    Ok(lines)
}

fn write_events_streamed(path: &str, recs: &[StreamedRun]) -> io::Result<u64> {
    let writer = BufWriter::new(File::create(path)?);
    let (mut writer, lines) = stream_events_to(writer, recs)?;
    writer.flush()?;
    Ok(lines)
}

/// Streams a v2 `gencache-events` export of `recs` into `writer` —
/// header, then per (benchmark, exported model) a [`RunMeta`] line
/// followed by the event lines, each model's events produced by one
/// bounded-channel replay (never materialized). Byte-identical to the
/// `--events-out` file written by the figure pipeline. Returns the
/// writer and the number of lines written — useful when the writer is a
/// socket (the serve daemon's `fetch`) rather than a file.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn stream_events_to<W: Write>(mut writer: W, recs: &[StreamedRun]) -> io::Result<(W, u64)> {
    let header =
        serde_json::to_string(&StreamHeader::current()).map_err(|e| io::Error::other(format!("{e:?}")))?;
    writeln!(writer, "{header}")?;
    let mut lines = 1u64;
    for (profile, rec) in recs {
        for (label, spec) in export_specs() {
            let meta = RunMeta {
                source: profile.name.clone(),
                model: label.to_string(),
                duration_us: rec.facts().duration.as_micros(),
                peak_trace_bytes: rec.facts().frontend.peak_trace_bytes,
                phases: profile.phases.max(1),
            };
            let meta = serde_json::to_string(&meta).map_err(|e| io::Error::other(format!("{e:?}")))?;
            writeln!(writer, "{meta}")?;
            lines += 1;
            let sink = JsonlSink::new(writer, profile.name.clone(), label);
            let (_, sink) = rec.replay_observed(spec, sink);
            lines += sink.lines();
            writer = sink.finish()?;
        }
    }
    Ok((writer, lines))
}

/// Assembles the `--metrics-out` document from per-benchmark report
/// rows: one entry per benchmark, each carrying one [`SpecReports`] per
/// label in `labels` order.
///
/// Shared by the live export and the offline `simulate` tool — both
/// paths produce a document through this one function, so a simulation
/// of a recorded stream under its original configuration is comparable
/// to the live document byte-for-byte. Suite-level merges fold rows in
/// input order, keeping the document identical for every job count.
pub fn metrics_doc<'a, R>(
    labels: &[String],
    benchmarks: impl IntoIterator<Item = (&'a str, R)>,
) -> Value
where
    R: IntoIterator<Item = &'a SpecReports>,
{
    let mut suite: Vec<SpecReports> = labels.iter().map(|_| SpecReports::suite()).collect();
    let mut bench_values = Vec::new();
    for (name, reports) in benchmarks {
        let mut pairs = vec![("benchmark".to_string(), Value::Str(name.to_string()))];
        for ((label, reports), merged) in labels.iter().zip(reports).zip(suite.iter_mut()) {
            merged.merge(reports);
            pairs.push((label.clone(), reports.to_value()));
        }
        bench_values.push(Value::Object(pairs));
    }
    let suite_pairs = labels
        .iter()
        .zip(&suite)
        .map(|(label, merged)| (label.clone(), merged.to_value()))
        .collect();
    Value::Object(vec![
        ("schema".to_string(), Value::Str(METRICS_SCHEMA.to_string())),
        ("version".to_string(), Value::UInt(u64::from(METRICS_VERSION))),
        ("suite".to_string(), Value::Object(suite_pairs)),
        ("benchmarks".to_string(), Value::Array(bench_values)),
    ])
}

/// Serializes an assembled [`Value`] tree to JSON text — the one
/// rendering every consumer shares, so documents that must compare
/// byte-for-byte (live export, offline simulator, serve daemon) all go
/// through it. The borrowed tree is written directly, never copied.
pub fn value_to_json(doc: &Value) -> String {
    serde_json::to_string(doc).expect("value trees always serialize")
}

/// Serializes an assembled metrics document to `path` (single JSON
/// document, trailing newline).
pub fn write_metrics_doc(path: &str, doc: Value) -> io::Result<()> {
    let json = value_to_json(&doc);
    let mut file = File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

/// The observers one exported model's metrics section needs, teed so a
/// single replay fills them all: exact metrics, phase-bucketed costs,
/// and (under `--sample`) the bounded-memory sampled report.
type ExportObserver = ((MetricsObserver, CostObserver), Option<SamplingObserver>);

/// Writes the metrics document for profile-keyed rows (recorded runs or
/// streamed recordings). `facts` gives a row's access count and duration
/// in µs; `replay` drives the teed [`ExportObserver`] through one
/// exported model and hands it back, so each (row, model) cell replays
/// once.
fn write_export_metrics<T: Sync>(
    path: &str,
    rows: &[(WorkloadProfile, T)],
    opts: &HarnessOptions,
    facts: impl Fn(&T) -> (u64, u64) + Sync,
    replay: impl Fn(&T, ModelSpec, ExportObserver) -> ExportObserver + Sync,
) -> io::Result<()> {
    let sampling = opts.sampling_params();
    // Per-benchmark reports fan out across workers; document assembly
    // folds them in input-index order, so the output is bit-identical
    // for every jobs value.
    let per_bench: Vec<Vec<SpecReports>> = par_map(rows, opts.effective_jobs(), |(profile, row)| {
        let (accesses, duration_us) = facts(row);
        let every = sample_interval_for(accesses);
        export_specs()
            .iter()
            .map(|&(_, spec)| {
                let observer = (
                    (
                        MetricsObserver::with_timeline(every),
                        CostObserver::with_phases(profile.phases.max(1), duration_us),
                    ),
                    sampling.map(|p| SamplingObserver::with_timeline(p, every)),
                );
                let ((metrics, costs), sampled) = replay(row, spec, observer);
                SpecReports {
                    sampled: sampled.map(|s| s.report()),
                    ..SpecReports::new(metrics.report(), costs.into_report())
                }
            })
            .collect()
    });
    let labels: Vec<String> = export_specs()
        .iter()
        .map(|&(label, _)| label.to_string())
        .collect();
    let benchmarks = rows
        .iter()
        .zip(&per_bench)
        .map(|((profile, _), reports)| (profile.name.as_str(), reports));
    write_metrics_doc(path, metrics_doc(&labels, benchmarks))
}

fn write_metrics(path: &str, runs: &[Run], opts: &HarnessOptions) -> io::Result<()> {
    write_export_metrics(
        path,
        runs,
        opts,
        |run| (run.log.access_count(), run.log.duration.as_micros()),
        |run, spec, observer| replay_observed(&run.log, spec, observer).1,
    )
}

fn write_metrics_streamed(path: &str, recs: &[StreamedRun], opts: &HarnessOptions) -> io::Result<()> {
    write_export_metrics(
        path,
        recs,
        opts,
        |rec| (rec.access_count(), rec.facts().duration.as_micros()),
        |rec, spec, observer| rec.replay_observed(spec, observer).1,
    )
}

/// One suite's borrowed slice of profile-keyed rows.
pub type SuiteRows<'a, T> = Vec<&'a (WorkloadProfile, T)>;

/// Splits profile-keyed rows (recorded runs, streamed recordings, or
/// comparisons) by suite, preserving order: `(spec, interactive)`.
pub fn by_suite<T>(runs: &[(WorkloadProfile, T)]) -> (SuiteRows<'_, T>, SuiteRows<'_, T>) {
    let spec = runs
        .iter()
        .filter(|(p, _)| p.suite == Suite::Spec2000)
        .collect();
    let inter = runs
        .iter()
        .filter(|(p, _)| p.suite == Suite::Interactive)
        .collect();
    (spec, inter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_defaults() {
        let o = HarnessOptions::parse(args(&[]));
        assert_eq!(o.scale, 1);
        assert_eq!(o.suite, None);
    }

    #[test]
    fn parse_scale_and_suite() {
        let o = HarnessOptions::parse(args(&["--scale", "8", "--suite", "spec"]));
        assert_eq!(o.scale, 8);
        assert_eq!(o.suite, Some(Suite::Spec2000));
        let o = HarnessOptions::parse(args(&["--suite", "interactive"]));
        assert_eq!(o.suite, Some(Suite::Interactive));
    }

    #[test]
    fn parse_jobs() {
        let o = HarnessOptions::parse(args(&[]));
        assert_eq!(o.jobs, None);
        assert!(o.effective_jobs() >= 1);
        let o = HarnessOptions::parse(args(&["--jobs", "4"]));
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.effective_jobs(), 4);
    }

    #[test]
    fn parse_sample_flags() {
        let o = HarnessOptions::parse(args(&["--sample", "8", "--sample-seed", "42"]));
        assert_eq!(o.sample, Some(8));
        assert_eq!(o.sample_seed, 42);
        let p = o.sampling_params().unwrap();
        assert_eq!(p.stride, 8);
        assert_eq!(p.churn_every, 8);
        assert_eq!(p.seed, 42);
        assert!(HarnessOptions::parse(args(&[])).sampling_params().is_none());
    }

    #[test]
    #[should_panic(expected = "--jobs must be positive")]
    fn parse_rejects_zero_jobs() {
        let _ = HarnessOptions::parse(args(&["--jobs", "0"]));
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_garbage() {
        let _ = HarnessOptions::parse(args(&["--bogus"]));
    }

    #[test]
    fn profiles_filter_by_suite() {
        let o = HarnessOptions::parse(args(&["--suite", "spec", "--scale", "64"]));
        let ps = o.profiles();
        assert_eq!(ps.len(), 26);
        assert!(ps.iter().all(|p| p.suite == Suite::Spec2000));
    }

    /// A writer that accepts `budget` bytes, then fails like a socket
    /// whose reader hung up.
    struct FailAfter {
        budget: usize,
    }

    impl Write for FailAfter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "reader hung up"));
            }
            let n = data.len().min(self.budget);
            self.budget -= n;
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn stream_events_to_a_failing_writer_returns_the_error() {
        let profile = gencache_workloads::benchmark("solitaire")
            .expect("solitaire is a calibrated benchmark")
            .scaled_down(256);
        let rec = StreamedRecording::probe(&profile, RecorderOptions::default(), 64)
            .expect("calibrated profiles always plan");
        let recs = vec![(profile, rec)];
        let (full, lines) = stream_events_to(Vec::new(), &recs).unwrap();
        assert!(lines > 10, "expected an export with events, got {lines} lines");
        // Fail in the header, among the first model's events, and on the
        // very last event line.
        for budget in [0, full.len() / 3, full.len() - 1] {
            let err = stream_events_to(FailAfter { budget }, &recs)
                .err()
                .unwrap_or_else(|| panic!("a write failing after {budget} bytes must be reported"));
            assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "budget {budget}");
        }
    }
}
