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
    JsonlSink, RunMeta, SamplingParams, StreamHeader, METRICS_SCHEMA, METRICS_VERSION,
};
use gencache_sim::par::{par_map, par_map_timed};
use gencache_sim::{
    compare_figure9, record, replay_observed, simulate_cell, CellSections, Comparison,
    ProgressMeter, RecordedRun, RecorderOptions, Recording, SimSpec, SpecReports,
    StreamedRecording, DEFAULT_STREAM_DEPTH,
};
use gencache_workloads::{all_benchmarks, Suite, WorkloadProfile};
use serde::{Entries, Serialize, Value};

pub mod cli;
pub mod ingest;

use cli::ArgError;

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
    /// Print a rate-limited records-replayed/total heartbeat to stderr
    /// (with either recording source, `--stream` included).
    pub progress: bool,
    /// Record 1-in-N distribution values through a bounded-memory
    /// [`SamplingObserver`](gencache_obs::SamplingObserver) and add a
    /// `sampled` section to `--metrics-out` (counters stay exact).
    pub sample: Option<u64>,
    /// Seed for the sampling observer's striding/reservoir decisions.
    pub sample_seed: u64,
    /// Run the record→replay pipeline through the bounded-channel
    /// streamed path: no benchmark's full
    /// [`AccessLog`](gencache_sim::AccessLog) is ever materialized.
    /// Each replay re-records (recording is deterministic), trading one
    /// extra recording pass per replay for peak memory bounded by
    /// O(channel depth + model state).
    pub stream: bool,
    /// Bounded-channel depth for `--stream` (records in flight);
    /// `None` uses [`DEFAULT_STREAM_DEPTH`].
    pub stream_depth: Option<usize>,
}

impl HarnessOptions {
    /// Parses `--scale N`, `--suite spec|interactive|adversarial`,
    /// `--jobs N`, `--events-out FILE`, `--metrics-out FILE`,
    /// `--progress`, `--sample N`, `--sample-seed S`, `--stream` and
    /// `--stream-depth N` from `args`.
    ///
    /// # Errors
    ///
    /// [`ArgError::Help`] for `--help`; [`ArgError::Usage`] naming the
    /// malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, ArgError> {
        let mut opts = HarnessOptions {
            scale: 1,
            ..HarnessOptions::default()
        };
        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = cli::value(&mut it, "--scale needs a value")?;
                    opts.scale = cli::parse(&v, "--scale must be a positive integer")?;
                    cli::ensure(opts.scale > 0, "--scale must be positive")?;
                }
                "--suite" => {
                    let v = cli::value(&mut it, "--suite needs a value")?;
                    opts.suite = Some(match v.as_str() {
                        "spec" | "spec2000" => Suite::Spec2000,
                        "interactive" | "windows" => Suite::Interactive,
                        "adversarial" => Suite::Adversarial,
                        other => {
                            return Err(ArgError::Usage(format!(
                                "unknown suite {other:?}; use spec|interactive|adversarial"
                            )))
                        }
                    });
                }
                "--jobs" => {
                    let v = cli::value(&mut it, "--jobs needs a value")?;
                    let jobs = cli::parse(&v, "--jobs must be a positive integer")?;
                    cli::ensure(jobs > 0, "--jobs must be positive")?;
                    opts.jobs = Some(jobs);
                }
                "--events-out" => {
                    opts.events_out = Some(cli::value(&mut it, "--events-out needs a file path")?);
                }
                "--metrics-out" => {
                    opts.metrics_out =
                        Some(cli::value(&mut it, "--metrics-out needs a file path")?);
                }
                "--progress" => {
                    opts.progress = true;
                }
                "--sample" => {
                    let v = cli::value(&mut it, "--sample needs a value")?;
                    let n = cli::parse(&v, "--sample must be a positive integer")?;
                    cli::ensure(n > 0, "--sample must be positive")?;
                    opts.sample = Some(n);
                }
                "--sample-seed" => {
                    let v = cli::value(&mut it, "--sample-seed needs a value")?;
                    opts.sample_seed = cli::parse(&v, "--sample-seed must be an integer")?;
                }
                "--stream" => {
                    opts.stream = true;
                }
                "--stream-depth" => {
                    let v = cli::value(&mut it, "--stream-depth needs a value")?;
                    let depth = cli::parse(&v, "--stream-depth must be a positive integer")?;
                    cli::ensure(depth > 0, "--stream-depth must be positive")?;
                    opts.stream_depth = Some(depth);
                }
                "--help" | "-h" => return Err(ArgError::Help),
                other => {
                    return Err(ArgError::Usage(format!(
                        "unknown argument {other:?}; use --scale N / --suite S / --jobs N / \
                         --events-out FILE / --metrics-out FILE / --progress / --sample N / \
                         --sample-seed S / --stream / --stream-depth N"
                    )))
                }
            }
        }
        Ok(opts)
    }

    /// Parses the current process arguments (skipping `argv[0]`). On
    /// `--help` prints the usage to stdout and exits 0; on a bad
    /// command line prints the message and the usage to stderr and
    /// exits 2.
    pub fn from_env() -> Self {
        let mut args = std::env::args();
        let name = args
            .next()
            .as_deref()
            .and_then(|argv0| std::path::Path::new(argv0).file_name()?.to_str())
            .unwrap_or("gencache-bench")
            .to_string();
        HarnessOptions::parse(args).unwrap_or_else(|err| {
            let usage = format!(
                "usage:\n  {name} [--scale N] [--suite spec|interactive|adversarial] [--jobs N]\n    \
                 [--events-out FILE] [--metrics-out FILE] [--progress]\n    \
                 [--sample N] [--sample-seed S] [--stream] [--stream-depth N]"
            );
            cli::exit_now(&name, &usage, err)
        })
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

/// A recorded benchmark paired with its profile.
pub type Run = (WorkloadProfile, RecordedRun);

/// Builds one recording per selected benchmark with `make`, fanning
/// benchmarks across the harness's worker threads and printing
/// per-shard wall-clock timings to stderr under `verb` (`recording`,
/// `probing`) and its past tense `done`. Output order matches
/// [`HarnessOptions::profiles`] regardless of the job count.
fn record_rows<R: Send>(
    opts: &HarnessOptions,
    (verb, done): (&str, &str),
    make: impl Fn(&WorkloadProfile) -> R + Sync,
) -> Vec<(WorkloadProfile, R)> {
    let profiles = opts.profiles();
    let jobs = opts.effective_jobs();
    eprintln!("{verb} {} benchmarks ({jobs} jobs) ...", profiles.len());
    let started = Instant::now();
    let results = par_map_timed(&profiles, jobs, make);
    let mut out = Vec::with_capacity(profiles.len());
    for (profile, (rec, shard)) in profiles.into_iter().zip(results) {
        eprintln!(
            "  {done:<8} {:<10} in {:7.3}s",
            profile.name,
            shard.as_secs_f64()
        );
        out.push((profile, rec));
    }
    eprintln!(
        "{done} {} benchmarks in {:.3}s wall-clock",
        out.len(),
        started.elapsed().as_secs_f64()
    );
    out
}

/// Records every selected benchmark, materializing each log. Benchmarks
/// fan out across the harness's worker threads with per-shard timings
/// on stderr; output order matches [`HarnessOptions::profiles`]
/// regardless of the job count.
pub fn record_all(opts: &HarnessOptions) -> Vec<Run> {
    record_rows(opts, ("recording", "recorded"), |p| {
        record(p).expect("calibrated profiles always plan")
    })
}

/// Probes every selected benchmark for the streamed pipeline: one
/// recording pass per benchmark that discards records and keeps only the
/// run facts, at the `--stream-depth` channel depth. Fan-out, ordering
/// and timing output match [`record_all`].
pub fn record_all_streamed(opts: &HarnessOptions) -> Vec<(WorkloadProfile, StreamedRecording)> {
    let depth = opts.effective_stream_depth();
    record_rows(opts, ("probing", "probed"), |p| {
        StreamedRecording::probe(p, RecorderOptions::default(), depth)
            .expect("calibrated profiles always plan")
    })
}

/// Replays every recording through the Figure 9 comparison — the
/// unified baseline and three generational layouts, all driven from one
/// pass per benchmark — fanning benchmarks across the harness's worker
/// threads and printing per-shard wall-clock timings to stderr. Every
/// pass reports its records into `meter`, which is finished at the end.
/// Output order matches `rows` and is bit-identical for every job count
/// and either recording source.
pub fn compare_all<R: Recording + Sync>(
    opts: &HarnessOptions,
    rows: &[(WorkloadProfile, R)],
    meter: &ProgressMeter,
) -> Vec<(WorkloadProfile, Comparison)> {
    let jobs = opts.effective_jobs();
    eprintln!("replaying {} benchmarks ({jobs} jobs) ...", rows.len());
    let started = Instant::now();
    let results = par_map_timed(rows, jobs, |(_, rec)| compare_figure9(&rec.metered(meter)));
    meter.finish();
    let out: Vec<(WorkloadProfile, Comparison)> = rows
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
/// binary. `--stream` only chooses the recording constructor: the
/// materialized path records each benchmark's
/// [`AccessLog`](gencache_sim::AccessLog) once and replays it in place,
/// while the streamed path never materializes a log and instead
/// re-records through a bounded channel for each replay. Both produce
/// bit-identical comparisons and telemetry artifacts.
pub fn comparison_pipeline(opts: &HarnessOptions) -> Vec<(WorkloadProfile, Comparison)> {
    if opts.stream {
        export_and_compare(opts, &record_all_streamed(opts))
    } else {
        export_and_compare(opts, &record_all(opts))
    }
}

fn export_and_compare<R: Recording + Sync>(
    opts: &HarnessOptions,
    rows: &[(WorkloadProfile, R)],
) -> Vec<(WorkloadProfile, Comparison)> {
    export_telemetry(opts, rows).expect("telemetry export failed");
    let total = rows.iter().map(|(_, rec)| rec.record_count()).sum();
    let meter = if opts.progress {
        ProgressMeter::new("replay", total)
    } else {
        ProgressMeter::disabled("replay", total)
    };
    compare_all(opts, rows, &meter)
}

/// The organizations exported by `--events-out` / `--metrics-out`: the
/// unified baseline and the paper's best-overall generational layout
/// (45%–10%–45%, promote on first probation hit).
pub fn export_specs() -> [(&'static str, SimSpec); 2] {
    [
        ("unified", SimSpec::Unified),
        ("gen-45-10-45@hit1", SimSpec::best_generational()),
    ]
}

/// Timeline sampling interval giving roughly 64 occupancy samples per
/// replay. Keyed on access counts, not wall clock, so the timeline is
/// deterministic — and reproducible by the offline simulator, whose
/// reconstructed log preserves the access count exactly.
pub fn sample_interval<R: Recording>(rec: &R) -> u64 {
    (rec.access_count() / 64).max(1)
}

/// Honors `--events-out` and `--metrics-out`: replays every recording
/// through the [`export_specs`] models with instrumentation attached and
/// writes the requested artifacts. A no-op when neither flag is set.
pub fn export_telemetry<R: Recording + Sync>(
    opts: &HarnessOptions,
    rows: &[(WorkloadProfile, R)],
) -> io::Result<()> {
    if let Some(path) = &opts.events_out {
        let writer = BufWriter::new(File::create(path)?);
        let (mut writer, lines) = stream_events_to(writer, rows)?;
        writer.flush()?;
        eprintln!("wrote {lines} events to {path}");
    }
    if let Some(path) = &opts.metrics_out {
        write_metrics(path, rows, opts)?;
        eprintln!("wrote metrics to {path}");
    }
    Ok(())
}

/// Streams a v2 `gencache-events` export of `rows` into `writer` —
/// header, then per (benchmark, exported model) a [`RunMeta`] line
/// followed by the event lines, each model's events produced by one
/// replay pass (never buffered whole). This is the `--events-out` file
/// of the figure pipeline, byte-identical for either recording source.
/// Returns the writer and the number of lines written — useful when the
/// writer is a socket (the serve daemon's `fetch`) rather than a file.
///
/// # Errors
///
/// Propagates the writer's I/O errors.
pub fn stream_events_to<W: Write, R: Recording>(
    mut writer: W,
    rows: &[(WorkloadProfile, R)],
) -> io::Result<(W, u64)> {
    let header = serde_json::to_string(&StreamHeader::current())
        .map_err(|e| io::Error::other(format!("{e:?}")))?;
    writeln!(writer, "{header}")?;
    let mut lines = 1u64;
    for (profile, rec) in rows {
        for (label, spec) in export_specs() {
            // The run facts the events alone cannot reproduce; the
            // offline simulator rebuilds capacity / cost attribution
            // from these.
            let meta = RunMeta {
                source: profile.name.clone(),
                model: label.to_string(),
                duration_us: rec.duration().as_micros(),
                peak_trace_bytes: rec.peak_trace_bytes(),
                phases: profile.phases.max(1),
            };
            let meta =
                serde_json::to_string(&meta).map_err(|e| io::Error::other(format!("{e:?}")))?;
            writeln!(writer, "{meta}")?;
            lines += 1;
            let sink = JsonlSink::new(writer, &profile.name, label);
            let (_, sink) = replay_observed(rec, spec, sink);
            lines += sink.lines();
            writer = sink.finish()?;
        }
    }
    Ok((writer, lines))
}

/// The `--metrics-out` document, borrowed from per-benchmark report
/// rows: one entry per benchmark, each carrying one [`SpecReports`] per
/// label, after a suite section holding every label's merge. Its
/// [`Serialize::write_json`] writes the document straight to text;
/// [`Serialize::to_value`] builds the same document as a tree.
#[derive(Debug)]
pub struct MetricsDoc<'a> {
    labels: &'a [String],
    suite: Vec<SpecReports>,
    benchmarks: Vec<(&'a str, Vec<&'a SpecReports>)>,
}

impl MetricsDoc<'_> {
    /// Calls `f` with the document's entries: `schema`, `version`,
    /// `suite` (label → merged reports) and `benchmarks` (each entry
    /// `benchmark` then label → reports).
    fn with_entries<T>(&self, f: impl FnOnce(&Entries<'_>) -> T) -> T {
        fn section<'r>(
            (label, reports): (&'r str, &'r SpecReports),
        ) -> (&'r str, &'r dyn Serialize) {
            (label, reports)
        }
        let version = u64::from(METRICS_VERSION);
        let labels = self.labels.iter().map(String::as_str);
        let suite = Entries(labels.clone().zip(&self.suite).map(section).collect());
        let benchmarks: Vec<Entries<'_>> = self
            .benchmarks
            .iter()
            .map(|(name, reports)| {
                let mut entries: Vec<(&str, &dyn Serialize)> = vec![("benchmark", name)];
                entries.extend(labels.clone().zip(reports.iter().copied()).map(section));
                Entries(entries)
            })
            .collect();
        f(&Entries(vec![
            ("schema", &METRICS_SCHEMA),
            ("version", &version),
            ("suite", &suite),
            ("benchmarks", &benchmarks),
        ]))
    }
}

impl Serialize for MetricsDoc<'_> {
    fn to_value(&self) -> Value {
        self.with_entries(|entries| entries.to_value())
    }

    fn write_json(&self, out: &mut String) {
        self.with_entries(|entries| entries.write_json(out));
    }
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
/// The merges happen here; the rows are borrowed, never copied.
pub fn metrics_doc<'a, R>(
    labels: &'a [String],
    benchmarks: impl IntoIterator<Item = (&'a str, R)>,
) -> MetricsDoc<'a>
where
    R: IntoIterator<Item = &'a SpecReports>,
{
    let mut suite: Vec<SpecReports> = labels.iter().map(|_| SpecReports::suite()).collect();
    let benchmarks = benchmarks
        .into_iter()
        .map(|(name, reports)| {
            let reports: Vec<&SpecReports> = reports.into_iter().take(labels.len()).collect();
            for (merged, reports) in suite.iter_mut().zip(&reports) {
                merged.merge(reports);
            }
            (name, reports)
        })
        .collect();
    MetricsDoc {
        labels,
        suite,
        benchmarks,
    }
}

/// Serializes a document to compact JSON text — the one rendering every
/// consumer shares, so documents that must compare byte-for-byte (live
/// export, offline simulator, serve daemon, fleet router) all go through
/// it. A [`MetricsDoc`] is written straight from its reports; a
/// [`Value`] tree renders to the same bytes.
pub fn value_to_json<T: Serialize + ?Sized>(doc: &T) -> String {
    serde_json::to_string(doc).expect("documents always serialize")
}

/// Serializes a metrics document to `path` (single JSON document,
/// trailing newline).
pub fn write_metrics_doc(path: &str, doc: &impl Serialize) -> io::Result<()> {
    let json = value_to_json(doc);
    let mut file = File::create(path)?;
    file.write_all(json.as_bytes())?;
    file.write_all(b"\n")
}

/// Writes the `--metrics-out` document for `rows`: each (benchmark,
/// exported model) cell replays once through [`simulate_cell`] at the
/// recording's standard capacity.
fn write_metrics<R: Recording + Sync>(
    path: &str,
    rows: &[(WorkloadProfile, R)],
    opts: &HarnessOptions,
) -> io::Result<()> {
    let sampling = opts.sampling_params();
    // Per-benchmark reports fan out across workers; document assembly
    // folds them in input-index order, so the output is bit-identical
    // for every jobs value.
    let per_bench: Vec<Vec<SpecReports>> =
        par_map(rows, opts.effective_jobs(), |(profile, rec)| {
            let sections = CellSections {
                sample_every: sample_interval(rec),
                phases: profile.phases.max(1),
                sampling,
                regret: None,
                window_width: None,
            };
            export_specs()
                .iter()
                .map(|&(_, spec)| simulate_cell(rec, spec, rec.capacity(), &sections).reports)
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
    write_metrics_doc(path, &metrics_doc(&labels, benchmarks))
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
        let o = HarnessOptions::parse(args(&[])).unwrap();
        assert_eq!(o.scale, 1);
        assert_eq!(o.suite, None);
    }

    #[test]
    fn parse_scale_and_suite() {
        let o = HarnessOptions::parse(args(&["--scale", "8", "--suite", "spec"])).unwrap();
        assert_eq!(o.scale, 8);
        assert_eq!(o.suite, Some(Suite::Spec2000));
        let o = HarnessOptions::parse(args(&["--suite", "interactive"])).unwrap();
        assert_eq!(o.suite, Some(Suite::Interactive));
    }

    #[test]
    fn parse_jobs() {
        let o = HarnessOptions::parse(args(&[])).unwrap();
        assert_eq!(o.jobs, None);
        assert!(o.effective_jobs() >= 1);
        let o = HarnessOptions::parse(args(&["--jobs", "4"])).unwrap();
        assert_eq!(o.jobs, Some(4));
        assert_eq!(o.effective_jobs(), 4);
    }

    #[test]
    fn parse_sample_flags() {
        let o = HarnessOptions::parse(args(&["--sample", "8", "--sample-seed", "42"])).unwrap();
        assert_eq!(o.sample, Some(8));
        assert_eq!(o.sample_seed, 42);
        let p = o.sampling_params().unwrap();
        assert_eq!(p.stride, 8);
        assert_eq!(p.churn_every, 8);
        assert_eq!(p.seed, 42);
        let o = HarnessOptions::parse(args(&[])).unwrap();
        assert!(o.sampling_params().is_none());
    }

    #[test]
    #[should_panic(expected = "--jobs must be positive")]
    fn parse_rejects_zero_jobs() {
        HarnessOptions::parse(args(&["--jobs", "0"])).unwrap();
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn parse_rejects_garbage() {
        HarnessOptions::parse(args(&["--bogus"])).unwrap();
    }

    #[test]
    fn parse_errors_are_values() {
        let err = |a: &[&str]| HarnessOptions::parse(args(a)).unwrap_err();
        assert_eq!(err(&["--help"]), ArgError::Help);
        assert_eq!(err(&["-h"]), ArgError::Help);
        assert_eq!(
            err(&["--scale"]),
            ArgError::Usage("--scale needs a value".into())
        );
        assert_eq!(
            err(&["--scale", "x"]),
            ArgError::Usage("--scale must be a positive integer, not \"x\"".into())
        );
        assert_eq!(
            err(&["--suite", "nope"]),
            ArgError::Usage("unknown suite \"nope\"; use spec|interactive|adversarial".into())
        );
        assert_eq!(
            err(&["--stream-depth", "0"]),
            ArgError::Usage("--stream-depth must be positive".into())
        );
    }

    #[test]
    fn profiles_filter_by_suite() {
        let o = HarnessOptions::parse(args(&["--suite", "spec", "--scale", "64"])).unwrap();
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
        assert!(
            lines > 10,
            "expected an export with events, got {lines} lines"
        );
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
