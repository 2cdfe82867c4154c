//! The four workloads: the inputs each generates from a seed, what one
//! job is, and how a traced run rebuilds that job from the public calls
//! of each layer and times them from outside.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{
    resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobInput, SimJobOptions, StreamIngest,
};
use gencache_bench::{
    export_specs, export_telemetry, sample_interval, stream_events_to, value_to_json,
    HarnessOptions, Run,
};
use gencache_obs::{oracle_replay, parse_stream_line, NextUseIndex, NullObserver, TOP_REGRET};
use gencache_serve::telemetry::DEFAULT_TRACE_CAPACITY;
use gencache_serve::{Client, JobSpec, Reply, Server, ServerConfig, Span};
use gencache_sim::{
    parse_spec, record, replay_observed, replay_sim_observed, simulate_costs, simulate_metrics,
    simulate_regret_top, simulate_switches, simulate_windows, LocalPolicy, RecorderOptions,
    SimSpec, StreamedRecording, DEFAULT_STREAM_DEPTH,
};
use gencache_workloads::{adversarial_benchmark, interactive_benchmark, spec2000, WorkloadProfile};

use crate::stats::fnv1a64;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Offline job over a spec2000 suite export: ingest dominates.
    IngestSuite,
    /// Offline §6 grid + adaptive + local policies with oracle and
    /// windows over a `phaseflip` export: replay dominates.
    ReplayGrid,
    /// Closed-loop client submitting a `word` export to an in-process
    /// daemon: adds wire, framing and channel cost.
    ServeClosed,
    /// Record the spec2000 suite and write its export: the encode side.
    RecordSuite,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::IngestSuite,
        Workload::ReplayGrid,
        Workload::ServeClosed,
        Workload::RecordSuite,
    ];

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestSuite => "ingest-suite",
            Workload::ReplayGrid => "replay-grid",
            Workload::ServeClosed => "serve-closed",
            Workload::RecordSuite => "record-suite",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Footprint divisor of the full-size inputs. The record workload
    /// records at a larger scale so that its job is as long as the
    /// others'.
    fn scale(self) -> u64 {
        match self {
            Workload::RecordSuite => 16,
            _ => 64,
        }
    }

    /// FNV-1a-64 of the workload's output at seed 0 and full scale: the
    /// metrics document, or the export bytes for `record-suite`.
    pub fn seed0_digest(self) -> u64 {
        match self {
            Workload::IngestSuite => 0x6d71_5462_5f8c_9009,
            Workload::ReplayGrid => 0xc952_7d00_0cb8_af2f,
            Workload::ServeClosed => 0x9283_6ca7_f2ca_7757,
            Workload::RecordSuite => 0xd60c_600a_b43d_10cc,
        }
    }

    /// The calibrated profiles this workload records at `size`, each
    /// with `seed` XORed into its own seed.
    pub fn profiles(self, seed: u64, size: Size) -> Vec<WorkloadProfile> {
        let base = match self {
            Workload::IngestSuite | Workload::RecordSuite => spec2000(),
            Workload::ReplayGrid => {
                vec![adversarial_benchmark("phaseflip").expect("phaseflip is a built-in profile")]
            }
            Workload::ServeClosed => {
                vec![interactive_benchmark("word").expect("word is a built-in profile")]
            }
        };
        let scale = size.scale.unwrap_or(self.scale());
        base.into_iter()
            .take(size.max_profiles)
            .map(|p| {
                let mut p = p.scaled_down(scale);
                p.seed ^= seed;
                p
            })
            .collect()
    }

    /// The job description every run of this workload submits.
    pub fn job_spec(self, size: Size) -> JobSpec {
        match self {
            Workload::ReplayGrid => {
                let mut specs = vec!["adaptive".to_string()];
                specs.extend(LocalPolicy::ALL.iter().map(|p| p.name().to_string()));
                JobSpec {
                    specs,
                    grid: size.grid,
                    oracle: true,
                    windows: true,
                    ..JobSpec::default()
                }
            }
            _ => JobSpec::default(),
        }
    }
}

/// How large a run's inputs and set-up are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    /// Footprint divisor; `None` keeps each workload's own.
    pub scale: Option<u64>,
    /// Most profiles a workload records.
    pub max_profiles: usize,
    /// Whether `replay-grid` adds the §6 grid to its specs.
    pub grid: bool,
    /// Rounds per run, each with its own set-up.
    pub rounds: usize,
    /// Untimed warm-up jobs at the end of each set-up.
    pub warmups: usize,
}

impl Size {
    /// The benchmark proper.
    pub const FULL: Size = Size {
        scale: None,
        max_profiles: usize::MAX,
        grid: true,
        rounds: 5,
        warmups: 2,
    };

    /// Tiny inputs and one round without warm-ups, so that an
    /// unoptimized build runs every workload in about a second.
    pub const QUICK: Size = Size {
        scale: Some(1024),
        max_profiles: 2,
        grid: false,
        rounds: 1,
        warmups: 0,
    };
}

/// Per-layer samples of a traced run, by metric name: one sample per
/// traced job (or per set-up, for layers only set-up passes through).
#[derive(Debug, Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn ms(&mut self, name: &'static str, d: Duration) {
        self.push(name, ms(d));
    }

    /// Adds `value` to a running total kept as the metric's only sample.
    fn count(&mut self, name: &'static str, value: f64) {
        let total = self.0.entry(name).or_insert_with(|| vec![0.0]);
        total[0] += value;
    }

    /// The samples of `name`.
    pub fn get(&self, name: &str) -> Option<&[f64]> {
        self.0.get(name).map(Vec::as_slice)
    }

    /// Takes every metric of `other` that has no sample here yet.
    pub fn fill_from(&mut self, other: Samples) {
        for (name, values) in other.0 {
            self.0.entry(name).or_insert(values);
        }
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let started = Instant::now();
    black_box(f());
    started.elapsed()
}

/// One finished job: its output and its time. `covered` is the part of
/// `wall` spent inside the layer calls a traced job times.
#[derive(Debug)]
pub struct Timed {
    /// The metrics document, or the export text for `record-suite`.
    pub output: String,
    /// Wall time of the job.
    pub wall: Duration,
    /// Sum of the traced stage times (equal to `wall` for plain jobs).
    pub covered: Duration,
}

/// An in-process daemon with one worker, stopped and joined on drop.
#[derive(Debug)]
struct Daemon {
    client: Client,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    fn start(trace_capacity: usize) -> Result<Daemon, String> {
        let config = ServerConfig {
            workers: Some(1),
            trace_capacity,
            ..ServerConfig::default()
        };
        let server = Server::bind(&config).map_err(|e| format!("daemon bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("daemon address: {e}"))?;
        let stop = server.shutdown_flag();
        let thread = std::thread::Builder::new()
            .name("perf-daemon".to_string())
            .spawn(move || server.run())
            .map_err(|e| format!("daemon thread: {e}"))?;
        Ok(Daemon {
            client: Client::new(addr.to_string()),
            stop,
            thread: Some(thread),
        })
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

fn result_doc(reply: Reply) -> Result<String, String> {
    match reply {
        Reply::Result { doc, .. } => Ok(doc),
        Reply::Busy { queue_depth } => Err(format!("daemon busy (queue depth {queue_depth})")),
        Reply::Error { message } => Err(format!("daemon error: {message}")),
        other => Err(format!("unexpected reply {other:?}")),
    }
}

/// The daemon's spans for `trace_id`. The daemon records its `reply`
/// span after the reply is written, so poll briefly until it shows up.
fn daemon_spans(client: &Client, trace_id: &str) -> Result<Vec<Span>, String> {
    for _ in 0..500 {
        let doc = match client.trace(trace_id).map_err(|e| format!("trace: {e}"))? {
            Reply::Trace { doc, .. } => doc,
            other => return Err(format!("unexpected trace reply {other:?}")),
        };
        let value = serde_json::value_from_str(&doc).map_err(|e| format!("trace doc: {e}"))?;
        let spans: Vec<Span> = value
            .as_array()
            .unwrap_or_default()
            .iter()
            .filter_map(Span::from_value)
            .collect();
        if spans.iter().any(|s| s.stage == "reply") {
            return Ok(spans);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Err(format!("daemon never recorded a reply span for {trace_id}"))
}

/// One spec of each replay class, timed with a `NullObserver` over the
/// workload's inputs: the cost of the model alone.
const CLASSES: [(&str, &str); 9] = [
    ("lru", "cache.lru.null_ms"),
    ("clock", "cache.clock.null_ms"),
    ("flush-on-full", "cache.flush-on-full.null_ms"),
    ("preemptive-flush", "cache.preemptive-flush.null_ms"),
    ("pseudo-circular", "cache.pseudo-circular.null_ms"),
    ("unbounded", "cache.unbounded.null_ms"),
    ("unified", "core.unified.null_ms"),
    ("45-10-45@hit1", "core.generational.null_ms"),
    ("adaptive", "core.adaptive.null_ms"),
];

/// A workload set up and ready to run jobs.
#[derive(Debug)]
pub struct Bench {
    workload: Workload,
    profiles: Vec<WorkloadProfile>,
    spec: JobSpec,
    specs: Vec<SimSpec>,
    options: SimJobOptions,
    /// The export a job reads; for `record-suite`, the export its job
    /// writes, which traced runs probe the downstream layers with.
    export: String,
    export_path: PathBuf,
    /// The daemon plain `serve-closed` jobs go to (trace ring off).
    daemon: Option<Daemon>,
    /// The daemon traced `serve-closed` jobs go to (trace ring on).
    traced_daemon: Option<Daemon>,
}

impl Bench {
    /// Records the workload's profiles and writes their export, and
    /// binds its daemons. With `samples`, the recording and export are
    /// timed as layer samples.
    ///
    /// # Errors
    ///
    /// Describes a failed recording, export or bind.
    pub fn setup(
        workload: Workload,
        seed: u64,
        size: Size,
        traced: bool,
        tmp: &Path,
        samples: Option<&mut Samples>,
    ) -> Result<Bench, String> {
        let spec = workload.job_spec(size);
        let specs = resolve_sim_specs(&spec.specs, spec.grid)?;
        let options = SimJobOptions {
            oracle: spec.oracle,
            windows: spec.windows,
            window_width: spec.window_width,
            regret_top: spec.regret_top.map(|t| t as usize),
        };
        let mut bench = Bench {
            workload,
            profiles: workload.profiles(seed, size),
            spec,
            specs,
            options,
            export: String::new(),
            export_path: tmp.join(format!("{}-{}.jsonl", workload.name(), std::process::id())),
            daemon: None,
            traced_daemon: None,
        };
        bench.export = bench.record_export(samples)?.output;
        if workload == Workload::ServeClosed {
            bench.daemon = Some(Daemon::start(0)?);
            if traced {
                bench.traced_daemon = Some(Daemon::start(DEFAULT_TRACE_CAPACITY)?);
            }
        }
        Ok(bench)
    }

    /// Lines of the export a job reads, or writes for `record-suite`.
    pub fn export_lines(&self) -> u64 {
        self.export.lines().count() as u64
    }

    /// One plain job, as a user runs it.
    ///
    /// # Errors
    ///
    /// Describes the failed stage.
    pub fn job(&self) -> Result<Timed, String> {
        match self.workload {
            Workload::IngestSuite | Workload::ReplayGrid => self.offline(),
            Workload::ServeClosed => self.served(self.daemon.as_ref().expect("bound in setup")),
            Workload::RecordSuite => self.record_export(None),
        }
    }

    /// One job rebuilt from the individual layer calls, each timed into
    /// `samples`, followed by timings of the layer calls the job makes
    /// inside `run_sim_job`. Its output must equal the plain job's.
    ///
    /// # Errors
    ///
    /// Describes the failed stage.
    pub fn traced_job(&self, samples: &mut Samples) -> Result<Timed, String> {
        match self.workload {
            Workload::IngestSuite | Workload::ReplayGrid => self.traced_offline(samples),
            Workload::ServeClosed => {
                let daemon = self.traced_daemon.as_ref().expect("bound in traced setup");
                self.served_and_offline(daemon, samples)
            }
            Workload::RecordSuite => self.record_export(Some(samples)),
        }
    }

    /// Times, once, the layers this workload's job does not pass through,
    /// on the workload's own export, so that every workload reports every
    /// layer.
    ///
    /// # Errors
    ///
    /// Describes the failed stage, or a served doc that differs from the
    /// offline one.
    pub fn probe(&self, samples: &mut Samples) -> Result<(), String> {
        if self.workload == Workload::ServeClosed {
            return Ok(());
        }
        let daemon = Daemon::start(DEFAULT_TRACE_CAPACITY)?;
        self.served_and_offline(&daemon, samples).map(drop)
    }

    /// A traced served job and the traced offline pipeline on the same
    /// export. Their docs must agree; the difference of their times is
    /// the serve overhead.
    fn served_and_offline(&self, daemon: &Daemon, s: &mut Samples) -> Result<Timed, String> {
        let served = self.traced_served(daemon, s)?;
        let offline = self.traced_offline(s)?;
        if offline.output != served.output {
            return Err("served doc differs from the offline doc".to_string());
        }
        s.push("serve.overhead_ms", ms(served.wall) - ms(offline.wall));
        Ok(served)
    }

    /// Produces the job's output through every path that must agree
    /// byte for byte, and returns the digest of the plain path's output
    /// together with a description of each path that disagrees.
    ///
    /// * Offline and served workloads: the offline doc, the doc the
    ///   traced run rebuilds, and the doc a daemon serves.
    /// * `record-suite`: the export written from materialized logs, the
    ///   traced rebuild, and the export streamed through bounded-channel
    ///   replays.
    ///
    /// # Errors
    ///
    /// Describes a path that failed outright.
    pub fn cross_check(&self) -> Result<(u64, Vec<String>), String> {
        let plain = fnv1a64(self.job()?.output.as_bytes());
        let mut others = vec![("traced rebuild", self.traced_rebuild()?)];
        if self.workload == Workload::RecordSuite {
            others.push(("streamed export", self.streamed_export()?));
        } else {
            let served = match &self.daemon {
                Some(daemon) => self.served(daemon)?,
                None => self.served(&Daemon::start(0)?)?,
            };
            others.push(("served doc", served.output));
        }
        let mismatches = others
            .into_iter()
            .map(|(path, out)| (path, fnv1a64(out.as_bytes())))
            .filter(|&(_, digest)| digest != plain)
            .map(|(path, digest)| {
                format!("{path} differs: fnv {digest:016x} vs plain {plain:016x}")
            })
            .collect();
        Ok((plain, mismatches))
    }

    fn traced_rebuild(&self) -> Result<String, String> {
        let mut scratch = Samples::default();
        match self.workload {
            Workload::RecordSuite => self.record_export(Some(&mut scratch)),
            _ => self.traced_offline(&mut scratch),
        }
        .map(|t| t.output)
    }

    /// Records every profile and writes the export to the scratch file,
    /// then reads it back. The job's time covers recording and writing.
    fn record_export(&self, samples: Option<&mut Samples>) -> Result<Timed, String> {
        let started = Instant::now();
        let runs: Vec<Run> = self
            .profiles
            .iter()
            .map(|p| {
                Ok((
                    p.clone(),
                    record(p).map_err(|e| format!("{}: {e:?}", p.name))?,
                ))
            })
            .collect::<Result<_, String>>()?;
        let recorded = started.elapsed();
        let opts = HarnessOptions {
            events_out: Some(self.export_path.to_string_lossy().into_owned()),
            ..HarnessOptions::default()
        };
        let export_started = Instant::now();
        export_telemetry(&opts, &runs).map_err(|e| format!("export: {e}"))?;
        let exported = export_started.elapsed();
        let wall = started.elapsed();
        let text =
            std::fs::read_to_string(&self.export_path).map_err(|e| format!("export read: {e}"));
        std::fs::remove_file(&self.export_path).ok();
        let text = text?;
        if let Some(s) = samples {
            s.ms("frontend.record_ms", recorded);
            s.push(
                "frontend.records",
                runs.iter().map(|(_, r)| r.log.records.len()).sum::<usize>() as f64,
            );
            let replay = timed(|| {
                for (_, run) in &runs {
                    for (_, spec) in export_specs() {
                        black_box(replay_observed(&run.log, spec, NullObserver));
                    }
                }
            });
            s.ms("export.total_ms", exported);
            s.ms("export.replay_ms", replay);
            s.push("export.encode_ms", ms(exported) - ms(replay));
            s.push("export.lines", text.lines().count() as f64);
            s.push("export.bytes", text.len() as f64);
        }
        Ok(Timed {
            output: text,
            wall,
            covered: recorded + exported,
        })
    }

    fn streamed_export(&self) -> Result<String, String> {
        let recs = self
            .profiles
            .iter()
            .map(|p| {
                StreamedRecording::probe(p, RecorderOptions::default(), DEFAULT_STREAM_DEPTH)
                    .map(|rec| (p.clone(), rec))
                    .map_err(|e| format!("{}: {e:?}", p.name))
            })
            .collect::<Result<Vec<_>, String>>()?;
        let (bytes, _) =
            stream_events_to(Vec::new(), &recs).map_err(|e| format!("streamed export: {e}"))?;
        String::from_utf8(bytes).map_err(|e| format!("streamed export: {e}"))
    }

    fn offline(&self) -> Result<Timed, String> {
        let started = Instant::now();
        let mut ingest = StreamIngest::new();
        for line in self.export.lines() {
            ingest.push_line(line)?;
        }
        let inputs = ingest.into_inputs(None, None, None)?;
        let out = run_sim_job(&inputs, &self.specs, self.options, 1, None)?;
        let output = value_to_json(&sim_metrics_doc(&out));
        let wall = started.elapsed();
        Ok(Timed {
            output,
            wall,
            covered: wall,
        })
    }

    fn traced_offline(&self, s: &mut Samples) -> Result<Timed, String> {
        let started = Instant::now();
        let mut ingest = StreamIngest::new();
        for line in self.export.lines() {
            ingest.push_line(line)?;
        }
        let push = started.elapsed();
        let (lines, bytes) = (ingest.lines(), ingest.bytes());
        let t = Instant::now();
        let inputs = ingest.into_inputs(None, None, None)?;
        let into_inputs = t.elapsed();
        let t = Instant::now();
        let out = run_sim_job(&inputs, &self.specs, self.options, 1, None)?;
        let replay = t.elapsed();
        let t = Instant::now();
        let doc = sim_metrics_doc(&out);
        let assemble = t.elapsed();
        let t = Instant::now();
        let output = value_to_json(&doc);
        let serialize = t.elapsed();
        let wall = started.elapsed();

        // The decode alone, over the lines push_line just accepted.
        let decode = timed(|| {
            for line in self.export.lines().filter(|l| !l.trim().is_empty()) {
                let _ = black_box(parse_stream_line(line));
            }
        });
        s.ms("ingest.decode_ms", decode);
        s.ms("ingest.push_ms", push);
        s.push("ingest.rebuild_ms", ms(push) - ms(decode));
        s.ms("ingest.into_inputs_ms", into_inputs);
        s.push("ingest.lines_per_s", lines as f64 / push.as_secs_f64());
        s.push("ingest.lines", lines as f64);
        s.push("ingest.bytes", bytes as f64);
        s.ms("replay.job_ms", replay);
        s.push("replay.cells", (inputs.len() * self.specs.len()) as f64);
        s.ms("doc.assemble_ms", assemble);
        s.ms("doc.serialize_ms", serialize);
        s.push("doc.bytes", output.len() as f64);
        self.replay_layers(&inputs, s);
        Ok(Timed {
            output,
            wall,
            covered: push + into_inputs + replay + assemble + serialize,
        })
    }

    /// Times the calls `run_sim_job` makes for each cell, one section
    /// observer at a time, plus the oracle and one spec per replay class.
    /// Every section is timed for every cell, including sections this
    /// job does not request, so that each workload reports them all.
    fn replay_layers(&self, inputs: &[SimJobInput], s: &mut Samples) {
        let zero = Duration::ZERO;
        let (mut index_t, mut oracle_t, mut null) = (zero, zero, zero);
        let (mut metrics, mut costs, mut regret, mut windows, mut switches) =
            (zero, zero, zero, zero, zero);
        let top = self.options.regret_top.unwrap_or(TOP_REGRET);
        for input in inputs {
            let (log, capacity, phases) = (&input.log, input.capacity, input.phases);
            let started = Instant::now();
            let index = NextUseIndex::build(&input.trace);
            index_t += started.elapsed();
            oracle_t += timed(|| oracle_replay(&input.trace, capacity));
            let every = sample_interval(log);
            let width = self.options.window_width.unwrap_or(every).max(1);
            for &spec in &self.specs {
                null += timed(|| replay_sim_observed(log, spec, capacity, NullObserver));
                metrics += timed(|| simulate_metrics(log, spec, capacity, every));
                costs += timed(|| simulate_costs(log, spec, capacity, phases));
                regret += timed(|| simulate_regret_top(log, spec, capacity, phases, &index, top));
                windows += timed(|| simulate_windows(log, spec, capacity, width));
                switches += timed(|| simulate_switches(log, spec, capacity));
            }
        }
        s.ms("oracle.index_ms", index_t);
        s.ms("oracle.replay_ms", oracle_t);
        s.ms("replay.null_ms", null);
        s.ms("replay.metrics_ms", metrics);
        s.ms("replay.costs_ms", costs);
        s.ms("replay.regret_ms", regret);
        s.ms("replay.windows_ms", windows);
        s.ms("replay.switches_ms", switches);
        s.ms(
            "replay.sections_ms",
            metrics + costs + regret + windows + switches,
        );
        for (label, metric) in CLASSES {
            let spec = parse_spec(label).expect("class labels parse");
            s.ms(
                metric,
                timed(|| {
                    for input in inputs {
                        black_box(replay_sim_observed(
                            &input.log,
                            spec,
                            input.capacity,
                            NullObserver,
                        ));
                    }
                }),
            );
        }
    }

    fn served(&self, daemon: &Daemon) -> Result<Timed, String> {
        let started = Instant::now();
        let reply = daemon
            .client
            .submit(self.export.as_bytes(), &self.spec)
            .map_err(|e| format!("submit: {e}"))?;
        let wall = started.elapsed();
        Ok(Timed {
            output: result_doc(reply)?,
            wall,
            covered: wall,
        })
    }

    /// A served job through `submit_with_spans`, with the daemon's own
    /// spans read back through its `trace` frame.
    fn traced_served(&self, daemon: &Daemon, s: &mut Samples) -> Result<Timed, String> {
        let (reply, spans) = daemon
            .client
            .submit_with_spans(self.export.as_bytes(), &self.spec)
            .map_err(|e| format!("submit: {e}"))?;
        s.count(
            "serve.busy",
            f64::from(u8::from(matches!(reply, Reply::Busy { .. }))),
        );
        s.count(
            "serve.errors",
            f64::from(u8::from(matches!(reply, Reply::Error { .. }))),
        );
        let output = result_doc(reply)?;
        let client_us = |stage: &str| {
            spans
                .iter()
                .find(|sp| sp.stage == stage)
                .map(|sp| sp.dur_us)
        };
        let (Some(upload), Some(wait), Some(job)) = (
            client_us("upload"),
            client_us("reply_wait"),
            client_us("job"),
        ) else {
            return Err("client recorded no upload/reply_wait/job span".to_string());
        };
        let trace_id = &spans[0].trace_id;
        let server = daemon_spans(&daemon.client, trace_id)?;
        let server_ms = |matches: &dyn Fn(&str) -> bool| {
            server
                .iter()
                .filter(|sp| matches(&sp.stage))
                .map(|sp| sp.dur_us as f64 / 1e3)
                .sum::<f64>()
        };
        let us_ms = |us: u64| us as f64 / 1e3;
        s.push("serve.upload_ms", us_ms(upload));
        s.push("serve.reply_wait_ms", us_ms(wait));
        s.push("serve.queue_ms", server_ms(&|st| st == "queue"));
        s.push("serve.ingest_ms", server_ms(&|st| st == "ingest"));
        s.push(
            "serve.replay_ms",
            server_ms(&|st| st.starts_with("replay:")),
        );
        s.push("serve.reply_ms", server_ms(&|st| st == "reply"));
        Ok(Timed {
            output,
            wall: Duration::from_micros(job),
            covered: Duration::from_micros(upload + wait),
        })
    }
}
