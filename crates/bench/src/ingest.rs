//! Bounded-memory ingestion of `gencache-events` exports, and the
//! shared what-if simulation job runner.
//!
//! Three consumers drive the same machinery: the offline `simulate`
//! binary (file or stdin), the `gencache-serve` daemon (lines arriving
//! over TCP through a bounded channel), and tests. [`StreamIngest`]
//! consumes an export **one line at a time** and keeps only
//!
//! * the first-seen model stream's reconstructed frontend trace per
//!   benchmark (the reference, one op per frontend request),
//! * an O(1) verification cursor per additional model stream, and
//! * one size entry per distinct trace id of the stream being ingested,
//!
//! so memory is independent of how many model streams and cache-side
//! event lines the export carries — the raw events (hits, misses,
//! insertions, evictions, promotions…) are inverted on the fly by
//! [`TraceRebuilder`] and dropped. Cross-stream verification is the same
//! invariant the offline simulator enforces: every model stream of a
//! benchmark must reconstruct the *identical* frontend trace, else the
//! export mixes runs.
//!
//! [`run_sim_job`] then replays the recovered traces against a spec
//! list. The serve daemon and the offline tool both assemble their
//! metrics documents through [`metrics_doc`], so a served reply is
//! byte-identical to `simulate --metrics-out` on the same export.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, BufRead, BufReader};
use std::sync::atomic::{AtomicBool, Ordering};

use gencache_obs::{
    oracle_replay, parse_stream_line, NextUseIndex, OracleResult, RunMeta, SimTrace, StreamLine,
    TraceRebuilder, METRICS_SCHEMA, METRICS_VERSION, TOP_REGRET,
};
use gencache_sim::par::par_map;
use gencache_sim::report::TextTable;
use gencache_sim::{
    parse_spec, policy_grid, proportion_grid, simulate_cell, trace_to_log, AccessLog,
    CellSections, ModelSpec, SimSpec, SimulatedSpec, SpecReports,
};
use serde::Value;

use crate::{export_specs, metrics_doc, sample_interval};

/// Opens `path` for line reading, with `-` meaning stdin — so exports
/// can be piped (`gencache-client fetch … | simulate --events -`)
/// without temp files.
///
/// # Errors
///
/// Returns the underlying I/O error if the file cannot be opened.
pub fn open_lines(path: &str) -> io::Result<Box<dyn BufRead>> {
    if path == "-" {
        Ok(Box::new(BufReader::new(io::stdin())))
    } else {
        Ok(Box::new(BufReader::new(File::open(path)?)))
    }
}

/// How one model stream relates to its benchmark's reference trace.
enum ModelRole {
    /// First stream seen for the benchmark: its ops *are* the reference.
    Builder,
    /// Later stream: verified op-by-op against the reference with a
    /// cursor — O(1) extra memory per stream.
    Checker { cursor: usize },
}

/// Ingestion state for one benchmark.
#[derive(Default)]
struct BenchIngest {
    models: Vec<String>,
    meta: BTreeMap<String, RunMeta>,
    reference: SimTrace,
    states: BTreeMap<String, ModelRole>,
}

/// Incremental, bounded-memory parser for a v2 `gencache-events`
/// export. Feed lines with [`push_line`](StreamIngest::push_line), then
/// convert with [`into_inputs`](StreamIngest::into_inputs).
#[derive(Default)]
pub struct StreamIngest {
    saw_header: bool,
    lines: u64,
    bytes: u64,
    order: Vec<String>,
    benches: BTreeMap<String, BenchIngest>,
    /// The `(source, model)` stream currently delivering events; a
    /// previously-seen stream reappearing after another means the upload
    /// interleaves streams, which the O(1) cursor verification cannot
    /// process — caught here with a clear error instead of a confusing
    /// op-by-op divergence report.
    active: Option<(String, String)>,
    /// The active stream's event → request inversion. Streams never
    /// resume, so one rebuilder serves them all, reset at each new
    /// stream.
    rebuilder: TraceRebuilder,
}

impl std::fmt::Debug for StreamIngest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StreamIngest")
            .field("lines", &self.lines)
            .field("bytes", &self.bytes)
            .field("benchmarks", &self.order)
            .finish_non_exhaustive()
    }
}

impl StreamIngest {
    /// An ingest with nothing consumed yet.
    pub fn new() -> Self {
        StreamIngest::default()
    }

    /// Non-empty lines consumed so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Bytes consumed so far (including line terminators).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Whether a schema header line has been seen yet.
    pub fn has_header(&self) -> bool {
        self.saw_header
    }

    /// Consumes one export line. Blank lines are counted as bytes but
    /// otherwise ignored.
    ///
    /// # Errors
    ///
    /// Returns a description of the malformed line, an invalid header,
    /// or a cross-stream divergence (streams that cannot come from the
    /// same frontend run).
    pub fn push_line(&mut self, line: &str) -> Result<(), String> {
        self.bytes += line.len() as u64 + 1;
        if line.trim().is_empty() {
            return Ok(());
        }
        self.lines += 1;
        match parse_stream_line(line)? {
            StreamLine::Header(header) => {
                header.validate()?;
                self.saw_header = true;
            }
            StreamLine::Meta(meta) => {
                let bench = bench_entry(&mut self.order, &mut self.benches, &meta.source);
                if !bench.models.contains(&meta.model) {
                    bench.models.push(meta.model.clone());
                }
                bench.meta.insert(meta.model.clone(), meta);
            }
            StreamLine::Event(record) => {
                let source = record.source;
                let model = record.model;
                let bench = bench_entry(&mut self.order, &mut self.benches, &source);
                let is_active = self
                    .active
                    .as_ref()
                    .is_some_and(|(s, m)| *s == source && *m == model);
                // The active stream was set up when it started; only a
                // stream change needs the checks and the new state.
                if !is_active {
                    if bench.states.contains_key(&model) {
                        return Err(format!(
                            "{source}: stream for model {model:?} reappears after \
                             another stream — the upload interleaves (source, model) \
                             streams; lines must stay grouped per stream exactly as \
                             the exporter writes them"
                        ));
                    }
                    self.active = Some((source.clone(), model.clone()));
                    if !bench.models.contains(&model) {
                        bench.models.push(model.clone());
                    }
                    // The first stream that produces events builds the
                    // reference; everything after verifies against it.
                    let role = if bench
                        .states
                        .values()
                        .any(|role| matches!(role, ModelRole::Builder))
                    {
                        ModelRole::Checker { cursor: 0 }
                    } else {
                        ModelRole::Builder
                    };
                    bench.states.insert(model.clone(), role);
                    self.rebuilder = TraceRebuilder::new();
                }
                let role = bench.states.get_mut(&model).expect("stream state exists");
                let op = self
                    .rebuilder
                    .push(&record.event)
                    .map_err(|e| format!("{source} [{model}]: {e}"))?;
                if let Some(op) = op {
                    match role {
                        ModelRole::Builder => bench.reference.ops.push(op),
                        ModelRole::Checker { cursor } => {
                            if bench.reference.ops.get(*cursor) != Some(&op) {
                                return Err(format!(
                                    "{source}: stream for {model:?} diverges from the \
                                     benchmark's reference frontend trace at op {} — the \
                                     export mixes runs (or interleaves streams out of \
                                     export order)",
                                    *cursor
                                ));
                            }
                            *cursor += 1;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Finishes ingestion: checks every verified stream covered the full
    /// reference trace and converts each selected benchmark into a
    /// simulation input.
    ///
    /// `bench` restricts to one benchmark; `model` picks which stream's
    /// run metadata fixes capacity/duration/phases (default: the
    /// first-appearing model); `capacity` overrides the budget (and is
    /// required for pre-v2 exports with no metadata).
    ///
    /// # Errors
    ///
    /// Returns a description of an empty export, a missing
    /// benchmark/model, a truncated verified stream, or missing run
    /// metadata without a `capacity` override.
    pub fn into_inputs(
        self,
        bench: Option<&str>,
        model: Option<&str>,
        capacity: Option<u64>,
    ) -> Result<Vec<SimJobInput>, String> {
        if self.order.is_empty() {
            return Err("export contains no event streams".to_string());
        }
        let mut inputs = Vec::new();
        for name in &self.order {
            if bench.is_some_and(|want| want != name) {
                continue;
            }
            let b = &self.benches[name];
            let chosen = match model {
                Some(label) => {
                    if !b.states.contains_key(label) {
                        return Err(format!(
                            "{name}: no stream for model {label:?}; available: {}",
                            b.models.join(", ")
                        ));
                    }
                    label.to_string()
                }
                None => b.models.first().expect("non-empty bench").clone(),
            };
            for (m, role) in &b.states {
                if let ModelRole::Checker { cursor } = *role {
                    if cursor != b.reference.ops.len() {
                        return Err(format!(
                            "{name}: streams reconstruct different frontend traces \
                             ({} vs {} ops for {m:?}) — the export mixes runs",
                            b.reference.ops.len(),
                            cursor
                        ));
                    }
                }
            }
            let meta = b.meta.get(&chosen);
            let peak = match (meta, capacity) {
                (Some(m), _) => m.peak_trace_bytes,
                // Pre-v2 stream: peak footprint unknown; an explicit
                // capacity pins the budget and the peak is only cosmetic.
                (None, Some(capacity)) => capacity * 2,
                (None, None) => {
                    return Err(format!(
                        "{name}: stream carries no run metadata (pre-v2 export); \
                         pass --capacity to fix the cache budget"
                    ))
                }
            };
            let duration_us = meta.map_or_else(
                || {
                    b.reference
                        .ops
                        .iter()
                        .filter_map(|op| match *op {
                            gencache_obs::TraceOp::Create { time, .. }
                            | gencache_obs::TraceOp::Access { time, .. }
                            | gencache_obs::TraceOp::Invalidate { time, .. } => {
                                Some(time.as_micros())
                            }
                            _ => None,
                        })
                        .max()
                        .map_or(0, |t| t + 1)
                },
                |m| m.duration_us,
            );
            let cap = capacity.unwrap_or_else(|| (peak / 2).max(1));
            let phases = meta.map_or(1, |m| m.phases.max(1));
            let trace = self.benches[name].reference.clone();
            let log = trace_to_log(&trace, name.clone(), duration_us, peak);
            inputs.push(SimJobInput {
                name: name.clone(),
                trace,
                log,
                capacity: cap,
                phases,
            });
        }
        if inputs.is_empty() {
            return Err(match bench {
                Some(want) => format!(
                    "benchmark {want:?} not in export; available: {}",
                    self.order.join(", ")
                ),
                None => "no benchmarks selected".to_string(),
            });
        }
        Ok(inputs)
    }
}

fn bench_entry<'a>(
    order: &mut Vec<String>,
    benches: &'a mut BTreeMap<String, BenchIngest>,
    source: &str,
) -> &'a mut BenchIngest {
    if !benches.contains_key(source) {
        order.push(source.to_string());
        benches.insert(source.to_string(), BenchIngest::default());
    }
    benches.get_mut(source).expect("just inserted")
}

/// One benchmark ready to simulate: its recovered frontend trace plus
/// the replay parameters the events alone cannot supply.
#[derive(Debug)]
pub struct SimJobInput {
    /// Benchmark name (the export's `source`).
    pub name: String,
    /// The recovered frontend request trace.
    pub trace: SimTrace,
    /// The trace re-synthesized as a replayable access log.
    pub log: AccessLog,
    /// Cache budget in bytes.
    pub capacity: u64,
    /// Cost-attribution phase count.
    pub phases: u32,
}

/// Resolves a simulation spec list: explicit labels, plus the §6 sweep
/// grid under `grid`, defaulting to the live export's configurations.
/// Deduped by label, keeping first appearance.
///
/// # Errors
///
/// Returns the parse error of the first malformed label.
pub fn resolve_sim_specs(labels: &[String], grid: bool) -> Result<Vec<SimSpec>, String> {
    let mut specs = Vec::new();
    for label in labels {
        specs.push(parse_spec(label)?);
    }
    if grid {
        specs.push(SimSpec::Model(ModelSpec::Unified));
        for proportions in proportion_grid() {
            for policy in policy_grid() {
                specs.push(SimSpec::Model(ModelSpec::Generational {
                    proportions,
                    policy,
                }));
            }
        }
    }
    if specs.is_empty() {
        for (_, spec) in export_specs() {
            specs.push(SimSpec::Model(spec));
        }
    }
    let mut seen = Vec::new();
    specs.retain(|s| {
        let label = s.label();
        if seen.contains(&label) {
            false
        } else {
            seen.push(label);
            true
        }
    });
    Ok(specs)
}

/// One simulated benchmark: every spec's outcome plus the optional
/// oracle lower bound.
#[derive(Debug)]
pub struct BenchSim {
    /// Benchmark name.
    pub name: String,
    /// Frontend ops replayed.
    pub ops: u64,
    /// Cache budget in bytes.
    pub capacity: u64,
    /// Cost-attribution phase count.
    pub phases: u32,
    /// One outcome per spec, in spec order.
    pub sims: Vec<SimulatedSpec>,
    /// Replay wall-clock per spec cell in microseconds, in spec order —
    /// telemetry only, never part of the metrics document.
    pub cell_us: Vec<u64>,
    /// Belady-style furthest-next-use lower bound, when requested.
    pub oracle: Option<OracleResult>,
}

/// A complete simulation job outcome, in input order.
#[derive(Debug)]
pub struct SimJobOutput {
    /// Spec labels, in spec order (the metrics document's columns).
    pub labels: Vec<String>,
    /// Per-benchmark outcomes.
    pub benches: Vec<BenchSim>,
}

/// Per-job analysis knobs shared by every `run_sim_job` caller: the
/// offline `simulate` tool, the serve daemon, and the fleet router all
/// thread the same options through, so a served reply stays
/// byte-identical to the offline document for the same knob values.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimJobOptions {
    /// Replay the Belady oracle per benchmark and attach a regret
    /// attribution to every cell.
    pub oracle: bool,
    /// Fold every cell's event stream into a windowed time-series
    /// report with drift annotations.
    pub windows: bool,
    /// Window width in accesses for the `windows` report. `None` keeps
    /// the default: the timeline sample interval (≈ accesses / 64).
    pub window_width: Option<u64>,
    /// Cap on per-trace regret contributors kept per phase and in the
    /// run total. `None` keeps the default cap.
    pub regret_top: Option<usize>,
}

impl SimJobOptions {
    /// Options with one knob set: `oracle`, everything else default —
    /// the most common caller shape.
    pub fn oracle(oracle: bool) -> Self {
        SimJobOptions {
            oracle,
            ..SimJobOptions::default()
        }
    }
}

/// Runs the benchmark × spec cross product across `jobs` workers,
/// reassembling in input order — bit-identical for any worker count,
/// and byte-identical whether driven by the offline tool or the serve
/// daemon. Each cell replays its log exactly once through
/// [`simulate_cell`]: metrics and costs always, Belady regret under
/// `options.oracle`, and under `options.windows` a windowed
/// time-series report with drift annotations (window width =
/// `options.window_width`, defaulting to the timeline sample
/// interval). Adaptive cells attach their controller's switch report,
/// read from the same replay.
///
/// `cancel` is polled between cells: once set (deadline expiry,
/// shutdown), remaining cells are skipped and the job returns an error
/// instead of a partial result.
///
/// # Errors
///
/// Returns `"job canceled"`-style text when `cancel` fired.
pub fn run_sim_job(
    inputs: &[SimJobInput],
    specs: &[SimSpec],
    options: SimJobOptions,
    jobs: usize,
    cancel: Option<&AtomicBool>,
) -> Result<SimJobOutput, String> {
    let canceled = || cancel.is_some_and(|c| c.load(Ordering::Relaxed));
    let cells: Vec<(usize, SimSpec)> = inputs
        .iter()
        .enumerate()
        .flat_map(|(i, _)| specs.iter().map(move |&s| (i, s)))
        .collect();
    // Under --oracle every cell also gets a Belady-regret walk, which
    // needs the clairvoyant next-use index of its input's frontend
    // trace. Built once per input, shared by all of that input's cells.
    let indexes: Vec<Option<NextUseIndex>> = inputs
        .iter()
        .map(|input| options.oracle.then(|| NextUseIndex::build(&input.trace)))
        .collect();
    let simulated: Vec<Option<(SimulatedSpec, u64)>> = par_map(&cells, jobs, |&(i, spec)| {
        if canceled() {
            return None;
        }
        let started = std::time::Instant::now();
        let input = &inputs[i];
        let every = sample_interval(&input.log);
        let sections = CellSections {
            sample_every: every,
            phases: input.phases,
            regret: indexes[i]
                .as_ref()
                .map(|index| (index, options.regret_top.unwrap_or(TOP_REGRET))),
            window_width: options
                .windows
                .then(|| options.window_width.unwrap_or(every).max(1)),
        };
        let sim = simulate_cell(&input.log, spec, input.capacity, &sections);
        Some((sim, started.elapsed().as_micros() as u64))
    });
    if canceled() || simulated.iter().any(Option::is_none) {
        return Err("job canceled before completion (deadline or shutdown)".to_string());
    }
    let (simulated, cell_us): (Vec<SimulatedSpec>, Vec<u64>) =
        simulated.into_iter().flatten().unzip();
    let oracles: Vec<Option<OracleResult>> = if options.oracle {
        let results = par_map(inputs, jobs, |input| {
            if canceled() {
                None
            } else {
                Some(oracle_replay(&input.trace, input.capacity))
            }
        });
        if results.iter().any(Option::is_none) {
            return Err("job canceled before completion (deadline or shutdown)".to_string());
        }
        results
    } else {
        inputs.iter().map(|_| None).collect()
    };
    let per_bench = specs.len().max(1);
    let benches = inputs
        .iter()
        .zip(simulated.chunks(per_bench))
        .zip(cell_us.chunks(per_bench))
        .zip(oracles)
        .map(|(((input, sims), cells), oracle)| BenchSim {
            name: input.name.clone(),
            ops: input.trace.ops.len() as u64,
            capacity: input.capacity,
            phases: input.phases,
            sims: sims.to_vec(),
            cell_us: cells.to_vec(),
            oracle,
        })
        .collect();
    Ok(SimJobOutput {
        labels: specs.iter().map(|s| s.label()).collect(),
        benches,
    })
}

/// Assembles the job's metrics document — the same
/// [`metrics_doc`] the live export and the offline simulator use, so
/// every consumer's document is byte-comparable.
pub fn sim_metrics_doc(out: &SimJobOutput) -> Value {
    let benchmarks = out
        .benches
        .iter()
        .map(|b| (b.name.as_str(), b.sims.iter().map(|sim| &sim.reports)));
    metrics_doc(&out.labels, benchmarks)
}

/// Renders the human-readable per-benchmark result tables (the offline
/// tool's stdout and the client's `--table` display).
pub fn render_sim_tables(out: &SimJobOutput) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for bench in &out.benches {
        let _ = writeln!(
            text,
            "\n=== {}: {} ops, capacity {} bytes, {} phases ===",
            bench.name, bench.ops, bench.capacity, bench.phases,
        );
        // The regret column appears only when the job scored regret.
        let with_regret = bench.sims.iter().any(|s| s.reports.regret.is_some());
        let mut header = vec!["spec", "accesses", "hits", "misses", "miss%", "Minstr"];
        if with_regret {
            header.push("regret");
        }
        let mut table = TextTable::new(header);
        for sim in &bench.sims {
            let metrics = &sim.reports.metrics;
            let mut row = vec![
                sim.label.clone(),
                metrics.accesses.to_string(),
                metrics.hits.to_string(),
                metrics.misses.to_string(),
                format!("{:.2}", metrics.miss_rate() * 100.0),
                format!("{:.2}", sim.reports.costs.total.total() / 1e6),
            ];
            if with_regret {
                row.push(
                    sim.reports
                        .regret
                        .as_ref()
                        .map_or_else(|| "-".to_string(), |r| r.total.regret_sum.to_string()),
                );
            }
            table.row(row);
        }
        if let Some(oracle) = &bench.oracle {
            let mut row = vec![
                "oracle".to_string(),
                oracle.accesses.to_string(),
                oracle.hits.to_string(),
                oracle.misses.to_string(),
                format!("{:.2}", oracle.miss_rate() * 100.0),
                "lower bound".to_string(),
            ];
            if with_regret {
                row.push("0".to_string());
            }
            table.row(row);
        }
        text.push_str(&table.render());
    }
    text
}

/// How a fleet router classifies one upload line for per-benchmark
/// routing (see `gencache-shard`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteClass {
    /// Blank — counted but never forwarded.
    Blank,
    /// The export's schema header — broadcast to every sub-upload.
    Header,
    /// A stream line belonging to the named benchmark (`source`).
    Stream(String),
}

/// Classifies an export line for routing. Fast path: export records
/// serialize `source` as their *first* key, so a prefix scan recovers
/// the routing key without JSON parsing; headers and anything unusual
/// fall back to the full parser so diagnostics match single-node ingest.
///
/// # Errors
///
/// Returns the same description single-node ingest would give for a
/// malformed line.
pub fn classify_line(line: &str) -> Result<RouteClass, String> {
    let trimmed = line.trim();
    if trimmed.is_empty() {
        return Ok(RouteClass::Blank);
    }
    if let Some(rest) = trimmed.strip_prefix("{\"source\":\"") {
        if let Some(end) = rest.find('"') {
            if !rest[..end].contains('\\') {
                return Ok(RouteClass::Stream(rest[..end].to_string()));
            }
        }
    }
    match parse_stream_line(trimmed)? {
        StreamLine::Header(_) => Ok(RouteClass::Header),
        StreamLine::Meta(meta) => Ok(RouteClass::Stream(meta.source)),
        StreamLine::Event(record) => Ok(RouteClass::Stream(record.source)),
    }
}

fn doc_field<'a>(doc: &'a Value, key: &str) -> Option<&'a Value> {
    doc.as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

/// Merges per-shard metrics documents back into the single document the
/// whole job would have produced on one node.
///
/// Every `(benchmark, label)` section is deserialized into its typed
/// report and the document is reassembled with [`metrics_doc`] with the
/// benchmarks in `order` (the upload's first-appearance order) — the
/// exact assembly single-node `simulate` performs. The vendored JSON
/// layer round-trips every number exactly (shortest-roundtrip floats,
/// native integers), so the merged document is **byte-identical** to
/// the single-node one.
///
/// # Errors
///
/// Returns a description when a document has the wrong schema, the
/// shards disagree on spec labels, a benchmark is missing, duplicated,
/// or unknown to `order`, or a section fails to deserialize.
pub fn merge_metrics_docs(order: &[String], docs: &[Value]) -> Result<Value, String> {
    let mut labels: Option<Vec<String>> = None;
    let mut sections: BTreeMap<String, Vec<SpecReports>> = BTreeMap::new();
    for doc in docs {
        match doc_field(doc, "schema") {
            Some(Value::Str(s)) if s == METRICS_SCHEMA => {}
            other => return Err(format!("shard doc has schema {other:?}, not {METRICS_SCHEMA:?}")),
        }
        match doc_field(doc, "version") {
            Some(Value::UInt(v)) if *v == u64::from(METRICS_VERSION) => {}
            other => {
                return Err(format!(
                    "shard doc has version {other:?}, not {METRICS_VERSION}"
                ))
            }
        }
        let suite = doc_field(doc, "suite")
            .and_then(Value::as_object)
            .ok_or("shard doc has no suite section")?;
        let doc_labels: Vec<String> = suite.iter().map(|(k, _)| k.clone()).collect();
        match &labels {
            None => labels = Some(doc_labels),
            Some(first) if *first == doc_labels => {}
            Some(first) => {
                return Err(format!(
                    "shards disagree on spec labels: {first:?} vs {doc_labels:?}"
                ))
            }
        }
        let labels = labels.as_ref().expect("just set");
        let benches = doc_field(doc, "benchmarks")
            .and_then(Value::as_array)
            .ok_or("shard doc has no benchmarks section")?;
        for bench in benches {
            let name = match doc_field(bench, "benchmark") {
                Some(Value::Str(name)) => name.clone(),
                other => return Err(format!("benchmark entry names {other:?}")),
            };
            let mut reports: Vec<SpecReports> = Vec::with_capacity(labels.len());
            for label in labels {
                let section = doc_field(bench, label)
                    .ok_or_else(|| format!("{name}: no section for spec {label:?}"))?;
                if doc_field(section, "sampled").is_some() {
                    return Err(format!(
                        "{name}/{label}: sampled sections cannot be fleet-merged"
                    ));
                }
                reports.push(
                    SpecReports::from_value(section).map_err(|e| format!("{name}/{label}: {e}"))?,
                );
            }
            if sections.insert(name.clone(), reports).is_some() {
                return Err(format!("benchmark {name:?} appears in more than one shard doc"));
            }
        }
    }
    let labels = labels.ok_or("no shard documents to merge")?;
    let mut benchmarks = Vec::with_capacity(order.len());
    for name in order {
        let reports = sections
            .remove(name)
            .ok_or_else(|| format!("no shard produced benchmark {name:?}"))?;
        benchmarks.push((name.as_str(), reports));
    }
    if let Some(extra) = sections.keys().next() {
        return Err(format!("shard docs contain unexpected benchmark {extra:?}"));
    }
    Ok(metrics_doc(
        &labels,
        benchmarks.iter().map(|(name, reports)| (*name, reports)),
    ))
}

/// Merges per-shard result tables (the human-readable rendering) back
/// into single-node order. Each benchmark's segment starts with the
/// `\n=== name: …` banner [`render_sim_tables`] writes, which is the
/// split point.
///
/// # Errors
///
/// Returns a description when a benchmark is missing, duplicated, or
/// unknown to `order`.
pub fn merge_sim_tables(order: &[String], tables: &[String]) -> Result<String, String> {
    let mut segments: BTreeMap<String, String> = BTreeMap::new();
    for table in tables {
        for seg in table.split("\n=== ") {
            if seg.is_empty() {
                continue;
            }
            let name = seg.split(':').next().unwrap_or_default();
            if name.is_empty() {
                return Err(format!("malformed result table segment {seg:?}"));
            }
            if segments
                .insert(name.to_string(), format!("\n=== {seg}"))
                .is_some()
            {
                return Err(format!(
                    "benchmark {name:?} appears in more than one shard table"
                ));
            }
        }
    }
    let mut text = String::new();
    for name in order {
        match segments.remove(name) {
            Some(seg) => text.push_str(&seg),
            None => return Err(format!("no shard table covers benchmark {name:?}")),
        }
    }
    if let Some(extra) = segments.keys().next() {
        return Err(format!("shard tables contain unexpected benchmark {extra:?}"));
    }
    Ok(text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    fn suite_export(benches: usize, tag: &str) -> String {
        let mut opts = crate::HarnessOptions {
            scale: 64,
            suite: Some(gencache_workloads::Suite::Interactive),
            jobs: Some(1),
            ..crate::HarnessOptions::default()
        };
        // Tests run concurrently in one process: each call gets its own
        // directory so one test's cleanup cannot delete another's export.
        static CALLS: AtomicUsize = AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "gencache-ingest-{tag}-{}-{call}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl").to_str().unwrap().to_string();
        opts.events_out = Some(path.clone());
        let runs = crate::record_all(&opts);
        crate::export_telemetry(&opts, &runs[..benches]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    }

    fn tiny_export() -> String {
        suite_export(1, "one")
    }

    #[test]
    fn line_at_a_time_ingest_matches_bulk_reconstruction() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        assert!(ingest.has_header());
        assert!(ingest.bytes() >= text.len() as u64);
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        assert_eq!(inputs.len(), 1);
        assert!(inputs[0].trace.access_count() > 0);
        assert_eq!(inputs[0].log.access_count(), inputs[0].trace.access_count());
    }

    #[test]
    fn truncated_checker_stream_is_rejected() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        // Drop the final line (part of the second model's stream): the
        // checker cursor cannot reach the reference length.
        let lines: Vec<&str> = text.lines().collect();
        for line in &lines[..lines.len() - 1] {
            ingest.push_line(line).unwrap();
        }
        let err = ingest.into_inputs(None, None, None).unwrap_err();
        assert!(
            err.contains("different frontend traces"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn garbage_line_is_a_clean_error() {
        let mut ingest = StreamIngest::new();
        assert!(ingest.push_line("{not json").is_err());
        assert!(StreamIngest::new().push_line("[1,2,3]").is_err());
    }

    #[test]
    fn interleaved_streams_get_a_clear_error() {
        let text = tiny_export();
        let lines: Vec<&str> = text.lines().collect();
        // Replaying the first model's first event after the second
        // model's stream makes the first stream "reappear".
        let (first_event, first_model) = lines
            .iter()
            .find_map(|l| match parse_stream_line(l) {
                Ok(StreamLine::Event(r)) => Some((*l, r.model)),
                _ => None,
            })
            .expect("export has event lines");
        let mut ingest = StreamIngest::new();
        for line in &lines {
            ingest.push_line(line).unwrap();
        }
        let err = ingest.push_line(first_event).unwrap_err();
        assert!(err.contains("interleaves"), "unexpected error: {err}");
        assert!(
            err.contains(&first_model),
            "error does not name the offending stream: {err}"
        );
    }

    #[test]
    fn classify_line_routes_by_source() {
        let text = tiny_export();
        let mut saw_header = false;
        let mut saw_stream = false;
        for line in text.lines() {
            match classify_line(line).unwrap() {
                RouteClass::Header => saw_header = true,
                RouteClass::Stream(name) => {
                    assert!(!name.is_empty());
                    saw_stream = true;
                }
                RouteClass::Blank => {}
            }
        }
        assert!(saw_header && saw_stream);
        assert_eq!(classify_line("   ").unwrap(), RouteClass::Blank);
        assert!(classify_line("{not json").is_err());
    }

    #[test]
    fn fleet_merge_reassembles_byte_identical_docs() {
        let text = suite_export(2, "merge");
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let mut inputs = ingest.into_inputs(None, None, None).unwrap();
        assert_eq!(inputs.len(), 2);
        let order: Vec<String> = inputs.iter().map(|i| i.name.clone()).collect();
        let specs = resolve_sim_specs(&[], false).unwrap();
        let whole = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, None).unwrap();
        let whole_doc = crate::value_to_json(&sim_metrics_doc(&whole));
        let whole_table = render_sim_tables(&whole);
        // Split the job as the fleet router would: one benchmark per
        // "shard", merged back in upload order.
        let second = inputs.split_off(1);
        let out_a = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, None).unwrap();
        let out_b = run_sim_job(&second, &specs, SimJobOptions::default(), 1, None).unwrap();
        let docs = [sim_metrics_doc(&out_b), sim_metrics_doc(&out_a)];
        let merged = merge_metrics_docs(&order, &docs).unwrap();
        assert_eq!(
            crate::value_to_json(&merged),
            whole_doc,
            "fleet-merged doc is not byte-identical"
        );
        let tables = [render_sim_tables(&out_b), render_sim_tables(&out_a)];
        assert_eq!(merge_sim_tables(&order, &tables).unwrap(), whole_table);
        // A missing benchmark is an error, not a silent gap.
        let err = merge_metrics_docs(&order, &docs[..1]).unwrap_err();
        assert!(err.contains("no shard produced"), "unexpected error: {err}");
    }

    #[test]
    fn adaptive_doc_is_jobs_invariant() {
        let text = suite_export(2, "adaptive-jobs");
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        let labels = ["unified", "45-10-45@hit1", "adaptive", "lru"].map(String::from);
        let specs = resolve_sim_specs(&labels, false).unwrap();
        let options = SimJobOptions {
            oracle: true,
            windows: true,
            window_width: Some(32),
            regret_top: Some(8),
        };
        let serial = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
        let serial_doc = crate::value_to_json(&sim_metrics_doc(&serial));
        assert!(
            serial_doc.contains("\"switches\""),
            "adaptive spec must emit a switches section"
        );
        for jobs in [2, 8] {
            let par = run_sim_job(&inputs, &specs, options, jobs, None).unwrap();
            assert_eq!(
                crate::value_to_json(&sim_metrics_doc(&par)),
                serial_doc,
                "adaptive doc with {jobs} jobs diverged from serial"
            );
        }
    }

    fn object(value: &mut Value) -> &mut Vec<(String, Value)> {
        match value {
            Value::Object(pairs) => pairs,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn pair<'v>(value: &'v mut Value, key: &str) -> &'v mut (String, Value) {
        let pairs = object(value);
        pairs.iter_mut().find(|(k, _)| k == key).expect("key present")
    }

    #[test]
    fn merge_metrics_docs_errors_are_pinned() {
        use gencache_core::SwitchReport;
        use gencache_obs::{CostReport, MetricsReport, RegretReport, WindowReport};

        let reports = SpecReports {
            regret: Some(RegretReport::new(1)),
            windows: Some(WindowReport::default()),
            switches: Some(SwitchReport::default()),
            ..SpecReports::new(MetricsReport::new(), CostReport::new(1))
        };
        let doc = metrics_doc(&["unified".to_string()], [("a", [&reports])]);
        let edited = |edit: &dyn Fn(&mut Value)| {
            let mut d = doc.clone();
            edit(&mut d);
            d
        };
        // Edits benchmark "a"'s entry, or its "unified" section.
        let in_bench = |edit: &dyn Fn(&mut Value)| {
            edited(&|d| match &mut pair(d, "benchmarks").1 {
                Value::Array(benches) => edit(&mut benches[0]),
                other => panic!("benchmarks is not an array: {other:?}"),
            })
        };
        let in_section =
            |edit: &dyn Fn(&mut Value)| in_bench(&|b| edit(&mut pair(b, "unified").1));
        let (a, b) = (["a".to_string()], ["b".to_string()]);
        let cases: Vec<(Vec<Value>, &[String], &str)> = vec![
            (
                vec![edited(&|d| pair(d, "schema").1 = Value::Str("nope".into()))],
                &a,
                "shard doc has schema Some(Str(\"nope\")), not \"gencache-metrics\"",
            ),
            (
                vec![edited(&|d| pair(d, "version").1 = Value::UInt(99))],
                &a,
                "shard doc has version Some(UInt(99)), not 2",
            ),
            (
                vec![
                    doc.clone(),
                    edited(&|d| pair(&mut pair(d, "suite").1, "unified").0 = "lru".into()),
                ],
                &a,
                "shards disagree on spec labels: [\"unified\"] vs [\"lru\"]",
            ),
            (
                vec![in_bench(&|b| object(b).retain(|(k, _)| k != "unified"))],
                &a,
                "a: no section for spec \"unified\"",
            ),
            (
                vec![in_section(&|s| object(s).push(("sampled".into(), Value::Null)))],
                &a,
                "a/unified: sampled sections cannot be fleet-merged",
            ),
            (
                vec![doc.clone(), doc.clone()],
                &a,
                "benchmark \"a\" appears in more than one shard doc",
            ),
            (
                vec![doc.clone()],
                &[],
                "shard docs contain unexpected benchmark \"a\"",
            ),
            (vec![doc.clone()], &b, "no shard produced benchmark \"b\""),
            (vec![], &a, "no shard documents to merge"),
        ];
        for (docs, order, expected) in cases {
            assert_eq!(merge_metrics_docs(order, &docs).unwrap_err(), expected);
        }
        for key in ["metrics", "costs"] {
            let missing = in_section(&|s| object(s).retain(|(k, _)| k != key));
            let err = merge_metrics_docs(&a, &[missing]).unwrap_err();
            assert_eq!(err, format!("a/unified: no {key}"));
        }
        for (key, ty) in [
            ("metrics", "MetricsReport"),
            ("costs", "CostReport"),
            ("regret", "RegretReport"),
            ("windows", "WindowReport"),
            ("switches", "SwitchReport"),
        ] {
            let malformed = in_section(&|s| pair(s, key).1 = Value::Str("x".into()));
            let err = merge_metrics_docs(&a, &[malformed]).unwrap_err();
            let cause = format!("expected object for {ty}, got Str(\"x\")");
            assert_eq!(err, format!("a/unified: bad {key}: {cause}"));
        }
        assert!(merge_metrics_docs(&a, &[doc]).is_ok());
    }

    #[test]
    fn canceled_job_returns_error_not_partial_output() {
        let text = tiny_export();
        let mut ingest = StreamIngest::new();
        for line in text.lines() {
            ingest.push_line(line).unwrap();
        }
        let inputs = ingest.into_inputs(None, None, None).unwrap();
        let specs = resolve_sim_specs(&[], false).unwrap();
        let cancel = AtomicBool::new(true);
        let err = run_sim_job(&inputs, &specs, SimJobOptions::default(), 1, Some(&cancel)).unwrap_err();
        assert!(err.contains("canceled"), "unexpected error: {err}");
    }
}
