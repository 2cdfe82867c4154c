//! Job tracing and structured logging for the serve/fleet path.
//!
//! Three cooperating pieces, all pure-std and lock-cheap:
//!
//! * [`Span`] / [`Telemetry`] — a bounded ring buffer of per-stage spans
//!   keyed by `trace_id`. Every job stage (accept, queue, ingest, replay,
//!   dispatch, merge, reply) records one span with monotonic wall-clock
//!   and an outcome string. When tracing is disabled ([`Telemetry`] built
//!   with capacity 0) the recording path is a single branch — the
//!   `NullObserver` discipline one layer up.
//! * [`Logger`] — a levelled JSONL log stream (stderr or file). Records
//!   carry the `trace_id` so one job can be grepped across the client,
//!   router, and shard logs. Disabled loggers skip all formatting.
//! * `Snapshot` — one node's metrics (counters, gauges, log2
//!   histograms, labelled rows), read through the node kind's single
//!   declaration table. The `stats` doc, the Prometheus text exposition
//!   of the `metrics` frame, the `watch` row and the fleet merge are all
//!   renderings of a snapshot, so they cannot disagree.
//!
//! Spans use monotonic clocks only: `start_us` is microseconds since the
//! recording daemon's start (for the client, since the submit call
//! began), never wall time, so traces survive clock steps.

use std::collections::VecDeque;
use std::fs::OpenOptions;
use std::io::{self, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use gencache_obs::Log2Histogram;
use serde::{Deserialize, Serialize, Value};

/// Default number of spans retained per daemon before the oldest drop.
pub const DEFAULT_TRACE_CAPACITY: usize = 4096;

/// Generates a process-unique 16-hex-digit trace id.
///
/// Mixes wall time, the process id, and a process-local counter through
/// an FNV-1a/avalanche hash — no randomness source required, and two
/// processes stamping ids in the same nanosecond still disagree on pid
/// and counter.
pub fn new_trace_id() -> String {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    let seq = COUNTER.fetch_add(1, Ordering::Relaxed);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for word in [nanos, u64::from(std::process::id()), seq] {
        for byte in word.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    // Murmur3-style avalanche so adjacent counters spread across all bits.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^= h >> 33;
    format!("{h:016x}")
}

/// One timed stage of one job on one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace id this span belongs to.
    pub trace_id: String,
    /// Recording node, e.g. `serve:127.0.0.1:4000`, `router:…`, `client`.
    pub node: String,
    /// Stage name: `accept`, `queue`, `ingest`, `replay:<spec>`,
    /// `dispatch:<addr>`, `merge`, `reply`, `upload`, `job`.
    pub stage: String,
    /// Monotonic microseconds since the recording node's origin instant.
    pub start_us: u64,
    /// Stage duration in microseconds.
    pub dur_us: u64,
    /// `ok`, `busy`, or `error: <message>`.
    pub outcome: String,
    /// Lines handled during this stage, when meaningful.
    pub lines: Option<u64>,
    /// Bytes handled during this stage, when meaningful.
    pub bytes: Option<u64>,
}

impl Span {
    /// Serializes the span as a deterministic JSON object value.
    pub fn to_value(&self) -> Value {
        let mut pairs = vec![
            ("trace_id".to_string(), Value::Str(self.trace_id.clone())),
            ("node".to_string(), Value::Str(self.node.clone())),
            ("stage".to_string(), Value::Str(self.stage.clone())),
            ("start_us".to_string(), Value::UInt(self.start_us)),
            ("dur_us".to_string(), Value::UInt(self.dur_us)),
            ("outcome".to_string(), Value::Str(self.outcome.clone())),
        ];
        if let Some(n) = self.lines {
            pairs.push(("lines".to_string(), Value::UInt(n)));
        }
        if let Some(n) = self.bytes {
            pairs.push(("bytes".to_string(), Value::UInt(n)));
        }
        Value::Object(pairs)
    }

    /// Parses a span back out of a JSON object value.
    pub fn from_value(v: &Value) -> Option<Span> {
        let pairs = v.as_object()?;
        let get = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
        let s = |name: &str| -> Option<String> {
            match get(name)? {
                Value::Str(s) => Some(s.clone()),
                _ => None,
            }
        };
        let n = |name: &str| -> Option<u64> {
            match get(name)? {
                Value::UInt(n) => Some(*n),
                Value::Int(n) if *n >= 0 => Some(*n as u64),
                _ => None,
            }
        };
        Some(Span {
            trace_id: s("trace_id")?,
            node: s("node")?,
            stage: s("stage")?,
            start_us: n("start_us")?,
            dur_us: n("dur_us")?,
            outcome: s("outcome")?,
            lines: n("lines"),
            bytes: n("bytes"),
        })
    }
}

/// Renders spans as an aligned human-readable table (used by
/// `gencache-client trace` and `--verbose`).
pub fn render_spans(spans: &[Span]) -> String {
    let mut out = String::new();
    let node_w = spans.iter().map(|s| s.node.len()).max().unwrap_or(4).max(4);
    let stage_w = spans
        .iter()
        .map(|s| s.stage.len())
        .max()
        .unwrap_or(5)
        .max(5);
    out.push_str(&format!(
        "{:<node_w$}  {:<stage_w$}  {:>10}  {:>10}  {}\n",
        "node", "stage", "start_us", "dur_us", "outcome"
    ));
    for s in spans {
        let mut detail = String::new();
        if let Some(n) = s.lines {
            detail.push_str(&format!(" lines={n}"));
        }
        if let Some(n) = s.bytes {
            detail.push_str(&format!(" bytes={n}"));
        }
        out.push_str(&format!(
            "{:<node_w$}  {:<stage_w$}  {:>10}  {:>10}  {}{}\n",
            s.node, s.stage, s.start_us, s.dur_us, s.outcome, detail
        ));
    }
    out
}

/// In-flight span under construction; terminal [`SpanBuilder::end`]
/// pushes it into the ring.
#[derive(Debug)]
pub struct SpanBuilder<'t> {
    tel: &'t Telemetry,
    trace_id: String,
    stage: String,
    start: Instant,
    dur: Option<Duration>,
    outcome: String,
    lines: Option<u64>,
    bytes: Option<u64>,
}

impl SpanBuilder<'_> {
    /// Overrides the outcome (default `ok`).
    #[must_use]
    pub fn outcome(mut self, outcome: &str) -> Self {
        self.outcome = outcome.to_string();
        self
    }

    /// Attaches a line count.
    #[must_use]
    pub fn lines(mut self, n: u64) -> Self {
        self.lines = Some(n);
        self
    }

    /// Attaches a byte count.
    #[must_use]
    pub fn bytes(mut self, n: u64) -> Self {
        self.bytes = Some(n);
        self
    }

    /// Overrides the duration (default: elapsed since the start instant
    /// when `end` is called). Used for retrospective spans such as queue
    /// wait and per-spec replay sums.
    #[must_use]
    pub fn dur(mut self, dur: Duration) -> Self {
        self.dur = Some(dur);
        self
    }

    /// Finalizes the span and records it.
    pub fn end(self) {
        let dur = self.dur.unwrap_or_else(|| self.start.elapsed());
        let span = Span {
            trace_id: self.trace_id,
            node: self.tel.node.clone(),
            stage: self.stage,
            start_us: self.tel.offset_us(self.start),
            dur_us: dur.as_micros() as u64,
            outcome: self.outcome,
            lines: self.lines,
            bytes: self.bytes,
        };
        self.tel.push(span);
    }
}

/// Per-daemon telemetry: a span ring plus the structured logger.
pub struct Telemetry {
    node: String,
    origin: Instant,
    capacity: usize,
    ring: Mutex<VecDeque<Span>>,
    logger: Logger,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("node", &self.node)
            .field("capacity", &self.capacity)
            .finish_non_exhaustive()
    }
}

impl Telemetry {
    /// Builds a recorder for `node` retaining up to `capacity` spans.
    /// Capacity 0 disables tracing entirely (spans cost one branch).
    pub fn new(node: &str, capacity: usize, logger: Logger) -> Telemetry {
        Telemetry {
            node: node.to_string(),
            origin: Instant::now(),
            capacity,
            ring: Mutex::new(VecDeque::new()),
            logger,
        }
    }

    /// A disabled recorder: no spans, no logs.
    pub fn disabled() -> Telemetry {
        Telemetry::new("", 0, Logger::disabled())
    }

    /// Whether span recording is on.
    pub fn tracing(&self) -> bool {
        self.capacity > 0
    }

    /// The node label this recorder stamps on spans.
    pub fn node(&self) -> &str {
        &self.node
    }

    /// Milliseconds since this recorder (daemon) started.
    pub fn uptime_ms(&self) -> u64 {
        self.origin.elapsed().as_millis() as u64
    }

    fn offset_us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_micros() as u64
    }

    /// Starts a span for `trace_id` covering `stage`, begun at `start`.
    /// Returns `None` when tracing is disabled so call sites pay nothing.
    pub fn span(&self, trace_id: &str, stage: &str, start: Instant) -> Option<SpanBuilder<'_>> {
        if !self.tracing() {
            return None;
        }
        Some(SpanBuilder {
            tel: self,
            trace_id: trace_id.to_string(),
            stage: stage.to_string(),
            start,
            dur: None,
            outcome: "ok".to_string(),
            lines: None,
            bytes: None,
        })
    }

    fn push(&self, span: Span) {
        let mut ring = self.ring.lock().unwrap();
        if ring.len() >= self.capacity {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// All retained spans for a trace id, in recording order.
    pub fn spans_for(&self, trace_id: &str) -> Vec<Span> {
        self.ring
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.trace_id == trace_id)
            .cloned()
            .collect()
    }

    /// The structured logger bound to this daemon.
    pub fn log(&self) -> &Logger {
        &self.logger
    }
}

/// Severity of a structured log record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Fine-grained per-stage detail.
    Debug,
    /// Normal life-cycle events (admission, drain).
    Info,
    /// Degraded but recovering (shed, failover, deadline miss).
    Warn,
    /// Request- or connection-fatal conditions.
    Error,
}

impl LogLevel {
    /// Parses `debug|info|warn|error` (case-insensitive).
    pub fn parse(s: &str) -> Option<LogLevel> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(LogLevel::Debug),
            "info" => Some(LogLevel::Info),
            "warn" | "warning" => Some(LogLevel::Warn),
            "error" => Some(LogLevel::Error),
            _ => None,
        }
    }

    /// The lowercase name used in log records.
    pub fn name(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }
}

/// Where a [`Logger`]'s records go, plus the size accounting that
/// drives optional rotation. Only file sinks rotate: when writing the
/// next record would push the file past `max_bytes`, the current file
/// is renamed to `<path>.1` (replacing any previous `.1`) and a fresh
/// file is started — a single-step rotation, so the log never holds
/// more than two generations on disk.
struct LogSink {
    writer: Box<dyn Write + Send>,
    /// `Some` only for file sinks (stderr never rotates).
    path: Option<PathBuf>,
    /// Rotation threshold; `None` means grow without bound.
    max_bytes: Option<u64>,
    /// Current file size in bytes (seeded from the existing file when
    /// appending).
    size: u64,
}

impl LogSink {
    fn write_line(&mut self, line: &str) {
        let record_len = line.len() as u64 + 1;
        if let (Some(path), Some(max)) = (&self.path, self.max_bytes) {
            if self.size + record_len > max && self.size > 0 {
                let _ = self.writer.flush();
                let rotated = {
                    let mut name = path.as_os_str().to_owned();
                    name.push(".1");
                    PathBuf::from(name)
                };
                if std::fs::rename(path, &rotated).is_ok() {
                    if let Ok(f) = OpenOptions::new().create(true).append(true).open(path) {
                        self.writer = Box::new(f);
                        self.size = 0;
                    }
                }
            }
        }
        let _ = writeln!(self.writer, "{line}");
        let _ = self.writer.flush();
        self.size += record_len;
    }
}

/// Levelled JSONL logger. Each record is one line:
/// `{"ts_ms":…,"level":"…","component":"…","event":"…","trace_id":…,…}`.
pub struct Logger {
    component: String,
    level: LogLevel,
    sink: Option<Mutex<LogSink>>,
}

impl std::fmt::Debug for Logger {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Logger")
            .field("component", &self.component)
            .field("level", &self.level)
            .field("enabled", &self.sink.is_some())
            .finish()
    }
}

impl Logger {
    /// A logger that drops everything.
    pub fn disabled() -> Logger {
        Logger {
            component: String::new(),
            level: LogLevel::Error,
            sink: None,
        }
    }

    /// Opens a logger for `component` writing to `target`:
    /// `None`/`"none"` disables, `"-"` writes to stderr, anything else
    /// is a file path (created or appended to). The file grows without
    /// bound; see [`Logger::open_capped`] for rotation.
    pub fn open(component: &str, target: Option<&str>, level: LogLevel) -> io::Result<Logger> {
        Logger::open_capped(component, target, level, None)
    }

    /// Like [`Logger::open`], but a file sink rotates once it would
    /// exceed `max_bytes`: the current file is renamed to `<path>.1`
    /// (replacing any earlier `.1`) and a fresh file begins. Stderr
    /// sinks ignore the cap. `None` disables rotation.
    pub fn open_capped(
        component: &str,
        target: Option<&str>,
        level: LogLevel,
        max_bytes: Option<u64>,
    ) -> io::Result<Logger> {
        let sink: Option<LogSink> = match target {
            None | Some("none") | Some("off") => None,
            Some("-") => Some(LogSink {
                writer: Box::new(io::stderr()),
                path: None,
                max_bytes: None,
                size: 0,
            }),
            Some(path) => {
                let file = OpenOptions::new().create(true).append(true).open(path)?;
                let size = file.metadata().map(|m| m.len()).unwrap_or(0);
                Some(LogSink {
                    writer: Box::new(file),
                    path: Some(PathBuf::from(path)),
                    max_bytes: max_bytes.filter(|&m| m > 0),
                    size,
                })
            }
        };
        Ok(Logger {
            component: component.to_string(),
            level,
            sink: sink.map(Mutex::new),
        })
    }

    /// Whether records at `level` would be written.
    pub fn enabled(&self, level: LogLevel) -> bool {
        self.sink.is_some() && level >= self.level
    }

    /// Writes one structured record. `fields` are appended after the
    /// standard keys in the given order; `trace_id` is included when
    /// present so a job can be grepped across daemons.
    pub fn event(
        &self,
        level: LogLevel,
        event: &str,
        trace_id: Option<&str>,
        fields: &[(&str, Value)],
    ) {
        if !self.enabled(level) {
            return;
        }
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let mut pairs = vec![
            ("ts_ms".to_string(), Value::UInt(ts_ms)),
            ("level".to_string(), Value::Str(level.name().to_string())),
            ("component".to_string(), Value::Str(self.component.clone())),
            ("event".to_string(), Value::Str(event.to_string())),
        ];
        if let Some(id) = trace_id {
            pairs.push(("trace_id".to_string(), Value::Str(id.to_string())));
        }
        for (k, v) in fields {
            pairs.push(((*k).to_string(), v.clone()));
        }
        let line = gencache_bench::value_to_json(&Value::Object(pairs));
        if let Some(sink) = &self.sink {
            sink.lock().unwrap().write_line(&line);
        }
    }
}

/// How one metric is read from its node. The variant is the metric's
/// kind: it fixes the Prometheus `# TYPE`, the value's form in the
/// `stats` doc, and how a fleet merges it.
pub(crate) enum Read<S> {
    /// A monotonic count; a fleet sums it.
    Counter(fn(&S) -> u64),
    /// A point-in-time level, such as a pool's size or queue depth; a
    /// fleet sums it.
    Gauge(fn(&S) -> u64),
    /// A point-in-time integer that describes one node, such as its
    /// uptime; a fleet takes the router's own value or leaves it out.
    NodeGauge(fn(&S) -> u64),
    /// A floating-point gauge of one node, such as a miss rate; merged
    /// like a [`Read::NodeGauge`].
    Ratio(fn(&S) -> f64),
    /// A log2 histogram and the exact sum of its values, read together;
    /// a fleet merges the buckets.
    Histogram(fn(&S) -> (Log2Histogram, u64)),
    /// One gauge sample per labelled row, as a preformatted label body
    /// (e.g. `addr="host:port"`) and its value; Prometheus only, and
    /// merged like a [`Read::NodeGauge`].
    Rows(fn(&S) -> Vec<(String, u64)>),
}

/// The declaration of one metric: its names on the wire and how to read
/// it. Each node kind lists its metrics once, in one table; every view
/// of the node renders a [`Snapshot`] taken through that table.
pub(crate) struct Metric<S> {
    /// Key in the node's `stats` doc; empty when the doc has none.
    pub(crate) key: &'static str,
    /// Prometheus family name.
    pub(crate) name: &'static str,
    /// Prometheus `# HELP` text.
    pub(crate) help: &'static str,
    /// Kind and reader.
    pub(crate) read: Read<S>,
}

/// A metric's value at snapshot time; the variant is its [`Read`] kind.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Sample {
    Counter(u64),
    Gauge(u64),
    NodeGauge(u64),
    Ratio(f64),
    Histogram(Log2Histogram, u64),
    Rows(Vec<(String, u64)>),
}

impl Sample {
    /// Adds `other` into a summed kind; other pairs are left alone.
    fn absorb(&mut self, other: &Sample) {
        match (self, other) {
            (Sample::Counter(a), Sample::Counter(b)) | (Sample::Gauge(a), Sample::Gauge(b)) => {
                *a += b;
            }
            (Sample::Histogram(h, sum), Sample::Histogram(other, other_sum)) => {
                h.merge(other);
                *sum += other_sum;
            }
            _ => {}
        }
    }
}

impl<S> Read<S> {
    fn sample(&self, node: &S) -> Sample {
        match self {
            Read::Counter(f) => Sample::Counter(f(node)),
            Read::Gauge(f) => Sample::Gauge(f(node)),
            Read::NodeGauge(f) => Sample::NodeGauge(f(node)),
            Read::Ratio(f) => Sample::Ratio(f(node)),
            Read::Histogram(f) => {
                let (hist, sum) = f(node);
                Sample::Histogram(hist, sum)
            }
            Read::Rows(f) => Sample::Rows(f(node)),
        }
    }

    /// The empty sum a fleet adds its nodes into; `None` for the kinds
    /// that describe one node.
    fn fleet_zero(&self) -> Option<Sample> {
        match self {
            Read::Counter(_) => Some(Sample::Counter(0)),
            Read::Gauge(_) => Some(Sample::Gauge(0)),
            Read::Histogram(_) => Some(Sample::Histogram(Log2Histogram::new(), 0)),
            Read::NodeGauge(_) | Read::Ratio(_) | Read::Rows(_) => None,
        }
    }
}

#[derive(Debug)]
struct Entry {
    key: &'static str,
    name: &'static str,
    help: &'static str,
    sample: Sample,
}

impl Entry {
    fn new<S>(metric: &Metric<S>, sample: Sample) -> Entry {
        Entry {
            key: metric.key,
            name: metric.name,
            help: metric.help,
            sample,
        }
    }
}

/// One node's metrics at one instant, in declaration-table order. The
/// `stats` doc, the Prometheus body, the `watch` row and the fleet merge
/// are all renderings of it.
#[derive(Debug)]
pub(crate) struct Snapshot(Vec<Entry>);

impl Snapshot {
    /// Reads every metric of `table` from `node`.
    pub(crate) fn take<S>(table: &[Metric<S>], node: &S) -> Snapshot {
        Snapshot(
            table
                .iter()
                .map(|m| Entry::new(m, m.read.sample(node)))
                .collect(),
        )
    }

    /// Parses a `stats` doc written from `table` back into a snapshot.
    /// A key that is missing or of the wrong form is left out. The doc
    /// carries a histogram's buckets but not its sum, so a parsed
    /// histogram's sum is 0.
    pub(crate) fn parse<S>(table: &[Metric<S>], doc: &Value) -> Snapshot {
        let entries = table.iter().filter(|m| !m.key.is_empty()).filter_map(|m| {
            let value = serde::obj_field(doc, "stats", m.key).ok()?;
            let sample = match (&m.read, value) {
                (Read::Counter(_), Value::UInt(n)) => Sample::Counter(*n),
                (Read::Gauge(_), Value::UInt(n)) => Sample::Gauge(*n),
                (Read::NodeGauge(_), Value::UInt(n)) => Sample::NodeGauge(*n),
                (Read::Ratio(_), Value::Float(f)) => Sample::Ratio(*f),
                (Read::Histogram(_), v) => Sample::Histogram(Log2Histogram::from_value(v).ok()?, 0),
                _ => return None,
            };
            Some(Entry::new(m, sample))
        });
        Snapshot(entries.collect())
    }

    /// The fleet view of `table`: counters, gauges and histograms are
    /// summed over `nodes`, plus the router's own metric of the same
    /// family when it has one. A metric that describes one node is the
    /// router's own value, or is left out when the router has none.
    pub(crate) fn fleet<S>(table: &[Metric<S>], nodes: &[Snapshot], router: &Snapshot) -> Snapshot {
        let entries = table.iter().filter_map(|m| {
            let own = router.find(|e| e.name == m.name);
            let sample = match m.read.fleet_zero() {
                Some(mut sum) => {
                    for node in nodes.iter().filter_map(|n| n.find(|e| e.name == m.name)) {
                        sum.absorb(node);
                    }
                    if let Some(own) = own {
                        sum.absorb(own);
                    }
                    sum
                }
                None => own?.clone(),
            };
            Some(Entry::new(m, sample))
        });
        Snapshot(entries.collect())
    }

    fn find(&self, pred: impl Fn(&Entry) -> bool) -> Option<&Sample> {
        self.0.iter().find(|e| pred(e)).map(|e| &e.sample)
    }

    /// The sample under `stats` key `key`.
    pub(crate) fn get(&self, key: &str) -> Option<&Sample> {
        self.find(|e| e.key == key)
    }

    /// The integer value under `stats` key `key`; 0 when there is none.
    pub(crate) fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Some(Sample::Counter(n) | Sample::Gauge(n) | Sample::NodeGauge(n)) => *n,
            _ => 0,
        }
    }

    /// The `stats` doc fields: every keyed metric, in table order.
    pub(crate) fn doc_fields(&self) -> Vec<(String, Value)> {
        let fields = self.0.iter().filter(|e| !e.key.is_empty()).filter_map(|e| {
            let value = match &e.sample {
                Sample::Counter(n) | Sample::Gauge(n) | Sample::NodeGauge(n) => Value::UInt(*n),
                Sample::Ratio(f) => Value::Float(*f),
                Sample::Histogram(hist, _) => hist.to_value(),
                Sample::Rows(_) => return None,
            };
            Some((e.key.to_string(), value))
        });
        fields.collect()
    }

    /// Renders the Prometheus text exposition: `# HELP` / `# TYPE`
    /// headers, then the samples. A histogram becomes cumulative
    /// `_bucket{le=…}` series, where each `le` is the inclusive top of a
    /// power-of-two bucket, plus `_sum` and `_count`. A family with no
    /// rows is left out.
    pub(crate) fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for Entry {
            name, help, sample, ..
        } in &self.0
        {
            let kind = match sample {
                Sample::Counter(_) => "counter",
                Sample::Histogram(..) => "histogram",
                Sample::Rows(rows) if rows.is_empty() => continue,
                _ => "gauge",
            };
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} {kind}\n"));
            match sample {
                Sample::Counter(n) | Sample::Gauge(n) | Sample::NodeGauge(n) => {
                    out.push_str(&format!("{name} {n}\n"));
                }
                Sample::Ratio(f) => out.push_str(&format!("{name} {f}\n")),
                Sample::Rows(rows) => {
                    for (labels, value) in rows {
                        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
                    }
                }
                Sample::Histogram(hist, sum) => {
                    let mut cumulative = 0u64;
                    for (b, &count) in hist.counts().iter().enumerate() {
                        cumulative += count;
                        let (_, hi) = Log2Histogram::bucket_range(b);
                        out.push_str(&format!("{name}_bucket{{le=\"{hi}\"}} {cumulative}\n"));
                    }
                    out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", hist.total()));
                    out.push_str(&format!("{name}_sum {sum}\n"));
                    out.push_str(&format!("{name}_count {}\n", hist.total()));
                }
            }
        }
        out
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
pub fn prom_label_escape(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_ids_are_unique_hex() {
        let a = new_trace_id();
        let b = new_trace_id();
        assert_ne!(a, b);
        assert_eq!(a.len(), 16);
        assert!(a.chars().all(|c| c.is_ascii_hexdigit()));
    }

    #[test]
    fn ring_is_bounded_and_filters_by_trace() {
        let tel = Telemetry::new("serve:test", 4, Logger::disabled());
        let t0 = Instant::now();
        for i in 0..6 {
            tel.span(&format!("id-{i}"), "accept", t0).unwrap().end();
        }
        assert!(tel.spans_for("id-0").is_empty(), "oldest spans evicted");
        assert!(tel.spans_for("id-1").is_empty(), "oldest spans evicted");
        let last = tel.spans_for("id-5");
        assert_eq!(last.len(), 1);
        assert_eq!(last[0].node, "serve:test");
        assert_eq!(last[0].outcome, "ok");
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        assert!(!tel.tracing());
        assert!(tel.span("id", "accept", Instant::now()).is_none());
        assert!(tel.spans_for("id").is_empty());
    }

    #[test]
    fn span_value_roundtrip() {
        let span = Span {
            trace_id: "abc123".to_string(),
            node: "serve:127.0.0.1:1".to_string(),
            stage: "ingest".to_string(),
            start_us: 42,
            dur_us: 7,
            outcome: "ok".to_string(),
            lines: Some(10),
            bytes: Some(999),
        };
        let back = Span::from_value(&span.to_value()).unwrap();
        assert_eq!(back, span);
        let minimal = Span {
            lines: None,
            bytes: None,
            ..span
        };
        let back = Span::from_value(&minimal.to_value()).unwrap();
        assert_eq!(back, minimal);
    }

    #[test]
    fn logger_writes_filtered_jsonl() {
        let dir = std::env::temp_dir().join(format!("gencache-log-{}", new_trace_id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("test.log");
        let logger = Logger::open("serve", path.to_str(), LogLevel::Info).unwrap();
        assert!(logger.enabled(LogLevel::Warn));
        assert!(!logger.enabled(LogLevel::Debug));
        logger.event(LogLevel::Debug, "dropped", None, &[]);
        logger.event(
            LogLevel::Info,
            "job_admitted",
            Some("deadbeef"),
            &[("queue_depth", Value::UInt(3))],
        );
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 1, "debug record must be filtered: {text}");
        assert!(lines[0].contains("\"event\":\"job_admitted\""));
        assert!(lines[0].contains("\"trace_id\":\"deadbeef\""));
        assert!(lines[0].contains("\"queue_depth\":3"));
        serde_json::value_from_str(lines[0]).expect("record is valid JSON");
    }

    #[test]
    fn capped_logger_rotates_once_to_dot_one() {
        let dir = std::env::temp_dir().join(format!("gencache-logrot-{}", new_trace_id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log");
        let rotated = dir.join("serve.log.1");
        // Small cap: every record is ~90 bytes, so a 256-byte cap forces
        // several rotations across 12 records.
        let logger =
            Logger::open_capped("serve", path.to_str(), LogLevel::Info, Some(256)).unwrap();
        for i in 0..12 {
            logger.event(LogLevel::Info, "tick", None, &[("i", Value::UInt(i))]);
        }
        let live = std::fs::metadata(&path).unwrap().len();
        assert!(live <= 256, "live log exceeded the cap: {live} bytes");
        assert!(rotated.exists(), "no rotated generation written");
        let old = std::fs::metadata(&rotated).unwrap().len();
        assert!(old <= 256, "rotated log exceeded the cap: {old} bytes");
        // Only one rotated generation ever exists.
        assert!(!dir.join("serve.log.2").exists());
        // Every surviving line is intact JSON — rotation never splits a
        // record.
        for file in [&path, &rotated] {
            let text = std::fs::read_to_string(file).unwrap();
            for line in text.lines() {
                serde_json::value_from_str(line).expect("rotated record is valid JSON");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn uncapped_logger_never_rotates() {
        let dir = std::env::temp_dir().join(format!("gencache-logrot-{}", new_trace_id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("serve.log");
        let logger = Logger::open("serve", path.to_str(), LogLevel::Info).unwrap();
        for i in 0..50 {
            logger.event(LogLevel::Info, "tick", None, &[("i", Value::UInt(i))]);
        }
        assert!(!dir.join("serve.log.1").exists(), "default must not rotate");
        assert_eq!(std::fs::read_to_string(&path).unwrap().lines().count(), 50);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let mut hist = Log2Histogram::new();
        for v in [0u64, 1, 1, 3, 900] {
            hist.record(v);
        }
        let table = [Metric {
            key: "latency",
            name: "job_latency_us",
            help: "Job latency.",
            read: Read::Histogram(|h: &(Log2Histogram, u64)| h.clone()),
        }];
        let text = Snapshot::take(&table, &(hist, 905)).to_prometheus();
        assert!(text.contains("# HELP job_latency_us Job latency.\n"));
        assert!(text.contains("# TYPE job_latency_us histogram"));
        assert!(text.contains("job_latency_us_bucket{le=\"0\"} 1\n"));
        assert!(text.contains("job_latency_us_bucket{le=\"1\"} 3\n"));
        assert!(text.contains("job_latency_us_bucket{le=\"3\"} 4\n"));
        assert!(text.contains("job_latency_us_bucket{le=\"+Inf\"} 5\n"));
        assert!(text.contains("job_latency_us_sum 905\n"));
        assert!(text.contains("job_latency_us_count 5\n"));
        // Cumulative counts never decrease across bucket lines.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket")) {
            let n: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(n >= last, "bucket counts must be cumulative: {text}");
            last = n;
        }
    }

    #[test]
    fn fleet_merge_sums_by_kind() {
        struct Node {
            jobs: u64,
            uptime: u64,
            rate: f64,
            latency: u64,
        }
        let table: [Metric<Node>; 4] = [
            Metric {
                key: "jobs",
                name: "jobs_total",
                help: "Jobs.",
                read: Read::Counter(|n| n.jobs),
            },
            Metric {
                key: "uptime_ms",
                name: "uptime_ms",
                help: "Uptime.",
                read: Read::NodeGauge(|n| n.uptime),
            },
            Metric {
                key: "rate",
                name: "rate",
                help: "Rate.",
                read: Read::Ratio(|n| n.rate),
            },
            Metric {
                key: "latency_us",
                name: "latency_us",
                help: "Latency.",
                read: Read::Histogram(|n| {
                    let mut hist = Log2Histogram::new();
                    hist.record(n.latency);
                    (hist, n.latency)
                }),
            },
        ];
        let node = |jobs, latency| Node {
            jobs,
            uptime: 7,
            rate: 0.5,
            latency,
        };
        // Shards travel as `stats` docs and are parsed back.
        let nodes: Vec<Snapshot> = [node(2, 10), node(3, 1000)]
            .iter()
            .map(|n| {
                let doc = Value::Object(Snapshot::take(&table, n).doc_fields());
                Snapshot::parse(&table, &doc)
            })
            .collect();
        let router = Snapshot::take(&table[..2], &node(1, 0));
        let fleet = Snapshot::fleet(&table, &nodes, &router);
        assert_eq!(
            fleet.int("jobs"),
            2 + 3 + 1,
            "counters sum, the router's own included"
        );
        assert_eq!(
            fleet.int("uptime_ms"),
            7,
            "a node value is the router's own"
        );
        assert_eq!(
            fleet.get("rate"),
            None,
            "a node value the router lacks is left out"
        );
        let Some(Sample::Histogram(hist, _)) = fleet.get("latency_us") else {
            panic!("fleet lost the histogram");
        };
        assert_eq!(
            (hist.total(), hist.max()),
            (2, 1000),
            "histograms merge exactly"
        );
        let keys: Vec<String> = fleet.doc_fields().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["jobs", "uptime_ms", "latency_us"], "table order");
    }

    #[test]
    fn prom_label_escaping() {
        assert_eq!(prom_label_escape("a\"b\\c"), "a\\\"b\\\\c");
    }
}
