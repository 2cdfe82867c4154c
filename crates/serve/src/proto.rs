//! The wire protocol: line-delimited JSON over TCP.
//!
//! Every frame is one LF-terminated line. Control frames are JSON
//! objects whose **first key is `type`** — `{"type":...}` — which can
//! never collide with v2 export lines (the header serializes with
//! `schema` first, run metadata and event records with `source` first),
//! so a connection can interleave control frames and raw export lines
//! with a one-token prefix test and no re-parsing. See
//! `docs/PROTOCOL.md` for the full framing and lifecycle contract.

use std::io::{self, BufRead, Read};

use serde::{Deserialize, Entries, JsonReader, Serialize, Value};

use crate::telemetry::new_trace_id;

/// The longest line, newline included, a daemon reads from a client:
/// far above any export line or control frame, and a bound on what one
/// line can make a connection hold in memory. A longer line is answered
/// with [`line_cap_error`] and counted in the `lines_rejected` stat.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// The error a daemon answers an oversize line with; it names the cap.
pub fn line_cap_error() -> String {
    format!("line longer than the {MAX_LINE_BYTES}-byte line cap")
}

/// One line read by [`read_line_capped`].
#[derive(Debug, PartialEq, Eq)]
pub enum CappedLine<'b> {
    /// The stream ended before any byte of a line.
    Eof,
    /// A line, with its line ending if it had one.
    Line(&'b str),
    /// The line reached [`MAX_LINE_BYTES`] without a newline. The rest
    /// of it is still unread.
    TooLong,
}

/// Reads one line into `buf` (cleared first), reading at most
/// [`MAX_LINE_BYTES`] bytes. Invalid UTF-8 is an `InvalidData` error, as
/// from `BufRead::read_line`.
pub fn read_line_capped<'b>(
    reader: &mut impl BufRead,
    buf: &'b mut Vec<u8>,
) -> io::Result<CappedLine<'b>> {
    buf.clear();
    let n = reader
        .by_ref()
        .take(MAX_LINE_BYTES as u64)
        .read_until(b'\n', buf)?;
    if n == 0 {
        return Ok(CappedLine::Eof);
    }
    if n == MAX_LINE_BYTES && buf.last() != Some(&b'\n') {
        return Ok(CappedLine::TooLong);
    }
    std::str::from_utf8(buf).map(CappedLine::Line).map_err(|_| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            "stream did not contain valid UTF-8",
        )
    })
}

/// Prefix every control frame starts with (after optional whitespace).
pub const CONTROL_PREFIX: &str = "{\"type\":";

/// Returns `true` if `line` is a control frame rather than an export
/// line.
pub fn is_control_line(line: &str) -> bool {
    line.trim_start().starts_with(CONTROL_PREFIX)
}

/// A parsed job submission header: which specs to simulate against the
/// export that follows, plus resource limits.
#[derive(Debug, Clone, Default)]
pub struct JobSpec {
    /// Spec labels (same grammar as `simulate --spec`); empty means the
    /// live export's default configurations.
    pub specs: Vec<String>,
    /// Add the §6 proportions × policy sweep grid.
    pub grid: bool,
    /// Add the Belady-style oracle lower-bound row.
    pub oracle: bool,
    /// Attach the windowed time-series/drift section to each simulated
    /// spec (the `simulate --windows` doc shape).
    pub windows: bool,
    /// Window width in accesses for the windowed section; `None` keeps
    /// the default (the timeline sample interval).
    pub window_width: Option<u64>,
    /// Cap on regret contributors kept per phase and in the run total;
    /// `None` keeps the default cap.
    pub regret_top: Option<u64>,
    /// Cache-budget override in bytes.
    pub capacity: Option<u64>,
    /// Restrict to one benchmark of the export.
    pub bench: Option<String>,
    /// Which model stream's run metadata fixes capacity/duration.
    pub model: Option<String>,
    /// Per-job wall-clock budget in milliseconds; `None` defers to the
    /// server's default, `Some(0)` disables the deadline.
    pub deadline_ms: Option<u64>,
    /// Trace id for end-to-end job tracing. Stamped by the client when
    /// absent, propagated verbatim by the fleet router to every backend
    /// sub-job, and generated server-side as a last resort — so every
    /// span of one job carries the same id.
    pub trace_id: Option<String>,
}

impl JobSpec {
    /// The job's trace id, stamping a fresh one into the spec first when
    /// it has none.
    pub fn stamp_trace_id(&mut self) -> String {
        self.trace_id.get_or_insert_with(new_trace_id).clone()
    }
}

/// One client request, decoded from a control frame.
#[derive(Debug, Clone)]
pub enum Request {
    /// Submit a simulation job; export lines follow, closed by
    /// [`Request::End`].
    Job(JobSpec),
    /// Terminates a job's export stream, carrying the number of export
    /// lines the client sent (an integrity check against truncation).
    End {
        /// Export lines the client claims to have sent.
        lines: u64,
    },
    /// Ask for the daemon's counters.
    Stats,
    /// Health check that occupies a worker slot for `hold_ms`
    /// milliseconds before replying — the deterministic way to fill the
    /// pool in backpressure tests.
    Ping {
        /// Milliseconds the worker holds its slot before replying.
        hold_ms: u64,
    },
    /// Record a benchmark server-side (through the bounded-channel
    /// streamed record path) and stream its v2 export back.
    Fetch {
        /// Benchmark name (any of the 38 calibrated profiles).
        bench: String,
        /// Footprint divisor (1 = full scale).
        scale: u64,
    },
    /// Ask a fleet router for its shard table and health view. Plain
    /// daemons answer with `error` (unknown type pre-fleet builds) or a
    /// single-entry table.
    Shards,
    /// Ask a fleet router which shard a benchmark routes to — how tests
    /// and operators inspect the consistent-hash placement.
    Route {
        /// Benchmark name to resolve.
        bench: String,
    },
    /// Ask for the recent spans recorded for a trace id. A fleet router
    /// stitches its own spans with those of every live shard.
    Trace {
        /// The trace id to look up.
        trace_id: String,
    },
    /// Ask for counters/gauges/histograms rendered in Prometheus text
    /// exposition format.
    Metrics,
    /// Subscribe to the daemon's live service time-series: the server
    /// streams one `watch` snapshot frame per tick until `count`
    /// snapshots have been sent (0 = until the client hangs up or the
    /// server drains), then closes with an `end` frame.
    Watch {
        /// Milliseconds between snapshots (clamped server-side).
        interval_ms: u64,
        /// Snapshots to stream; 0 means unbounded.
        count: u64,
    },
}

/// One node's service-rate sample inside a `watch` snapshot. A plain
/// daemon reports exactly one row; a fleet router stitches one row per
/// live shard (marking itself as `node`-prefixed rows' origin).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WatchRow {
    /// Node label (listen address or operator-chosen name).
    pub node: String,
    /// Milliseconds since the node started serving.
    pub uptime_ms: u64,
    /// Width of the sampling window in milliseconds (the interval the
    /// rates below are computed over).
    pub window_ms: u64,
    /// Jobs completed per second over the window.
    pub jobs_per_sec: f64,
    /// Jobs shed (busy replies) per second over the window.
    pub shed_per_sec: f64,
    /// Jobs executing right now.
    pub in_flight: u64,
    /// Jobs queued right now.
    pub queue_depth: u64,
    /// Median job latency in microseconds (cumulative histogram).
    pub p50_us: u64,
    /// 99th-percentile job latency in microseconds (cumulative).
    pub p99_us: u64,
    /// Jobs completed since the node started.
    pub jobs_total: u64,
    /// Last windowed-simulation final-window miss rate this node saw
    /// (0 until a `windows: true` job completes).
    pub window_miss_rate: f64,
    /// Drift annotations accumulated across windowed jobs.
    pub drift_events: u64,
}

fn field<'v>(pairs: &'v [(String, Value)], name: &str) -> Option<&'v Value> {
    pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

fn as_bool(v: &Value) -> Option<bool> {
    match v {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn opt_str(pairs: &[(String, Value)], name: &str) -> Result<Option<String>, String> {
    match field(pairs, name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_str(v)
            .map(|s| Some(s.to_string()))
            .ok_or_else(|| format!("field {name:?} must be a string")),
    }
}

fn opt_u64(pairs: &[(String, Value)], name: &str) -> Result<Option<u64>, String> {
    match field(pairs, name) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => as_u64(v)
            .map(Some)
            .ok_or_else(|| format!("field {name:?} must be a non-negative integer")),
    }
}

fn opt_bool(pairs: &[(String, Value)], name: &str) -> Result<bool, String> {
    match field(pairs, name) {
        None | Some(Value::Null) => Ok(false),
        Some(v) => as_bool(v).ok_or_else(|| format!("field {name:?} must be a boolean")),
    }
}

/// Decodes one control frame.
///
/// # Errors
///
/// Returns a description of malformed JSON, a missing/unknown `type`,
/// or a field of the wrong shape. The daemon turns this into an
/// `error` reply without dropping other connections.
pub fn parse_request(line: &str) -> Result<Request, String> {
    let value = serde_json::value_from_str(line).map_err(|e| format!("malformed frame: {e}"))?;
    let pairs = value
        .as_object()
        .ok_or_else(|| "control frame must be a JSON object".to_string())?;
    let ty = field(pairs, "type")
        .and_then(as_str)
        .ok_or_else(|| "control frame needs a string \"type\" field".to_string())?;
    match ty {
        "job" => {
            let specs = match field(pairs, "specs") {
                None | Some(Value::Null) => Vec::new(),
                Some(v) => v
                    .as_array()
                    .ok_or_else(|| "field \"specs\" must be an array of labels".to_string())?
                    .iter()
                    .map(|s| {
                        as_str(s)
                            .map(str::to_string)
                            .ok_or_else(|| "field \"specs\" must contain strings".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            };
            Ok(Request::Job(JobSpec {
                specs,
                grid: opt_bool(pairs, "grid")?,
                oracle: opt_bool(pairs, "oracle")?,
                windows: opt_bool(pairs, "windows")?,
                window_width: opt_u64(pairs, "window_width")?,
                regret_top: opt_u64(pairs, "regret_top")?,
                capacity: opt_u64(pairs, "capacity")?,
                bench: opt_str(pairs, "bench")?,
                model: opt_str(pairs, "model")?,
                deadline_ms: opt_u64(pairs, "deadline_ms")?,
                trace_id: opt_str(pairs, "trace_id")?,
            }))
        }
        "end" => Ok(Request::End {
            lines: opt_u64(pairs, "lines")?
                .ok_or_else(|| "end frame needs a \"lines\" count".to_string())?,
        }),
        "stats" => Ok(Request::Stats),
        "ping" => Ok(Request::Ping {
            hold_ms: opt_u64(pairs, "hold_ms")?.unwrap_or(0),
        }),
        "fetch" => Ok(Request::Fetch {
            bench: opt_str(pairs, "bench")?
                .ok_or_else(|| "fetch frame needs a \"bench\" name".to_string())?,
            scale: opt_u64(pairs, "scale")?.unwrap_or(1).max(1),
        }),
        "shards" => Ok(Request::Shards),
        "route" => Ok(Request::Route {
            bench: opt_str(pairs, "bench")?
                .ok_or_else(|| "route frame needs a \"bench\" name".to_string())?,
        }),
        "trace" => Ok(Request::Trace {
            trace_id: opt_str(pairs, "trace_id")?
                .ok_or_else(|| "trace frame needs a \"trace_id\"".to_string())?,
        }),
        "metrics" => Ok(Request::Metrics),
        "watch" => Ok(Request::Watch {
            interval_ms: opt_u64(pairs, "interval_ms")?.unwrap_or(1000),
            count: opt_u64(pairs, "count")?.unwrap_or(0),
        }),
        other => Err(format!("unknown request type {other:?}")),
    }
}

/// One server reply, decoded from a control frame by the client.
#[derive(Debug, Clone)]
pub enum Reply {
    /// A completed job: the metrics document (as its canonical JSON
    /// text) plus the rendered result tables.
    Result {
        /// The metrics document, serialized exactly as
        /// `simulate --metrics-out` writes it (no trailing newline).
        doc: String,
        /// Human-readable per-benchmark tables.
        table: String,
        /// Benchmarks simulated.
        benches: u64,
        /// Specs evaluated per benchmark.
        specs: u64,
        /// Job wall-clock in microseconds.
        elapsed_us: u64,
    },
    /// The job queue is full — retry later (HTTP 429 in spirit).
    Busy {
        /// Queue occupancy when the job was shed.
        queue_depth: u64,
    },
    /// The request failed; the connection closes after this frame.
    Error {
        /// What went wrong.
        message: String,
    },
    /// Counter snapshot (the `stats` document as canonical JSON text).
    Stats {
        /// The serialized stats document.
        doc: String,
    },
    /// Ping acknowledgement.
    Pong,
    /// A fleet router's shard table (as canonical JSON text): one entry
    /// per backend with address, health, and routing counters.
    Shards {
        /// The serialized shard-table document.
        doc: String,
    },
    /// Consistent-hash placement for one benchmark.
    Route {
        /// The benchmark asked about.
        bench: String,
        /// Address of the shard currently preferred for it.
        addr: String,
    },
    /// Recent spans for a trace id (stitched across the fleet when
    /// answered by a router).
    Trace {
        /// The trace id asked about.
        trace_id: String,
        /// The span array as canonical JSON text.
        doc: String,
    },
    /// Prometheus text exposition document.
    Metrics {
        /// The full exposition body (multi-line text).
        body: String,
    },
    /// One live service-rate snapshot of a `watch` stream.
    Watch {
        /// Node that assembled the snapshot (router or daemon).
        node: String,
        /// Snapshot sequence number within the stream (from 0).
        seq: u64,
        /// One row per node covered by the snapshot.
        rows: Vec<WatchRow>,
    },
}

fn obj(pairs: Vec<(&str, Value)>) -> Value {
    Value::Object(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn render(value: &(impl Serialize + ?Sized)) -> String {
    gencache_bench::value_to_json(value)
}

/// Encodes a `result` reply frame. The reply's own fields come first,
/// then `"doc":` and the document's bytes, written once, straight from
/// `doc` (a [`MetricsDoc`](gencache_bench::MetricsDoc) is never a tree),
/// as the last field. [`parse_reply`] hands those bytes back verbatim, so
/// the client recovers the exact `simulate --metrics-out` text.
pub fn encode_result(
    doc: impl Serialize,
    table: &str,
    benches: u64,
    specs: u64,
    elapsed_us: u64,
) -> String {
    render(&Entries(vec![
        ("type", &"result"),
        ("benches", &benches),
        ("specs", &specs),
        ("elapsed_us", &elapsed_us),
        ("table", &table),
        ("doc", &doc),
    ]))
}

/// Encodes a `busy` reply frame.
pub fn encode_busy(queue_depth: u64) -> String {
    render(&obj(vec![
        ("type", Value::Str("busy".to_string())),
        ("queue_depth", Value::UInt(queue_depth)),
    ]))
}

/// Encodes an `error` reply frame.
pub fn encode_error(message: &str) -> String {
    render(&obj(vec![
        ("type", Value::Str("error".to_string())),
        ("message", Value::Str(message.to_string())),
    ]))
}

/// Encodes a `stats` reply frame around an assembled snapshot document.
pub fn encode_stats(snapshot: Value) -> String {
    render(&obj(vec![
        ("type", Value::Str("stats".to_string())),
        ("stats", snapshot),
    ]))
}

/// Encodes a `pong` reply frame.
pub fn encode_pong() -> String {
    render(&obj(vec![("type", Value::Str("pong".to_string()))]))
}

/// Encodes the `end` frame terminating a streamed export (job upload or
/// `fetch` download).
pub fn encode_end(lines: u64) -> String {
    render(&obj(vec![
        ("type", Value::Str("end".to_string())),
        ("lines", Value::UInt(lines)),
    ]))
}

/// Encodes a `job` request frame.
pub fn encode_job(spec: &JobSpec) -> String {
    let mut pairs = vec![
        ("type", Value::Str("job".to_string())),
        (
            "specs",
            Value::Array(spec.specs.iter().map(|s| Value::Str(s.clone())).collect()),
        ),
        ("grid", Value::Bool(spec.grid)),
        ("oracle", Value::Bool(spec.oracle)),
    ];
    if spec.windows {
        // Pushed only when set so frames sent to pre-windows daemons
        // keep the exact bytes they already accept.
        pairs.push(("windows", Value::Bool(true)));
    }
    if let Some(w) = spec.window_width {
        pairs.push(("window_width", Value::UInt(w)));
    }
    if let Some(t) = spec.regret_top {
        pairs.push(("regret_top", Value::UInt(t)));
    }
    if let Some(c) = spec.capacity {
        pairs.push(("capacity", Value::UInt(c)));
    }
    if let Some(b) = &spec.bench {
        pairs.push(("bench", Value::Str(b.clone())));
    }
    if let Some(m) = &spec.model {
        pairs.push(("model", Value::Str(m.clone())));
    }
    if let Some(d) = spec.deadline_ms {
        pairs.push(("deadline_ms", Value::UInt(d)));
    }
    if let Some(t) = &spec.trace_id {
        pairs.push(("trace_id", Value::Str(t.clone())));
    }
    render(&obj(pairs))
}

/// Encodes a `stats` request frame.
pub fn encode_stats_request() -> String {
    render(&obj(vec![("type", Value::Str("stats".to_string()))]))
}

/// Encodes a `ping` request frame.
pub fn encode_ping(hold_ms: u64) -> String {
    render(&obj(vec![
        ("type", Value::Str("ping".to_string())),
        ("hold_ms", Value::UInt(hold_ms)),
    ]))
}

/// Encodes a `shards` request frame.
pub fn encode_shards_request() -> String {
    render(&obj(vec![("type", Value::Str("shards".to_string()))]))
}

/// Encodes a `shards` reply frame around an assembled shard-table
/// document.
pub fn encode_shards(table: Value) -> String {
    render(&obj(vec![
        ("type", Value::Str("shards".to_string())),
        ("shards", table),
    ]))
}

/// Encodes a `route` request frame.
pub fn encode_route_request(bench: &str) -> String {
    render(&obj(vec![
        ("type", Value::Str("route".to_string())),
        ("bench", Value::Str(bench.to_string())),
    ]))
}

/// Encodes a `route` reply frame.
pub fn encode_route(bench: &str, addr: &str) -> String {
    render(&obj(vec![
        ("type", Value::Str("route".to_string())),
        ("bench", Value::Str(bench.to_string())),
        ("addr", Value::Str(addr.to_string())),
    ]))
}

/// Encodes a `trace` request frame.
pub fn encode_trace_request(trace_id: &str) -> String {
    render(&obj(vec![
        ("type", Value::Str("trace".to_string())),
        ("trace_id", Value::Str(trace_id.to_string())),
    ]))
}

/// Encodes a `trace` reply frame around a span array value.
pub fn encode_trace(trace_id: &str, spans: Value) -> String {
    render(&obj(vec![
        ("type", Value::Str("trace".to_string())),
        ("trace_id", Value::Str(trace_id.to_string())),
        ("spans", spans),
    ]))
}

/// Encodes a `metrics` request frame.
pub fn encode_metrics_request() -> String {
    render(&obj(vec![("type", Value::Str("metrics".to_string()))]))
}

/// Encodes a `metrics` reply frame; the Prometheus text body travels as
/// one JSON string (newlines escaped) so the frame stays a single line.
pub fn encode_metrics(body: &str) -> String {
    render(&obj(vec![
        ("type", Value::Str("metrics".to_string())),
        ("body", Value::Str(body.to_string())),
    ]))
}

/// Encodes a `watch` request frame.
pub fn encode_watch_request(interval_ms: u64, count: u64) -> String {
    render(&obj(vec![
        ("type", Value::Str("watch".to_string())),
        ("interval_ms", Value::UInt(interval_ms)),
        ("count", Value::UInt(count)),
    ]))
}

/// Encodes one `watch` snapshot frame.
pub fn encode_watch(node: &str, seq: u64, rows: &[WatchRow]) -> String {
    render(&obj(vec![
        ("type", Value::Str("watch".to_string())),
        ("node", Value::Str(node.to_string())),
        ("seq", Value::UInt(seq)),
        (
            "rows",
            Value::Array(rows.iter().map(|r| r.to_value()).collect()),
        ),
    ]))
}

/// Encodes a `fetch` request frame.
pub fn encode_fetch(bench: &str, scale: u64) -> String {
    render(&obj(vec![
        ("type", Value::Str("fetch".to_string())),
        ("bench", Value::Str(bench.to_string())),
        ("scale", Value::UInt(scale)),
    ]))
}

/// Decodes one reply frame (client side). A `result` reply's `doc` is
/// returned as the exact bytes it arrived as, never re-rendered.
///
/// # Errors
///
/// Returns a description of malformed JSON or an unknown reply type.
pub fn parse_reply(line: &str) -> Result<Reply, String> {
    if let Some((pairs, doc)) = scan_reply(line) {
        return reply_from(&pairs, doc.map(str::to_string));
    }
    // Whatever the scan refuses takes the tree path, the source of
    // every error text.
    let value = serde_json::value_from_str(line).map_err(|e| format!("malformed reply: {e}"))?;
    let pairs = value
        .as_object()
        .ok_or_else(|| "reply must be a JSON object".to_string())?;
    reply_from(pairs, field(pairs, "doc").map(render))
}

/// A reply's top-level fields other than `doc`, and the text of its
/// first `doc` field.
type ScannedReply<'a> = (Vec<(String, Value)>, Option<&'a str>);

/// Reads a reply's top-level object: every field but `doc` as a tree,
/// and the first `doc` field's value as the slice of `line` it spans.
/// `None` on any scan error. The reader accepts exactly the text the
/// tree parse accepts, so a frame it reads yields the same fields.
fn scan_reply(line: &str) -> Option<ScannedReply<'_>> {
    let mut reader = JsonReader::new(line);
    reader.begin_object().ok()?;
    let mut pairs = Vec::new();
    let mut doc = None;
    let mut first = true;
    while let Some(key) = reader.next_key(first).ok()? {
        first = false;
        if key == "doc" {
            // Past any whitespace, so the slice starts at the value.
            reader.peek();
            let start = reader.position();
            reader.skip_value().ok()?;
            doc.get_or_insert(&line[start..reader.position()]);
        } else {
            pairs.push((key.into_owned(), reader.parse_value().ok()?));
        }
    }
    reader.finish().ok()?;
    Some((pairs, doc))
}

/// Builds a reply from its top-level fields; `doc` is a `result`
/// reply's document text.
fn reply_from(pairs: &[(String, Value)], doc: Option<String>) -> Result<Reply, String> {
    let ty = field(pairs, "type")
        .and_then(as_str)
        .ok_or_else(|| "reply needs a string \"type\" field".to_string())?;
    match ty {
        "result" => Ok(Reply::Result {
            doc: doc.ok_or_else(|| "result reply needs a \"doc\" field".to_string())?,
            table: opt_str(pairs, "table")?.unwrap_or_default(),
            benches: opt_u64(pairs, "benches")?.unwrap_or(0),
            specs: opt_u64(pairs, "specs")?.unwrap_or(0),
            elapsed_us: opt_u64(pairs, "elapsed_us")?.unwrap_or(0),
        }),
        "busy" => Ok(Reply::Busy {
            queue_depth: opt_u64(pairs, "queue_depth")?.unwrap_or(0),
        }),
        "error" => Ok(Reply::Error {
            message: opt_str(pairs, "message")?.unwrap_or_default(),
        }),
        "stats" => Ok(Reply::Stats {
            doc: field(pairs, "stats")
                .map(render)
                .ok_or_else(|| "stats reply needs a \"stats\" field".to_string())?,
        }),
        "pong" => Ok(Reply::Pong),
        "shards" => Ok(Reply::Shards {
            doc: field(pairs, "shards")
                .map(render)
                .ok_or_else(|| "shards reply needs a \"shards\" field".to_string())?,
        }),
        "route" => Ok(Reply::Route {
            bench: opt_str(pairs, "bench")?.unwrap_or_default(),
            addr: opt_str(pairs, "addr")?.unwrap_or_default(),
        }),
        "trace" => Ok(Reply::Trace {
            trace_id: opt_str(pairs, "trace_id")?.unwrap_or_default(),
            doc: field(pairs, "spans")
                .map(render)
                .ok_or_else(|| "trace reply needs a \"spans\" field".to_string())?,
        }),
        "metrics" => Ok(Reply::Metrics {
            body: opt_str(pairs, "body")?
                .ok_or_else(|| "metrics reply needs a \"body\" field".to_string())?,
        }),
        "watch" => {
            let rows = field(pairs, "rows")
                .and_then(|v| v.as_array())
                .ok_or_else(|| "watch reply needs a \"rows\" array".to_string())?
                .iter()
                .map(|v| WatchRow::from_value(v).map_err(|e| format!("bad watch row: {e:?}")))
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Reply::Watch {
                node: opt_str(pairs, "node")?.unwrap_or_default(),
                seq: opt_u64(pairs, "seq")?.unwrap_or(0),
                rows,
            })
        }
        other => Err(format!("unknown reply type {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_are_read_under_the_cap() {
        let fits = "x".repeat(MAX_LINE_BYTES - 1);
        let text = format!("a\r\n{fits}\n{fits}yz\ntail");
        let mut reader = io::BufReader::new(text.as_bytes());
        let mut buf = Vec::new();
        let mut next = || read_line_capped(&mut reader, &mut buf).unwrap().owned();
        assert_eq!(next(), Some("a\r\n".to_string()));
        assert_eq!(next(), Some(format!("{fits}\n")));
        // One byte over: refused after the cap, and the rest of the line
        // stays unread.
        assert_eq!(next(), None);
        assert_eq!(next(), Some("z\n".to_string()));
        assert_eq!(next(), Some("tail".to_string()));
        assert_eq!(
            read_line_capped(&mut reader, &mut buf).unwrap(),
            CappedLine::Eof
        );
        let err = read_line_capped(&mut &b"\xff\n"[..], &mut buf).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(line_cap_error().contains("1048576-byte line cap"));
    }

    impl CappedLine<'_> {
        /// The line as an owned string, `None` when too long; panics at
        /// the end of the stream.
        fn owned(&self) -> Option<String> {
            match self {
                CappedLine::Line(line) => Some(line.to_string()),
                CappedLine::TooLong => None,
                CappedLine::Eof => panic!("unexpected end of stream"),
            }
        }
    }

    #[test]
    fn control_prefix_disambiguates_export_lines() {
        assert!(is_control_line("{\"type\":\"stats\"}"));
        assert!(is_control_line("  {\"type\":\"end\",\"lines\":3}"));
        // Export lines lead with "schema" or "source".
        assert!(!is_control_line(
            "{\"schema\":\"gencache-events\",\"version\":2}"
        ));
        assert!(!is_control_line(
            "{\"source\":\"gcc\",\"model\":\"unified\"}"
        ));
    }

    #[test]
    fn job_roundtrip() {
        let spec = JobSpec {
            specs: vec!["unified".to_string(), "30-20-50@evict5".to_string()],
            grid: true,
            oracle: true,
            windows: true,
            window_width: Some(512),
            regret_top: Some(8),
            capacity: Some(4096),
            bench: Some("word".to_string()),
            model: None,
            deadline_ms: Some(1500),
            trace_id: Some("cafe0123cafe0123".to_string()),
        };
        let line = encode_job(&spec);
        assert!(is_control_line(&line));
        match parse_request(&line).unwrap() {
            Request::Job(parsed) => {
                assert_eq!(parsed.specs, spec.specs);
                assert!(parsed.grid && parsed.oracle && parsed.windows);
                assert_eq!(parsed.window_width, Some(512));
                assert_eq!(parsed.regret_top, Some(8));
                assert_eq!(parsed.capacity, Some(4096));
                assert_eq!(parsed.bench.as_deref(), Some("word"));
                assert_eq!(parsed.model, None);
                assert_eq!(parsed.deadline_ms, Some(1500));
                assert_eq!(parsed.trace_id.as_deref(), Some("cafe0123cafe0123"));
            }
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn trace_and_metrics_frames_roundtrip() {
        match parse_request(&encode_trace_request("deadbeef")).unwrap() {
            Request::Trace { trace_id } => assert_eq!(trace_id, "deadbeef"),
            other => panic!("expected trace, got {other:?}"),
        }
        assert!(parse_request("{\"type\":\"trace\"}").is_err());
        assert!(matches!(
            parse_request(&encode_metrics_request()).unwrap(),
            Request::Metrics
        ));
        let spans = Value::Array(vec![Value::Object(vec![
            ("trace_id".to_string(), Value::Str("deadbeef".to_string())),
            ("stage".to_string(), Value::Str("accept".to_string())),
        ])]);
        let spans_json = gencache_bench::value_to_json(&spans);
        match parse_reply(&encode_trace("deadbeef", spans)).unwrap() {
            Reply::Trace { trace_id, doc } => {
                assert_eq!(trace_id, "deadbeef");
                assert_eq!(doc, spans_json);
            }
            other => panic!("expected trace, got {other:?}"),
        }
        let body = "# TYPE gencache_jobs_total counter\ngencache_jobs_total 3\n";
        match parse_reply(&encode_metrics(body)).unwrap() {
            Reply::Metrics { body: parsed } => assert_eq!(parsed, body),
            other => panic!("expected metrics, got {other:?}"),
        }
    }

    #[test]
    fn job_without_windows_keeps_pre_windows_bytes() {
        // The optional fields must stay off the wire when unset so old
        // daemons keep parsing new clients' default frames.
        let line = encode_job(&JobSpec::default());
        assert!(!line.contains("windows"));
        assert!(!line.contains("window_width"));
        assert!(!line.contains("regret_top"));
        match parse_request(&line).unwrap() {
            Request::Job(parsed) => assert!(!parsed.windows),
            other => panic!("expected job, got {other:?}"),
        }
    }

    #[test]
    fn watch_frames_roundtrip() {
        match parse_request(&encode_watch_request(250, 4)).unwrap() {
            Request::Watch { interval_ms, count } => {
                assert_eq!((interval_ms, count), (250, 4));
            }
            other => panic!("expected watch, got {other:?}"),
        }
        // Missing fields fall back to a 1s cadence, unbounded stream.
        match parse_request("{\"type\":\"watch\"}").unwrap() {
            Request::Watch { interval_ms, count } => {
                assert_eq!((interval_ms, count), (1000, 0));
            }
            other => panic!("expected watch, got {other:?}"),
        }
        let row = WatchRow {
            node: "127.0.0.1:7070".to_string(),
            uptime_ms: 12_345,
            window_ms: 250,
            jobs_per_sec: 8.5,
            shed_per_sec: 0.25,
            in_flight: 2,
            queue_depth: 1,
            p50_us: 900,
            p99_us: 45_000,
            jobs_total: 77,
            window_miss_rate: 0.0625,
            drift_events: 3,
        };
        match parse_reply(&encode_watch("router", 9, std::slice::from_ref(&row))).unwrap() {
            Reply::Watch { node, seq, rows } => {
                assert_eq!(node, "router");
                assert_eq!(seq, 9);
                assert_eq!(rows, vec![row]);
            }
            other => panic!("expected watch, got {other:?}"),
        }
        assert!(parse_reply("{\"type\":\"watch\",\"node\":\"x\"}").is_err());
    }

    #[test]
    fn end_requires_line_count() {
        assert!(parse_request("{\"type\":\"end\"}").is_err());
        match parse_request(&encode_end(42)).unwrap() {
            Request::End { lines } => assert_eq!(lines, 42),
            other => panic!("expected end, got {other:?}"),
        }
    }

    #[test]
    fn malformed_and_unknown_frames_are_clean_errors() {
        assert!(parse_request("{nope").is_err());
        assert!(parse_request("[]").is_err());
        assert!(parse_request("{\"type\":\"launch-missiles\"}").is_err());
        assert!(parse_reply("{\"type\":\"shrug\"}").is_err());
    }

    #[test]
    fn shard_frames_roundtrip() {
        assert!(matches!(
            parse_request(&encode_shards_request()).unwrap(),
            Request::Shards
        ));
        match parse_request(&encode_route_request("word")).unwrap() {
            Request::Route { bench } => assert_eq!(bench, "word"),
            other => panic!("expected route, got {other:?}"),
        }
        assert!(parse_request("{\"type\":\"route\"}").is_err());
        let table = Value::Array(vec![Value::Object(vec![
            ("addr".to_string(), Value::Str("127.0.0.1:7777".to_string())),
            ("up".to_string(), Value::Bool(true)),
        ])]);
        let table_json = gencache_bench::value_to_json(&table);
        match parse_reply(&encode_shards(table)).unwrap() {
            Reply::Shards { doc } => assert_eq!(doc, table_json),
            other => panic!("expected shards, got {other:?}"),
        }
        match parse_reply(&encode_route("word", "127.0.0.1:7777")).unwrap() {
            Reply::Route { bench, addr } => {
                assert_eq!(bench, "word");
                assert_eq!(addr, "127.0.0.1:7777");
            }
            other => panic!("expected route, got {other:?}"),
        }
    }

    #[test]
    fn result_reply_roundtrips_doc_bytes() {
        let doc = Value::Object(vec![
            (
                "schema".to_string(),
                Value::Str("gencache-metrics".to_string()),
            ),
            ("version".to_string(), Value::UInt(2)),
        ]);
        let doc_json = gencache_bench::value_to_json(&doc);
        let line = encode_result(doc, "table\n", 1, 2, 3);
        match parse_reply(&line).unwrap() {
            Reply::Result {
                doc,
                table,
                benches,
                specs,
                elapsed_us,
            } => {
                assert_eq!(doc, doc_json);
                assert_eq!(table, "table\n");
                assert_eq!((benches, specs, elapsed_us), (1, 2, 3));
            }
            other => panic!("expected result, got {other:?}"),
        }
    }

    #[test]
    fn foreign_result_doc_is_returned_verbatim() {
        // Whitespace and number spellings inside the doc are kept as
        // sent; only the first `doc` field counts.
        let line = "{ \"type\" : \"result\", \"doc\" : {\"a\": 1e2} , \"doc\":0 }";
        match parse_reply(line).unwrap() {
            Reply::Result { doc, table, .. } => {
                assert_eq!(doc, "{\"a\": 1e2}");
                assert_eq!(table, "");
            }
            other => panic!("expected result, got {other:?}"),
        }
        // What the scan refuses gets the tree path's error text.
        for (line, want) in [
            ("[1]", "reply must be a JSON object"),
            (
                "{\"type\":\"result\"}",
                "result reply needs a \"doc\" field",
            ),
        ] {
            assert_eq!(parse_reply(line).unwrap_err(), want);
        }
        let err = parse_reply("{\"type\":\"result\",\"doc\":{\"a\":}}").unwrap_err();
        assert!(err.starts_with("malformed reply: "), "{err}");
    }

    /// A document grown from `seeds`: each seed picks a node and its
    /// contents, and a container takes its children from the seeds that
    /// follow, at most `depth` levels further down.
    fn doc_from(seeds: &mut impl Iterator<Item = u64>, depth: u32) -> Value {
        const TEXT: [&str; 6] = ["", "k", "q\"uo\\te/", "a\nb\tc\u{1}", "wörd 🦀", "doc"];
        let Some(seed) = seeds.next() else {
            return Value::Null;
        };
        let text = TEXT[(seed >> 8) as usize % TEXT.len()];
        let width = (seed >> 3) % 4;
        match seed % if depth == 0 { 6 } else { 8 } {
            0 => Value::Null,
            1 => Value::Bool(seed & 8 != 0),
            2 => Value::UInt(seed >> 3),
            3 => Value::Int(-1 - (seed >> 4) as i64),
            4 => Value::Float(f64::from_bits(seed)),
            5 => Value::Str(text.to_string()),
            6 => Value::Array((0..width).map(|_| doc_from(seeds, depth - 1)).collect()),
            _ => Value::Object(
                (0..width)
                    .map(|i| (format!("{text}{i}"), doc_from(seeds, depth - 1)))
                    .collect(),
            ),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The client gets back exactly the bytes the writer produced
        /// for the doc, whatever the doc holds.
        #[test]
        fn result_doc_arrives_as_the_writer_wrote_it(
            seeds in proptest::collection::vec(proptest::prelude::any::<u64>(), 1..48),
            table_seed in proptest::prelude::any::<u64>(),
        ) {
            let doc = doc_from(&mut seeds.into_iter(), 4);
            let table = format!("{:?}", doc_from(&mut std::iter::once(table_seed), 0));
            let line = encode_result(&doc, &table, 1, 2, 3);
            match parse_reply(&line) {
                Ok(Reply::Result { doc: text, table: back, .. }) => {
                    proptest::prop_assert_eq!(text, gencache_bench::value_to_json(&doc));
                    proptest::prop_assert_eq!(back, table);
                }
                other => proptest::prop_assert!(false, "got {:?}", other),
            }
        }
    }
}
