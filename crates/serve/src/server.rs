//! The daemon: accept loop, per-connection protocol, and job execution.
//!
//! Memory discipline: a job upload flows socket → connection thread →
//! bounded chunk channel → [`StreamIngest`]. The connection thread reads
//! one protocol line at a time (at most
//! [`MAX_LINE_BYTES`](crate::proto::MAX_LINE_BYTES)) and gathers whole
//! lines into chunks of up to [`CHUNK_BYTES`]; at most
//! [`CHUNKS_IN_FLIGHT`] chunks wait for the worker, so a job's in-flight
//! upload memory is bounded by [`MAX_INGEST_BYTES`] whatever the upload's
//! length. [`StreamIngest`] keeps each benchmark's reference request
//! trace (one op per frontend request) and one size entry per distinct
//! trace id of the stream being ingested — peak memory is that plus the
//! chunk window, independent of how many model streams and cache-side
//! event lines the export carries. When the worker stalls, the channel
//! fills, the connection thread blocks in `send`, the socket's receive
//! window closes, and backpressure reaches the client as plain TCP flow
//! control. Queue-level backpressure is separate: admission uses a
//! non-blocking submit, and a full queue is answered with a `busy` frame
//! (HTTP 429 in spirit) instead of an ever-growing backlog.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{
    render_sim_tables, resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions, StreamIngest,
};
use gencache_bench::stream_events_to;
use gencache_sim::par::effective_jobs;
use gencache_sim::stream::{bounded, Receiver, Sender};
use gencache_sim::{RecorderOptions, StreamedRecording, DEFAULT_STREAM_DEPTH};
use gencache_workloads::benchmark;
use serde::Value;

use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{
    encode_busy, encode_end, encode_error, encode_metrics, encode_pong, encode_result,
    encode_stats, encode_trace, encode_watch, is_control_line, line_cap_error, parse_request,
    read_line_capped, CappedLine, JobSpec, Request, WatchRow, MAX_LINE_BYTES,
};
use crate::signal;
use crate::stats::{ServerStats, DAEMON};
use crate::telemetry::{new_trace_id, LogLevel, Logger, Sample, Snapshot, Span, Telemetry};

/// How a [`Server`] is sized and bounded.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads; `None` defers to `GENCACHE_JOBS`, then the
    /// machine's available parallelism.
    pub workers: Option<usize>,
    /// Pending-job queue depth; `None` means twice the worker count.
    pub queue_depth: Option<usize>,
    /// Depth, in lines, of a `fetch` download's channel and of the
    /// streamed recorder behind it. Job uploads do not use it: they are
    /// bounded in bytes by [`MAX_INGEST_BYTES`].
    pub channel_depth: usize,
    /// Per-connection socket read timeout.
    pub read_timeout: Duration,
    /// Default per-job wall-clock budget in milliseconds (0 = none);
    /// a job's own `deadline_ms` overrides it.
    pub default_deadline_ms: u64,
    /// Structured log target: `None`/`"none"` disables, `"-"` is
    /// stderr, anything else is a file path.
    pub log: Option<String>,
    /// Minimum level a record needs to be written.
    pub log_level: LogLevel,
    /// Rotate a file log once it would exceed this many bytes (renamed
    /// to `<path>.1`, one generation kept). `None` grows without bound.
    pub log_max_bytes: Option<u64>,
    /// Spans retained in the trace ring; 0 disables tracing entirely.
    pub trace_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: None,
            queue_depth: None,
            channel_depth: DEFAULT_STREAM_DEPTH,
            read_timeout: Duration::from_secs(10),
            default_deadline_ms: 0,
            log: None,
            log_level: LogLevel::Warn,
            log_max_bytes: None,
            trace_capacity: crate::telemetry::DEFAULT_TRACE_CAPACITY,
        }
    }
}

/// Everything a connection thread needs, shared behind one `Arc`; the
/// source every [`DAEMON`] metric reads.
pub(crate) struct Ctx {
    pub(crate) pool: WorkerPool,
    pub(crate) stats: Arc<ServerStats>,
    shutdown: Arc<AtomicBool>,
    channel_depth: usize,
    read_timeout: Duration,
    default_deadline_ms: u64,
    pub(crate) telemetry: Arc<Telemetry>,
}

impl Ctx {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }
}

/// The simulation service daemon.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    pub(crate) ctx: Arc<Ctx>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pool", &self.pool)
            .field("channel_depth", &self.channel_depth)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds the listener and spawns the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(config: &ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let workers = effective_jobs(config.workers);
        let queue_depth = config.queue_depth.unwrap_or(workers * 2);
        let node = listener
            .local_addr()
            .map(|a| format!("serve:{a}"))
            .unwrap_or_else(|_| "serve".to_string());
        let logger = Logger::open_capped(
            "gencache-serve",
            config.log.as_deref(),
            config.log_level,
            config.log_max_bytes,
        )?;
        let ctx = Ctx {
            pool: WorkerPool::new(workers, queue_depth),
            stats: Arc::new(ServerStats::new()),
            shutdown: Arc::new(AtomicBool::new(false)),
            channel_depth: config.channel_depth.max(1),
            read_timeout: config.read_timeout,
            default_deadline_ms: config.default_deadline_ms,
            telemetry: Arc::new(Telemetry::new(&node, config.trace_capacity, logger)),
        };
        Ok(Server {
            listener,
            ctx: Arc::new(ctx),
        })
    }

    /// The bound address (resolves the ephemeral port).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A flag that stops the accept loop when set — how in-process tests
    /// shut the server down without a signal.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.ctx.shutdown)
    }

    /// Serves until the shutdown flag or a SIGTERM/SIGINT arrives, then
    /// drains: stop accepting, join live connections (bounded by the
    /// read timeout plus job deadlines), drain and join the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut conns: Vec<JoinHandle<()>> = Vec::new();
        loop {
            if self.ctx.draining() {
                break;
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    conns.retain(|h| !h.is_finished());
                    let ctx = Arc::clone(&self.ctx);
                    let handle = std::thread::Builder::new()
                        .name("gencache-conn".to_string())
                        .spawn(move || {
                            if let Err(e) = handle_connection(stream, &ctx) {
                                // A vanished client is routine, not a
                                // daemon failure.
                                if e.kind() != io::ErrorKind::BrokenPipe
                                    && e.kind() != io::ErrorKind::ConnectionReset
                                {
                                    ctx.telemetry.log().event(
                                        LogLevel::Error,
                                        "connection_error",
                                        None,
                                        &[("message", Value::Str(e.to_string()))],
                                    );
                                }
                            }
                        })
                        .expect("spawn connection thread");
                    conns.push(handle);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        self.ctx.telemetry.log().event(
            LogLevel::Info,
            "drain_start",
            None,
            &[(
                "in_flight",
                Value::UInt(self.ctx.pool.active() + self.ctx.pool.queue_len() as u64),
            )],
        );
        for handle in conns {
            let _ = handle.join();
        }
        self.ctx.pool.shutdown();
        self.ctx
            .telemetry
            .log()
            .event(LogLevel::Info, "drain_finish", None, &[]);
        Ok(())
    }
}

/// A connection thread hands a job's upload to the worker in chunks of
/// whole lines of at most this many bytes (a longer line goes alone),
/// sooner when the socket has nothing more buffered. Also the size of a
/// connection's read buffer.
pub const CHUNK_BYTES: usize = 64 * 1024;

/// Chunks that may wait in a job's ingest channel for the worker.
pub const CHUNKS_IN_FLIGHT: usize = 4;

/// The most chunk memory one job holds in flight: the queued chunks, the
/// one being filled and the one being ingested, each within one capped
/// line. That is 6 MiB with the 1 MiB line cap, and 6 × [`CHUNK_BYTES`]
/// when no line is longer than a chunk. The connection's read buffer and
/// the one line being read come on top.
pub const MAX_INGEST_BYTES: usize = (CHUNKS_IN_FLIGHT + 2) * MAX_LINE_BYTES;

/// What flows from the connection thread to the ingesting worker.
enum IngestItem {
    /// Whole export lines, each ending in `\n` (line endings already
    /// stripped and replaced).
    Chunk(String),
    /// The client's `end` frame: claimed line count for integrity.
    End { lines: u64 },
    /// The upload failed (read error, bad frame); the worker must not
    /// treat what it has as a complete export.
    Abort(String),
}

/// A finished job's outcome, handed back to the connection thread: the
/// encoded `result` line, which the worker builds so that the reply
/// thread only writes bytes, or the error message.
type JobOutcome = Result<String, String>;

fn send_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Reads and discards the rest of an upload after an early reply
/// (`busy`/`error`), so closing the socket cannot RST the reply out of
/// the client's receive buffer. Bounded: stops at EOF, any read error
/// (including the read timeout), or a 64 MiB cap.
pub(crate) fn drain_discard(reader: &mut impl Read) {
    let mut buf = [0u8; 8192];
    let mut total = 0u64;
    while total < 64 * 1024 * 1024 {
        match reader.read(&mut buf) {
            Ok(0) | Err(_) => return,
            Ok(n) => total += n as u64,
        }
    }
}

fn handle_connection(stream: TcpStream, ctx: &Ctx) -> io::Result<()> {
    ServerStats::bump(&ctx.stats.connections);
    stream.set_read_timeout(Some(ctx.read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::with_capacity(CHUNK_BYTES, stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut first = Vec::new();
    let line = match read_line_capped(&mut reader, &mut first)? {
        CappedLine::Eof => return Ok(()), // connected and left — nothing to do
        CappedLine::TooLong => {
            ServerStats::bump(&ctx.stats.lines_rejected);
            send_line(&mut writer, &encode_error(&line_cap_error()))?;
            drain_discard(&mut reader);
            return Ok(());
        }
        CappedLine::Line(line) => line.trim_end_matches(['\r', '\n']),
    };
    if !is_control_line(line) {
        return send_line(
            &mut writer,
            &encode_error("expected a control frame ({\"type\":...}) first"),
        );
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return send_line(&mut writer, &encode_error(&e)),
    };
    match request {
        Request::Stats => {
            let fields = Snapshot::take(&DAEMON, ctx).doc_fields();
            send_line(&mut writer, &encode_stats(Value::Object(fields)))
        }
        Request::Trace { trace_id } => {
            let spans: Vec<Value> = ctx
                .telemetry
                .spans_for(&trace_id)
                .iter()
                .map(Span::to_value)
                .collect();
            send_line(&mut writer, &encode_trace(&trace_id, Value::Array(spans)))
        }
        Request::Metrics => send_line(
            &mut writer,
            &encode_metrics(&Snapshot::take(&DAEMON, ctx).to_prometheus()),
        ),
        // Watch runs right here on the connection thread — a slow or
        // idle dashboard never occupies a worker slot.
        Request::Watch { interval_ms, count } => handle_watch(ctx, &mut writer, interval_ms, count),
        Request::End { .. } => {
            send_line(&mut writer, &encode_error("end frame outside a job upload"))
        }
        // Fleet-only frames: a plain daemon is not a router.
        Request::Shards | Request::Route { .. } => send_line(
            &mut writer,
            &encode_error("not a fleet router; ask a gencache-shard daemon"),
        ),
        Request::Ping { hold_ms } => handle_ping(ctx, &mut writer, hold_ms),
        Request::Job(spec) => {
            if ctx.draining() {
                return send_line(
                    &mut writer,
                    &encode_error("shutting down; not accepting new jobs"),
                );
            }
            handle_job(ctx, &mut reader, &mut writer, spec)
        }
        Request::Fetch { bench, scale } => {
            if ctx.draining() {
                return send_line(
                    &mut writer,
                    &encode_error("shutting down; not accepting new jobs"),
                );
            }
            handle_fetch(ctx, &mut writer, &bench, scale)
        }
    }
}

/// Streams `watch` snapshots every `interval_ms` until `count` frames
/// have been sent (0 = unbounded), the client hangs up, or the daemon
/// starts draining — then closes the stream with an `end` frame. Runs
/// on the connection thread; the sleep is chopped into short slices so
/// a drain is noticed within ~100ms.
fn handle_watch(
    ctx: &Ctx,
    writer: &mut impl Write,
    interval_ms: u64,
    count: u64,
) -> io::Result<()> {
    let interval = Duration::from_millis(interval_ms.clamp(50, 60_000));
    let mut prev = (Snapshot::take(&DAEMON, ctx), Instant::now());
    let mut sent = 0u64;
    loop {
        // One full interval elapses before each snapshot, so every
        // frame's rates cover a real window.
        let tick_end = Instant::now() + interval;
        while Instant::now() < tick_end {
            if ctx.draining() {
                return send_line(writer, &encode_end(sent));
            }
            let left = tick_end.saturating_duration_since(Instant::now());
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
        // The row's rates are counter differences between the previous
        // snapshot and this one; gauges and the latency quantiles (of
        // the cumulative job histogram) are read from this one.
        let cur = Snapshot::take(&DAEMON, ctx);
        let window = prev.1.elapsed();
        let secs = window.as_secs_f64().max(1e-9);
        let rate = |key| cur.int(key).saturating_sub(prev.0.int(key)) as f64 / secs;
        let quantile = |q| match cur.get("latency_us") {
            Some(Sample::Histogram(hist, _)) => hist.quantile(q),
            _ => 0,
        };
        let row = WatchRow {
            node: ctx.telemetry.node().to_string(),
            uptime_ms: cur.int("uptime_ms"),
            window_ms: window.as_millis() as u64,
            jobs_per_sec: rate("jobs_completed"),
            shed_per_sec: rate("jobs_rejected"),
            in_flight: cur.int("in_flight"),
            queue_depth: cur.int("queue_depth"),
            p50_us: quantile(0.5),
            p99_us: quantile(0.99),
            jobs_total: cur.int("jobs_completed"),
            window_miss_rate: match cur.get("window_miss_rate") {
                Some(Sample::Ratio(rate)) => *rate,
                _ => 0.0,
            },
            drift_events: cur.int("drift_events"),
        };
        prev = (cur, Instant::now());
        // A failed write means the dashboard hung up; nothing to tear
        // down — the stream owns no worker or channel.
        send_line(writer, &encode_watch(ctx.telemetry.node(), sent, &[row]))?;
        sent += 1;
        if count > 0 && sent >= count {
            return send_line(writer, &encode_end(sent));
        }
    }
}

fn handle_ping(ctx: &Ctx, writer: &mut impl Write, hold_ms: u64) -> io::Result<()> {
    let (done_tx, mut done_rx) = bounded::<()>(1);
    let job = Box::new(move || {
        if hold_ms > 0 {
            std::thread::sleep(Duration::from_millis(hold_ms));
        }
        let _ = done_tx.send(());
    });
    match ctx.pool.try_submit(job) {
        Ok(()) => {
            ServerStats::bump(&ctx.stats.jobs_accepted);
            done_rx.recv();
            ServerStats::bump(&ctx.stats.jobs_completed);
            send_line(writer, &encode_pong())
        }
        Err((_, SubmitError::Full)) => {
            ServerStats::bump(&ctx.stats.jobs_rejected);
            send_line(writer, &encode_busy(ctx.pool.queue_len() as u64))
        }
        Err((_, SubmitError::Closed)) => send_line(
            writer,
            &encode_error("shutting down; not accepting new jobs"),
        ),
    }
}

fn handle_job(
    ctx: &Ctx,
    reader: &mut BufReader<TcpStream>,
    writer: &mut (impl Write + Send),
    mut spec: JobSpec,
) -> io::Result<()> {
    // Every job gets a trace id: the client normally stamps one; a bare
    // frame gets a server-generated id so its spans are still findable.
    let trace_id = match &spec.trace_id {
        Some(id) => id.clone(),
        None => {
            let id = new_trace_id();
            spec.trace_id = Some(id.clone());
            id
        }
    };
    let deadline_ms = spec.deadline_ms.unwrap_or(ctx.default_deadline_ms);
    let deadline = (deadline_ms > 0).then(|| Duration::from_millis(deadline_ms));
    let (chunk_tx, chunk_rx) = bounded::<IngestItem>(CHUNKS_IN_FLIGHT);
    // Spent chunk buffers come back for reuse. A new one is made only
    // when none is spare, so at most CHUNKS_IN_FLIGHT + 2 exist at once
    // and the worker's return never finds this channel full.
    let (spent_tx, spent_rx) = bounded::<String>(CHUNKS_IN_FLIGHT + 2);
    let (reply_tx, reply_rx) = bounded::<JobOutcome>(1);
    // The deadline clock starts at admission, not at worker pickup —
    // time spent queued behind the bounded pool counts against the
    // budget, so a deadline'd job cannot wait unboundedly.
    let admitted = Instant::now();
    let tel = Arc::clone(&ctx.telemetry);
    let stats = Arc::clone(&ctx.stats);
    let job_trace = trace_id.clone();
    let job = Box::new(move || {
        run_job(
            &spec, chunk_rx, &spent_tx, &reply_tx, deadline, admitted, &tel, &stats, &job_trace,
        );
    });
    match ctx.pool.try_submit(job) {
        Err((_, SubmitError::Full)) => {
            ServerStats::bump(&ctx.stats.jobs_rejected);
            let depth = ctx.pool.queue_len() as u64;
            if let Some(sp) = ctx.telemetry.span(&trace_id, "accept", admitted) {
                sp.outcome("busy").end();
            }
            ctx.telemetry.log().event(
                LogLevel::Warn,
                "job_shed",
                Some(&trace_id),
                &[("queue_depth", Value::UInt(depth))],
            );
            send_line(writer, &encode_busy(depth))?;
            drain_discard(reader);
            return Ok(());
        }
        Err((_, SubmitError::Closed)) => {
            if let Some(sp) = ctx.telemetry.span(&trace_id, "accept", admitted) {
                sp.outcome("error: shutting down").end();
            }
            return send_line(
                writer,
                &encode_error("shutting down; not accepting new jobs"),
            );
        }
        Ok(()) => {}
    }
    ServerStats::bump(&ctx.stats.jobs_accepted);
    if let Some(sp) = ctx.telemetry.span(&trace_id, "accept", admitted) {
        sp.end();
    }
    ctx.telemetry.log().event(
        LogLevel::Info,
        "job_admitted",
        Some(&trace_id),
        &[
            ("queue_depth", Value::UInt(ctx.pool.queue_len() as u64)),
            ("deadline_ms", Value::UInt(deadline_ms)),
        ],
    );

    // The reply goes out from its own thread the moment the worker
    // settles the job, while this thread goes on reading the upload: a
    // client that stalls right after a malformed line is answered at
    // once, not when a read it never ends times out.
    std::thread::scope(|scope| {
        let replier = scope.spawn(|| send_reply(ctx, writer, reply_rx, &trace_id, admitted));
        forward_upload(ctx, reader, chunk_tx, spent_rx, deadline, admitted);
        let failed = replier
            .join()
            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))?;
        if failed {
            // An error reply can precede the rest of the upload; read it
            // off so closing cannot RST the reply away.
            drain_discard(reader);
        }
        Ok(())
    })
}

/// Forwards the upload to the worker in chunks of whole lines until the
/// end frame, a failure, or the worker hanging up; then closes the
/// channel.
fn forward_upload(
    ctx: &Ctx,
    reader: &mut BufReader<TcpStream>,
    chunk_tx: Sender<IngestItem>,
    mut spent_rx: Receiver<String>,
    deadline: Option<Duration>,
    admitted: Instant,
) {
    // Forward the upload in chunks of whole lines; the bounded send
    // blocks when the worker falls behind, which is exactly the
    // backpressure we want. A chunk goes out before a line that would
    // take it past CHUNK_BYTES, once the read buffer is drained (so a
    // trickling client's lines are as prompt as its writes), and before
    // the closing item (so the worker sees every line ahead of the end
    // or the failure). Before blocking on a drained buffer, a passed
    // deadline stops the reading: the worker fails the job as soon as
    // it receives the closing item, without the client's next write.
    // A blocking read waits no longer than the deadline has left, so a
    // client that stalls is answered at the deadline, not at the read
    // timeout.
    let deadline_error = || IngestItem::Abort("deadline exceeded during ingest".to_string());
    let mut read_timeout = ctx.read_timeout;
    let mut buf = Vec::new();
    let mut chunk = String::with_capacity(CHUNK_BYTES);
    let last = loop {
        if let Some(d) = deadline.filter(|_| reader.buffer().is_empty()) {
            let left = d.saturating_sub(admitted.elapsed());
            if left.is_zero() {
                break Some(deadline_error());
            }
            if left.min(ctx.read_timeout) != read_timeout {
                read_timeout = left.min(ctx.read_timeout);
                if let Err(e) = reader.get_ref().set_read_timeout(Some(read_timeout)) {
                    break Some(IngestItem::Abort(format!("upload read failed: {e}")));
                }
            }
        }
        let item = match read_line_capped(reader, &mut buf) {
            Ok(CappedLine::Eof) => IngestItem::Abort("connection closed mid-upload".to_string()),
            Ok(CappedLine::TooLong) => {
                ServerStats::bump(&ctx.stats.lines_rejected);
                IngestItem::Abort(line_cap_error())
            }
            Err(_) if deadline.is_some_and(|d| admitted.elapsed() >= d) => deadline_error(),
            Err(e) => IngestItem::Abort(format!("upload read failed: {e}")),
            Ok(CappedLine::Line(raw)) => {
                ServerStats::add(&ctx.stats.bytes_ingested, raw.len() as u64);
                let line = raw.trim_end_matches(['\r', '\n']);
                if is_control_line(line) {
                    match parse_request(line) {
                        Ok(Request::End { lines }) => IngestItem::End { lines },
                        Ok(_) => IngestItem::Abort(
                            "unexpected control frame inside an export upload".to_string(),
                        ),
                        Err(e) => IngestItem::Abort(e),
                    }
                } else {
                    // A failed send means the worker already gave up
                    // (deadline, malformed stream); its reply is waiting.
                    if chunk.len() + line.len() >= CHUNK_BYTES
                        && !send_chunk(&chunk_tx, &mut spent_rx, &mut chunk)
                    {
                        break None;
                    }
                    chunk.push_str(line);
                    chunk.push('\n');
                    if reader.buffer().is_empty()
                        && !send_chunk(&chunk_tx, &mut spent_rx, &mut chunk)
                    {
                        break None;
                    }
                    continue;
                }
            }
        };
        break Some(item);
    };
    if read_timeout != ctx.read_timeout {
        // A socket that refuses the option is broken; the reply write
        // reports that.
        let _ = reader.get_ref().set_read_timeout(Some(ctx.read_timeout));
    }
    if let Some(item) = last {
        if send_chunk(&chunk_tx, &mut spent_rx, &mut chunk) {
            let _ = chunk_tx.send(item);
        }
    }
}

/// Waits for the worker's outcome and writes the reply. Returns whether
/// the reply was an error, after which the rest of the upload is
/// drained.
fn send_reply(
    ctx: &Ctx,
    writer: &mut impl Write,
    mut reply_rx: Receiver<JobOutcome>,
    trace_id: &str,
    admitted: Instant,
) -> io::Result<bool> {
    match reply_rx.recv() {
        Some(Ok(line)) => {
            ServerStats::bump(&ctx.stats.jobs_completed);
            ctx.stats
                .record_latency(admitted.elapsed().as_micros() as u64);
            let reply_started = Instant::now();
            let sent = send_line(writer, &line);
            if let Some(sp) = ctx.telemetry.span(trace_id, "reply", reply_started) {
                let outcome = if sent.is_ok() {
                    "ok"
                } else {
                    "error: reply write failed"
                };
                sp.bytes(line.len() as u64 + 1).outcome(outcome).end();
            }
            sent.map(|()| false)
        }
        Some(Err(message)) => {
            ServerStats::bump(&ctx.stats.jobs_failed);
            ctx.telemetry.log().event(
                LogLevel::Warn,
                "job_failed",
                Some(trace_id),
                &[("message", Value::Str(message.clone()))],
            );
            let reply_started = Instant::now();
            let line = encode_error(&message);
            let sent = send_line(writer, &line);
            if let Some(sp) = ctx.telemetry.span(trace_id, "reply", reply_started) {
                sp.bytes(line.len() as u64 + 1).end();
            }
            sent.map(|()| true)
        }
        None => {
            ServerStats::bump(&ctx.stats.jobs_failed);
            send_line(writer, &encode_error("job worker terminated unexpectedly")).map(|()| false)
        }
    }
}

/// Hands the gathered lines to the worker as one chunk, then starts the
/// next in a spent buffer if one has come back. Returns `false` when the
/// worker has hung up.
fn send_chunk(tx: &Sender<IngestItem>, spent: &mut Receiver<String>, chunk: &mut String) -> bool {
    if chunk.is_empty() {
        return true;
    }
    if tx.send(IngestItem::Chunk(std::mem::take(chunk))).is_err() {
        return false;
    }
    *chunk = spent
        .try_recv()
        .unwrap_or_else(|| String::with_capacity(CHUNK_BYTES));
    true
}

/// The worker side of a job: bounded ingest, then the shared simulation
/// runner — the exact machinery behind offline `simulate`, so the reply
/// document is byte-identical to `simulate --metrics-out`.
#[allow(clippy::too_many_arguments)]
fn run_job(
    spec: &JobSpec,
    mut chunk_rx: Receiver<IngestItem>,
    spent_tx: &Sender<String>,
    reply_tx: &Sender<JobOutcome>,
    deadline: Option<Duration>,
    admitted: Instant,
    tel: &Telemetry,
    stats: &ServerStats,
    trace_id: &str,
) {
    let started = admitted;
    let picked_up = Instant::now();
    let fail = |message: String| {
        let _ = reply_tx.send(Err(message));
    };
    // A failing stage records its span with the error as the outcome, so
    // a trace of a failed job shows exactly where it died.
    let fail_stage = |stage: &str, stage_start: Instant, message: String| {
        if let Some(sp) = tel.span(trace_id, stage, stage_start) {
            sp.outcome(&format!("error: {message}")).end();
        }
        fail(message);
    };
    let log_deadline = |stage: &str| {
        tel.log().event(
            LogLevel::Warn,
            "deadline_exceeded",
            Some(trace_id),
            &[("stage", Value::Str(stage.to_string()))],
        );
    };
    // Dead on dequeue: the queue wait alone consumed the budget.
    if deadline.is_some_and(|d| started.elapsed() >= d) {
        log_deadline("queue");
        return fail_stage(
            "queue",
            admitted,
            format!(
                "deadline of {}ms exceeded",
                deadline.unwrap_or_default().as_millis()
            ),
        );
    }
    if let Some(sp) = tel.span(trace_id, "queue", admitted) {
        sp.dur(picked_up.saturating_duration_since(admitted)).end();
    }
    let ingest_started = Instant::now();
    let mut ingest = StreamIngest::new();
    let mut received = 0u64;
    let mut complete = false;
    while let Some(item) = chunk_rx.recv() {
        if deadline.is_some_and(|d| started.elapsed() >= d) {
            log_deadline("ingest");
            return fail_stage(
                "ingest",
                ingest_started,
                "deadline exceeded during ingest".to_string(),
            );
        }
        match item {
            IngestItem::Chunk(mut chunk) => {
                for line in chunk.split_terminator('\n') {
                    received += 1;
                    if let Err(e) = ingest.push_line(line) {
                        return fail_stage("ingest", ingest_started, e);
                    }
                }
                // A buffer one long line grew far past the chunk size is
                // freed rather than kept for the rest of the upload.
                if chunk.capacity() <= 2 * CHUNK_BYTES {
                    chunk.clear();
                    let _ = spent_tx.try_send(chunk);
                }
            }
            IngestItem::End { lines } => {
                if lines != received {
                    return fail_stage(
                        "ingest",
                        ingest_started,
                        format!(
                            "upload truncated: client sent {lines} export lines, received {received}"
                        ),
                    );
                }
                complete = true;
                break;
            }
            IngestItem::Abort(reason) => return fail_stage("ingest", ingest_started, reason),
        }
    }
    // Dropping the receiver here unblocks a connection thread still
    // stuck in `send` on a full channel.
    drop(chunk_rx);
    if !complete {
        return fail_stage(
            "ingest",
            ingest_started,
            "upload ended without an end frame".to_string(),
        );
    }
    if let Some(sp) = tel.span(trace_id, "ingest", ingest_started) {
        sp.lines(ingest.lines()).bytes(ingest.bytes()).end();
    }
    let inputs =
        match ingest.into_inputs(spec.bench.as_deref(), spec.model.as_deref(), spec.capacity) {
            Ok(i) => i,
            Err(e) => return fail(e),
        };
    let specs = match resolve_sim_specs(&spec.specs, spec.grid) {
        Ok(s) => s,
        Err(e) => return fail(e),
    };

    // Replay with a watchdog flipping the cancel flag at the deadline;
    // the runner polls it between (benchmark, spec) cells.
    let replay_started = Instant::now();
    let cancel = AtomicBool::new(false);
    let done = AtomicBool::new(false);
    let (cancel, done) = (&cancel, &done);
    let outcome = std::thread::scope(|scope| {
        if let Some(d) = deadline {
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    if started.elapsed() >= d {
                        cancel.store(true, Ordering::Relaxed);
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
        }
        // Within one job the pool's width is the concurrency budget, so
        // the replay itself runs single-threaded.
        let options = SimJobOptions {
            oracle: spec.oracle,
            windows: spec.windows,
            window_width: spec.window_width,
            regret_top: spec.regret_top.map(|t| t as usize),
        };
        let outcome = run_sim_job(&inputs, &specs, options, 1, Some(cancel));
        done.store(true, Ordering::Relaxed);
        outcome
    });
    match outcome {
        Ok(out) => {
            // Feed the windowed-telemetry gauges: the job's final
            // window's miss rate and its total drift annotations.
            if spec.windows {
                let mut drift = 0u64;
                let mut rate = 0.0;
                for bench in &out.benches {
                    for sim in &bench.sims {
                        if let Some(w) = &sim.reports.windows {
                            drift += w.annotations.len() as u64;
                            if let Some(last) = w.windows.last() {
                                rate = last.miss_rate();
                            }
                        }
                    }
                }
                stats.record_windows(rate, drift);
            }
            // One span per spec: the sum of that spec's replay cells
            // across all benchmarks, timed inside `run_sim_job`.
            if tel.tracing() {
                for (si, label) in out.labels.iter().enumerate() {
                    let cell_total: u64 = out
                        .benches
                        .iter()
                        .map(|b| b.cell_us.get(si).copied().unwrap_or(0))
                        .sum();
                    if let Some(sp) = tel.span(trace_id, &format!("replay:{label}"), replay_started)
                    {
                        sp.dur(Duration::from_micros(cell_total)).end();
                    }
                }
            }
            let line = encode_result(
                sim_metrics_doc(&out),
                &render_sim_tables(&out),
                out.benches.len() as u64,
                out.labels.len() as u64,
                started.elapsed().as_micros() as u64,
            );
            let _ = reply_tx.send(Ok(line));
        }
        Err(e) => {
            if cancel.load(Ordering::Relaxed) {
                log_deadline("replay");
                fail_stage(
                    "replay",
                    replay_started,
                    format!(
                        "deadline of {}ms exceeded",
                        deadline.unwrap_or_default().as_millis()
                    ),
                );
            } else {
                fail_stage("replay", replay_started, e);
            }
        }
    }
}

/// Adapts the bounded channel into an `io::Write` so the streamed
/// export writer can feed a socket-bound download line by line.
struct ChannelWriter {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl ChannelWriter {
    fn new(tx: Sender<String>) -> Self {
        ChannelWriter {
            tx,
            buf: Vec::new(),
        }
    }

    fn send(&mut self, upto: usize) -> io::Result<()> {
        let line = String::from_utf8_lossy(&self.buf[..upto]).into_owned();
        self.buf.drain(..=upto);
        self.tx
            .send(line)
            .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "download receiver dropped"))
    }
}

impl Write for ChannelWriter {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            self.send(pos)?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

fn handle_fetch(ctx: &Ctx, writer: &mut impl Write, bench: &str, scale: u64) -> io::Result<()> {
    let (line_tx, mut line_rx) = bounded::<String>(ctx.channel_depth);
    let bench_name = bench.to_string();
    let depth = ctx.channel_depth;
    let job = Box::new(move || {
        let Some(profile) = benchmark(&bench_name) else {
            let _ = line_tx.send(encode_error(&format!("unknown benchmark {bench_name:?}")));
            return;
        };
        let profile = if scale > 1 {
            profile.scaled_down(scale)
        } else {
            profile
        };
        let rec = match StreamedRecording::probe(&profile, RecorderOptions::default(), depth) {
            Ok(r) => r,
            Err(e) => {
                let _ = line_tx.send(encode_error(&format!("{bench_name}: {e:?}")));
                return;
            }
        };
        let runs = vec![(profile, rec)];
        match stream_events_to(ChannelWriter::new(line_tx.clone()), &runs) {
            Ok((w, lines)) => {
                drop(w);
                let _ = line_tx.send(encode_end(lines));
            }
            Err(_) => {
                // Receiver vanished: the client hung up; nothing to do.
            }
        }
    });
    match ctx.pool.try_submit(job) {
        Err((_, SubmitError::Full)) => {
            ServerStats::bump(&ctx.stats.jobs_rejected);
            return send_line(writer, &encode_busy(ctx.pool.queue_len() as u64));
        }
        Err((_, SubmitError::Closed)) => {
            return send_line(
                writer,
                &encode_error("shutting down; not accepting new jobs"),
            );
        }
        Ok(()) => {}
    }
    ServerStats::bump(&ctx.stats.jobs_accepted);
    let mut failed = false;
    while let Some(line) = line_rx.recv() {
        // Counters track export payload, not the trailing control frame.
        if !is_control_line(&line) {
            ServerStats::bump(&ctx.stats.lines_served);
        }
        if send_line(writer, &line).is_err() {
            // Client hung up; dropping the receiver aborts the worker's
            // next send.
            failed = true;
            break;
        }
    }
    if failed {
        ServerStats::bump(&ctx.stats.jobs_failed);
    } else {
        ServerStats::bump(&ctx.stats.jobs_completed);
    }
    Ok(())
}
