//! The daemon's answers to the shared front end ([`crate::front`]):
//! pool admission, upload forwarding, the job worker, the recorder-backed
//! `fetch`, its `watch` row and pool-routed `ping`.
//!
//! Every queue here is a `std::sync::mpsc::sync_channel`. Memory
//! discipline: a job upload flows socket → connection thread → bounded
//! chunk channel → [`StreamIngest`]. The connection thread reads
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

use std::io::{self, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::AtomicBool;
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{
    render_sim_tables, resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions, StreamIngest,
};
use gencache_bench::stream_events_to;
use gencache_sim::par::effective_jobs;
use gencache_sim::{RecorderOptions, StreamedRecording, DEFAULT_STREAM_DEPTH};
use gencache_workloads::benchmark;
use serde::Value;

use crate::front::{
    self, drain_discard, reply, Conn, Front, Node, UploadLine, UploadReader, SHUTTING_DOWN,
};
use crate::pool::{SubmitError, WorkerPool};
use crate::proto::{
    encode_busy, encode_end, encode_error, encode_pong, encode_result, is_control_line, JobSpec,
    WatchRow, MAX_LINE_BYTES,
};
use crate::stats::{ServerStats, DAEMON};
use crate::telemetry::{LogLevel, Metric, Sample, Snapshot, Telemetry};

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
    pub(crate) front: Front,
    pub(crate) pool: WorkerPool,
    pub(crate) stats: Arc<ServerStats>,
    default_deadline_ms: u64,
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
        let (listener, front) = Front::bind::<Ctx>(
            &config.addr,
            config.read_timeout,
            config.log.as_deref(),
            config.log_level,
            config.log_max_bytes,
            config.trace_capacity,
        )?;
        let workers = effective_jobs(config.workers);
        let ctx = Ctx {
            front,
            pool: WorkerPool::new(workers, config.queue_depth.unwrap_or(workers * 2)),
            stats: Arc::new(ServerStats::new()),
            default_deadline_ms: config.default_deadline_ms,
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
        Arc::clone(&self.ctx.front.shutdown)
    }

    /// Serves until the shutdown flag or a SIGTERM/SIGINT arrives, then
    /// drains: stop accepting, join live connections (bounded by the
    /// read timeout plus job deadlines), drain and join the worker pool.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        front::run(self.listener, &self.ctx, || self.ctx.pool.shutdown())
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
    /// The client's `end` frame, its line count already checked.
    End,
    /// The upload failed (read error, bad frame); the worker must not
    /// treat what it has as a complete export.
    Abort(String),
}

/// A finished job's outcome, handed back to the connection thread: the
/// encoded `result` line, which the worker builds so that the reply
/// thread only writes bytes, or the error message.
type JobOutcome = Result<String, String>;

impl Node for Ctx {
    const KIND: &'static str = "serve";
    const COMPONENT: &'static str = "gencache-serve";
    const METRICS: &'static [Metric<Ctx>] = &DAEMON;

    fn front(&self) -> &Front {
        &self.front
    }

    /// A ping holds a worker slot for `hold_ms`, so it meets the pool's
    /// admission exactly as a job does.
    fn ping(&self, hold_ms: u64) -> String {
        let (done_tx, done_rx) = sync_channel::<()>(1);
        let job = Box::new(move || {
            if hold_ms > 0 {
                std::thread::sleep(Duration::from_millis(hold_ms));
            }
            let _ = done_tx.send(());
        });
        match self.pool.try_submit(job) {
            Ok(()) => {
                ServerStats::bump(&self.stats.jobs_accepted);
                let _ = done_rx.recv();
                ServerStats::bump(&self.stats.jobs_completed);
                encode_pong()
            }
            Err((_, SubmitError::Full)) => {
                ServerStats::bump(&self.stats.jobs_rejected);
                encode_busy(self.pool.queue_len())
            }
            Err((_, SubmitError::Closed)) => encode_error(SHUTTING_DOWN),
        }
    }

    fn job(&self, conn: &mut Conn, spec: JobSpec, trace_id: String) -> io::Result<()> {
        let deadline_ms = spec.deadline_ms.unwrap_or(self.default_deadline_ms);
        let (chunk_tx, chunk_rx) = sync_channel::<IngestItem>(CHUNKS_IN_FLIGHT);
        // Spent chunk buffers come back for reuse. A new one is made only
        // when none is spare, so at most CHUNKS_IN_FLIGHT + 2 exist at once
        // and the worker's return never finds this channel full.
        let (spent_tx, spent_rx) = sync_channel::<String>(CHUNKS_IN_FLIGHT + 2);
        let (reply_tx, reply_rx) = sync_channel::<JobOutcome>(1);
        // The deadline clock starts at admission, not at worker pickup —
        // time spent queued behind the bounded pool counts against the
        // budget, so a deadline'd job cannot wait unboundedly.
        let admitted = Instant::now();
        let deadline = (deadline_ms > 0).then(|| admitted + Duration::from_millis(deadline_ms));
        let tel = Arc::clone(&self.front.telemetry);
        let stats = Arc::clone(&self.stats);
        let job_trace = trace_id.clone();
        let job = Box::new(move || {
            run_job(
                &spec, chunk_rx, &spent_tx, &reply_tx, deadline, admitted, &tel, &stats, &job_trace,
            );
        });
        let tel = &self.front.telemetry;
        match self.pool.try_submit(job) {
            Err((_, SubmitError::Full)) => {
                ServerStats::bump(&self.stats.jobs_rejected);
                let depth = self.pool.queue_len();
                if let Some(sp) = tel.span(&trace_id, "accept", admitted) {
                    sp.outcome("busy").end();
                }
                tel.log().event(
                    LogLevel::Warn,
                    "job_shed",
                    Some(&trace_id),
                    &[("queue_depth", Value::UInt(depth))],
                );
                return conn.refuse(&encode_busy(depth));
            }
            Err((_, SubmitError::Closed)) => {
                if let Some(sp) = tel.span(&trace_id, "accept", admitted) {
                    sp.outcome("error: shutting down").end();
                }
                return conn.send_error(SHUTTING_DOWN);
            }
            Ok(()) => {}
        }
        ServerStats::bump(&self.stats.jobs_accepted);
        if let Some(sp) = tel.span(&trace_id, "accept", admitted) {
            sp.end();
        }
        tel.log().event(
            LogLevel::Info,
            "job_admitted",
            Some(&trace_id),
            &[
                ("queue_depth", Value::UInt(self.pool.queue_len())),
                ("deadline_ms", Value::UInt(deadline_ms)),
            ],
        );

        // The reply goes out from its own thread the moment the worker
        // settles the job, while this thread goes on reading the upload: a
        // client that stalls right after a malformed line is answered at
        // once, not when a read it never ends times out.
        let Conn { reader, writer } = conn;
        std::thread::scope(|scope| {
            let replier = scope.spawn(|| send_reply(self, writer, reply_rx, &trace_id, admitted));
            forward_upload(self, reader, chunk_tx, spent_rx, deadline);
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

    fn fetch(&self, conn: &mut Conn, bench: &str, scale: u64) -> io::Result<()> {
        let (line_tx, line_rx) = sync_channel::<String>(DEFAULT_STREAM_DEPTH);
        let bench_name = bench.to_string();
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
            let rec = match StreamedRecording::probe(
                &profile,
                RecorderOptions::default(),
                DEFAULT_STREAM_DEPTH,
            ) {
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
        match self.pool.try_submit(job) {
            Err((_, SubmitError::Full)) => {
                ServerStats::bump(&self.stats.jobs_rejected);
                return conn.send(&encode_busy(self.pool.queue_len()));
            }
            Err((_, SubmitError::Closed)) => return conn.send_error(SHUTTING_DOWN),
            Ok(()) => {}
        }
        ServerStats::bump(&self.stats.jobs_accepted);
        let mut failed = false;
        while let Ok(line) = line_rx.recv() {
            // Counters track export payload, not the trailing control frame.
            if !is_control_line(&line) {
                ServerStats::bump(&self.stats.lines_served);
            }
            if conn.send(&line).is_err() {
                // Client hung up; dropping the receiver aborts the worker's
                // next send.
                failed = true;
                break;
            }
        }
        if failed {
            ServerStats::bump(&self.stats.jobs_failed);
        } else {
            ServerStats::bump(&self.stats.jobs_completed);
        }
        Ok(())
    }

    /// One row per tick: counter rates over the tick, gauges and the
    /// latency quantiles (of the cumulative job histogram) at its end.
    fn watch(&self, conn: &mut Conn, interval_ms: u64, count: u64) -> io::Result<()> {
        let mut prev = (Snapshot::take(&DAEMON, self), Instant::now());
        let rows = move |_: Duration| {
            let cur = Snapshot::take(&DAEMON, self);
            let window = prev.1.elapsed();
            let secs = window.as_secs_f64().max(1e-9);
            let rate = |key| cur.int(key).saturating_sub(prev.0.int(key)) as f64 / secs;
            let quantile = |q| match cur.get("latency_us") {
                Some(Sample::Histogram(hist, _)) => hist.quantile(q),
                _ => 0,
            };
            let row = WatchRow {
                node: self.front.telemetry.node().to_string(),
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
            Ok(vec![row])
        };
        conn.watch(&self.front, interval_ms, count, Duration::ZERO, rows)
    }

    fn drain_start(&self, _connections: usize) -> (&'static str, u64) {
        ("in_flight", self.pool.active() + self.pool.queue_len())
    }
}

/// Forwards the upload to the worker in chunks of whole lines until the
/// end frame, a failure, or the worker hanging up; then closes the
/// channel.
fn forward_upload(
    ctx: &Ctx,
    reader: &mut BufReader<TcpStream>,
    chunk_tx: SyncSender<IngestItem>,
    spent_rx: Receiver<String>,
    deadline: Option<Instant>,
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
    // timeout; the worker answers any item it receives past the
    // deadline with the deadline error.
    let max_timeout = ctx.front.read_timeout;
    let mut read_timeout = max_timeout;
    let mut upload = UploadReader::default();
    let mut chunk = String::with_capacity(CHUNK_BYTES);
    let last = loop {
        if let Some(d) = deadline.filter(|_| reader.buffer().is_empty()) {
            let left = d.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Some(IngestItem::Abort(
                    "deadline exceeded during ingest".to_string(),
                ));
            }
            if left.min(max_timeout) != read_timeout {
                read_timeout = left.min(max_timeout);
                if let Err(e) = reader.get_ref().set_read_timeout(Some(read_timeout)) {
                    break Some(IngestItem::Abort(format!("upload read failed: {e}")));
                }
            }
        }
        let (wire_bytes, line) = upload.next(reader, &ctx.front.lines_rejected);
        ServerStats::add(&ctx.stats.bytes_ingested, wire_bytes);
        let line = match line {
            UploadLine::Export(line) => line,
            UploadLine::End => break Some(IngestItem::End),
            UploadLine::Failed(message) => break Some(IngestItem::Abort(message)),
        };
        // A failed send means the worker already gave up (deadline,
        // malformed stream); its reply is waiting.
        if chunk.len() + line.len() >= CHUNK_BYTES && !send_chunk(&chunk_tx, &spent_rx, &mut chunk)
        {
            break None;
        }
        chunk.push_str(line);
        chunk.push('\n');
        if reader.buffer().is_empty() && !send_chunk(&chunk_tx, &spent_rx, &mut chunk) {
            break None;
        }
    };
    if read_timeout != max_timeout {
        // A socket that refuses the option is broken; the reply write
        // reports that.
        let _ = reader.get_ref().set_read_timeout(Some(max_timeout));
    }
    if let Some(item) = last {
        if send_chunk(&chunk_tx, &spent_rx, &mut chunk) {
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
    reply_rx: Receiver<JobOutcome>,
    trace_id: &str,
    admitted: Instant,
) -> io::Result<bool> {
    let tel = &ctx.front.telemetry;
    let outcome = reply_rx
        .recv()
        .unwrap_or_else(|_| Err("job worker terminated unexpectedly".to_string()));
    let (line, failed) = match outcome {
        Ok(line) => {
            ServerStats::bump(&ctx.stats.jobs_completed);
            ctx.stats
                .record_latency(admitted.elapsed().as_micros() as u64);
            (line, None)
        }
        Err(message) => {
            ServerStats::bump(&ctx.stats.jobs_failed);
            tel.log().event(
                LogLevel::Warn,
                "job_failed",
                Some(trace_id),
                &[("message", Value::Str(message.clone()))],
            );
            (encode_error(&message), Some(message))
        }
    };
    let failed = failed.as_deref();
    reply(writer, tel, trace_id, Instant::now(), &line, failed).map(|()| failed.is_some())
}

/// Hands the gathered lines to the worker as one chunk, then starts the
/// next in a spent buffer if one has come back. Returns `false` when the
/// worker has hung up.
fn send_chunk(tx: &SyncSender<IngestItem>, spent: &Receiver<String>, chunk: &mut String) -> bool {
    if chunk.is_empty() {
        return true;
    }
    if tx.send(IngestItem::Chunk(std::mem::take(chunk))).is_err() {
        return false;
    }
    *chunk = spent
        .try_recv()
        .unwrap_or_else(|_| String::with_capacity(CHUNK_BYTES));
    true
}

/// The worker side of a job: bounded ingest, then the shared simulation
/// runner — the exact machinery behind offline `simulate`, so the reply
/// document is byte-identical to `simulate --metrics-out`.
#[allow(clippy::too_many_arguments)]
fn run_job(
    spec: &JobSpec,
    chunk_rx: Receiver<IngestItem>,
    spent_tx: &SyncSender<String>,
    reply_tx: &SyncSender<JobOutcome>,
    deadline: Option<Instant>,
    admitted: Instant,
    tel: &Telemetry,
    stats: &ServerStats,
    trace_id: &str,
) {
    let picked_up = Instant::now();
    let expired = || deadline.is_some_and(|d| Instant::now() >= d);
    let deadline_error = || {
        let budget = deadline.map_or(Duration::ZERO, |d| d.duration_since(admitted));
        format!("deadline of {}ms exceeded", budget.as_millis())
    };
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
    if expired() {
        log_deadline("queue");
        return fail_stage("queue", admitted, deadline_error());
    }
    if let Some(sp) = tel.span(trace_id, "queue", admitted) {
        sp.dur(picked_up.saturating_duration_since(admitted)).end();
    }
    let ingest_started = Instant::now();
    let mut ingest = StreamIngest::new();
    let mut complete = false;
    while let Ok(item) = chunk_rx.recv() {
        if expired() {
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
            IngestItem::End => {
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

    // Within one job the pool's width is the concurrency budget, so the
    // replay itself runs single-threaded; the runner checks the deadline
    // between (benchmark, spec) cells.
    let replay_started = Instant::now();
    let options = SimJobOptions {
        oracle: spec.oracle,
        windows: spec.windows,
        window_width: spec.window_width,
        regret_top: spec.regret_top.map(|t| t as usize),
    };
    match run_sim_job(&inputs, &specs, options, 1, deadline) {
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
            // The doc is written once, straight from the reports into
            // the reply line.
            let assemble_started = Instant::now();
            let line = encode_result(
                sim_metrics_doc(&out),
                &render_sim_tables(&out),
                out.benches.len() as u64,
                out.labels.len() as u64,
                admitted.elapsed().as_micros() as u64,
            );
            if let Some(sp) = tel.span(trace_id, "assemble", assemble_started) {
                sp.bytes(line.len() as u64).end();
            }
            let _ = reply_tx.send(Ok(line));
        }
        Err(e) => {
            if expired() {
                log_deadline("replay");
                fail_stage("replay", replay_started, deadline_error());
            } else {
                fail_stage("replay", replay_started, e);
            }
        }
    }
}

/// Adapts a bounded channel into an `io::Write` so the streamed
/// export writer can feed a socket-bound download line by line.
struct ChannelWriter {
    tx: SyncSender<String>,
    buf: Vec<u8>,
}

impl ChannelWriter {
    fn new(tx: SyncSender<String>) -> Self {
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

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn worker_hanging_up_is_answered_like_any_failed_job() {
        let config = ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        };
        let server = Server::bind(&config).unwrap();
        let (reply_tx, reply_rx) = sync_channel::<JobOutcome>(1);
        drop(reply_tx);
        let mut wire = Vec::new();
        let failed =
            send_reply(&server.ctx, &mut wire, reply_rx, "hangup", Instant::now()).unwrap();
        assert!(failed, "an error reply drains the rest of the upload");
        let message = "job worker terminated unexpectedly";
        assert_eq!(
            String::from_utf8(wire).unwrap(),
            format!("{}\n", encode_error(message))
        );
        let spans = server.ctx.front.telemetry.spans_for("hangup");
        assert!(
            spans
                .iter()
                .any(|s| s.stage == "reply" && s.outcome == format!("error: {message}")),
            "reply span must carry the error: {spans:?}"
        );
        assert_eq!(server.ctx.stats.jobs_failed.load(Ordering::Relaxed), 1);
    }
}
