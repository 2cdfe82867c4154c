//! The protocol front end a daemon and a fleet router share: the accept
//! loop and drain, the first frame and the refusals both nodes give, the
//! upload line reader, job replies with their `reply` span, trace-id
//! stamping and the `watch` ticker. A node supplies only its own answers,
//! through [`Node`], so both nodes hold one set of input rules: every
//! line is capped, bad input gets an error frame, and an early reply is
//! followed by reading the rest of the request off the socket.

use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::Value;

use crate::proto::{
    encode_end, encode_error, encode_metrics, encode_pong, encode_route, encode_shards,
    encode_stats, encode_trace, encode_watch, is_control_line, line_cap_error, parse_request,
    read_line_capped, CappedLine, JobSpec, Request, WatchRow,
};
use crate::server::CHUNK_BYTES;
use crate::signal;
use crate::telemetry::{LogLevel, Logger, Metric, Snapshot, Span, Telemetry};

/// The refusal of a job or download once the node is draining.
pub(crate) const SHUTTING_DOWN: &str = "shutting down; not accepting new jobs";

/// The part of a node's state the front end runs on.
pub(crate) struct Front {
    /// Stops the accept loop when set; see [`Front::draining`].
    pub(crate) shutdown: Arc<AtomicBool>,
    /// Socket read timeout of every client connection.
    pub(crate) read_timeout: Duration,
    /// The node's span ring and structured log.
    pub(crate) telemetry: Arc<Telemetry>,
    /// Connections accepted.
    pub(crate) connections: AtomicU64,
    /// Lines refused for the line cap.
    pub(crate) lines_rejected: AtomicU64,
}

impl Front {
    /// Binds `addr` and opens the node's telemetry: spans carry the node
    /// name `KIND:addr`, log records the node's `COMPONENT`.
    pub(crate) fn bind<N: Node>(
        addr: &str,
        read_timeout: Duration,
        log: Option<&str>,
        log_level: LogLevel,
        log_max_bytes: Option<u64>,
        trace_capacity: usize,
    ) -> io::Result<(TcpListener, Front)> {
        let listener = TcpListener::bind(addr)?;
        let node = listener
            .local_addr()
            .map_or_else(|_| N::KIND.to_string(), |a| format!("{}:{a}", N::KIND));
        let logger = Logger::open_capped(N::COMPONENT, log, log_level, log_max_bytes)?;
        let front = Front {
            shutdown: Arc::new(AtomicBool::new(false)),
            read_timeout,
            telemetry: Arc::new(Telemetry::new(&node, trace_capacity, logger)),
            connections: AtomicU64::new(0),
            lines_rejected: AtomicU64::new(0),
        };
        Ok((listener, front))
    }

    /// Whether the node drains: its shutdown flag is set or a
    /// SIGTERM/SIGINT arrived.
    pub(crate) fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    /// The spans this node recorded for `trace_id`.
    pub(crate) fn spans(&self, trace_id: &str) -> Vec<Value> {
        let spans = self.telemetry.spans_for(trace_id);
        spans.iter().map(Span::to_value).collect()
    }

    /// Sleeps until `until` in slices of at most 100 ms, so a drain is
    /// noticed promptly. Returns `false` as soon as the node drains.
    pub(crate) fn wait_until(&self, until: Instant) -> bool {
        loop {
            if self.draining() {
                return false;
            }
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return true;
            }
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
    }
}

/// A plain daemon's answer to the fleet-only frames.
const NOT_A_ROUTER: &str = "not a fleet router; ask a gencache-shard daemon";

/// What one kind of node answers. The front end owns the rest of a
/// connection: it reads the first frame, refuses what both nodes refuse,
/// stamps a job's trace id and ticks `watch` streams. The provided
/// answers are a single node's; a router overrides them.
pub(crate) trait Node: Send + Sync + Sized + 'static {
    /// The node name's prefix, as spans and `watch` frames carry it.
    const KIND: &'static str;
    /// The component log records name; connection threads are named
    /// after it.
    const COMPONENT: &'static str;
    /// Every metric the node publishes.
    const METRICS: &'static [Metric<Self>];

    /// The node's front-end state.
    fn front(&self) -> &Front;
    /// Runs a job whose upload follows on `conn` and writes its reply.
    /// The front end has stamped `trace_id` into `spec`.
    fn job(&self, conn: &mut Conn, spec: JobSpec, trace_id: String) -> io::Result<()>;
    /// Streams a benchmark's export down `conn`.
    fn fetch(&self, conn: &mut Conn, bench: &str, scale: u64) -> io::Result<()>;
    /// Streams `watch` frames down `conn` through [`Conn::watch`].
    fn watch(&self, conn: &mut Conn, interval_ms: u64, count: u64) -> io::Result<()>;

    /// The `stats` doc.
    fn stats(&self) -> Value {
        Value::Object(Snapshot::take(Self::METRICS, self).doc_fields())
    }
    /// The spans recorded for `trace_id`.
    fn trace(&self, trace_id: &str) -> Value {
        Value::Array(self.front().spans(trace_id))
    }
    /// The reply line to a `ping`.
    fn ping(&self, _hold_ms: u64) -> String {
        encode_pong()
    }
    /// The shard table.
    fn shards(&self) -> Result<Value, String> {
        Err(NOT_A_ROUTER.to_string())
    }
    /// The address `bench` routes to.
    fn route(&self, _bench: &str) -> Result<String, String> {
        Err(NOT_A_ROUTER.to_string())
    }
    /// The one field `drain_start` logs, given the live connection
    /// threads.
    fn drain_start(&self, connections: usize) -> (&'static str, u64) {
        ("connections", connections as u64)
    }
}

/// Serves `node` until it drains, each connection on its own thread.
/// Draining stops the accepting, logs `drain_start`, joins every live
/// connection, runs `drained` and logs `drain_finish`.
///
/// # Errors
///
/// Propagates accept failures other than `WouldBlock`.
pub(crate) fn run<N: Node>(
    listener: TcpListener,
    node: &Arc<N>,
    drained: impl FnOnce(),
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let log = node.front().telemetry.log();
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !node.front().draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                conns.retain(|h| !h.is_finished());
                let node = Arc::clone(node);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-conn", N::COMPONENT))
                    .spawn(move || {
                        let Err(e) = connection(stream, &*node) else {
                            return;
                        };
                        // A vanished client is routine, not a node failure.
                        if !matches!(
                            e.kind(),
                            io::ErrorKind::BrokenPipe | io::ErrorKind::ConnectionReset
                        ) {
                            node.front().telemetry.log().event(
                                LogLevel::Error,
                                "connection_error",
                                None,
                                &[("message", Value::Str(e.to_string()))],
                            );
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
    let (key, value) = node.drain_start(conns.len());
    log.event(
        LogLevel::Info,
        "drain_start",
        None,
        &[(key, Value::UInt(value))],
    );
    for handle in conns {
        let _ = handle.join();
    }
    drained();
    log.event(LogLevel::Info, "drain_finish", None, &[]);
    Ok(())
}

/// One client connection: the read side, buffered by [`CHUNK_BYTES`],
/// and the write side.
pub(crate) struct Conn {
    pub(crate) reader: BufReader<TcpStream>,
    pub(crate) writer: BufWriter<TcpStream>,
}

impl Conn {
    /// Writes one reply line.
    pub(crate) fn send(&mut self, line: &str) -> io::Result<()> {
        send_line(&mut self.writer, line)
    }

    /// Writes an error frame.
    pub(crate) fn send_error(&mut self, message: &str) -> io::Result<()> {
        self.send(&encode_error(message))
    }

    /// Writes `line` before the request has been read to its end, then
    /// reads the rest off (see [`drain_discard`]).
    pub(crate) fn refuse(&mut self, line: &str) -> io::Result<()> {
        self.send(line)?;
        drain_discard(&mut self.reader);
        Ok(())
    }

    /// Streams `watch` frames every `interval_ms` milliseconds (clamped
    /// to 50 ms–60 s) until `count` have gone out (0 = unbounded), the
    /// client hangs up or the node drains, then closes the stream with
    /// an `end` frame. Each tick waits until `lead` (at most the
    /// interval) before its end, asks `rows` for the tick's rows with
    /// that lead, and sends them at the tick's end; an error from `rows`
    /// ends the stream with an error frame. Runs on the connection
    /// thread, so an idle dashboard holds no worker.
    pub(crate) fn watch(
        &mut self,
        front: &Front,
        interval_ms: u64,
        count: u64,
        lead: Duration,
        mut rows: impl FnMut(Duration) -> Result<Vec<WatchRow>, String>,
    ) -> io::Result<()> {
        let interval = Duration::from_millis(interval_ms.clamp(50, 60_000));
        let lead = lead.min(interval);
        let mut sent = 0u64;
        loop {
            let tick_end = Instant::now() + interval;
            if !front.wait_until(tick_end - lead) {
                break;
            }
            let rows = match rows(lead) {
                Ok(rows) => rows,
                Err(message) => return self.send_error(&message),
            };
            if !front.wait_until(tick_end) {
                break;
            }
            // A failed write means the dashboard hung up; the stream owns
            // no worker or channel to tear down.
            self.send(&encode_watch(front.telemetry.node(), sent, &rows))?;
            sent += 1;
            if count > 0 && sent >= count {
                break;
            }
        }
        self.send(&encode_end(sent))
    }
}

/// Writes one line and flushes it.
pub(crate) fn send_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
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

/// Writes a job's reply `line` and records its `reply` span, begun at
/// `started`, with the bytes written. The span's outcome is
/// `error: {message}` for a failed job given its `message`; otherwise it
/// says whether the write went through.
pub(crate) fn reply(
    writer: &mut impl Write,
    tel: &Telemetry,
    trace_id: &str,
    started: Instant,
    line: &str,
    failed: Option<&str>,
) -> io::Result<()> {
    let sent = send_line(writer, line);
    if let Some(span) = tel.span(trace_id, "reply", started) {
        let outcome = match (failed, &sent) {
            (Some(message), _) => format!("error: {message}"),
            (None, Ok(())) => "ok".to_string(),
            (None, Err(_)) => "error: reply write failed".to_string(),
        };
        span.bytes(line.len() as u64 + 1).outcome(&outcome).end();
    }
    sent
}

/// One line of a job upload, as [`UploadReader::next`] reads it.
pub(crate) enum UploadLine<'b> {
    /// An export line, its line ending stripped.
    Export(&'b str),
    /// The `end` frame, its count matching the export lines read.
    End,
    /// The upload failed; the text is the error reply's.
    Failed(String),
}

/// Reads a job upload after its `job` frame, one capped line at a time.
#[derive(Default)]
pub(crate) struct UploadReader {
    buf: Vec<u8>,
    /// Export lines read so far.
    pub(crate) lines: u64,
}

impl UploadReader {
    /// Reads the next line. Returns its length on the wire (0 when no
    /// line was read) and what it is. An oversize line counts in
    /// `lines_rejected`.
    pub(crate) fn next<'b>(
        &'b mut self,
        reader: &mut impl BufRead,
        lines_rejected: &AtomicU64,
    ) -> (u64, UploadLine<'b>) {
        let failed = |message: String| (0, UploadLine::Failed(message));
        let raw = match read_line_capped(reader, &mut self.buf) {
            Ok(CappedLine::Line(raw)) => raw,
            Ok(CappedLine::Eof) => return failed("connection closed mid-upload".to_string()),
            Ok(CappedLine::TooLong) => {
                lines_rejected.fetch_add(1, Ordering::Relaxed);
                return failed(line_cap_error());
            }
            Err(e) => return failed(format!("upload read failed: {e}")),
        };
        let line = raw.trim_end_matches(['\r', '\n']);
        let step = if !is_control_line(line) {
            self.lines += 1;
            UploadLine::Export(line)
        } else {
            match parse_request(line) {
                Ok(Request::End { lines }) if lines == self.lines => UploadLine::End,
                Ok(Request::End { lines }) => UploadLine::Failed(format!(
                    "upload truncated: client sent {lines} export lines, received {}",
                    self.lines
                )),
                Ok(_) => UploadLine::Failed(
                    "unexpected control frame inside an export upload".to_string(),
                ),
                Err(e) => UploadLine::Failed(e),
            }
        };
        (raw.len() as u64, step)
    }
}

/// One connection: the first frame, the refusals every node gives, then
/// the node's answer.
fn connection<N: Node>(stream: TcpStream, node: &N) -> io::Result<()> {
    let front = node.front();
    front.connections.fetch_add(1, Ordering::Relaxed);
    stream.set_read_timeout(Some(front.read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut conn = Conn {
        reader: BufReader::with_capacity(CHUNK_BYTES, stream.try_clone()?),
        writer: BufWriter::new(stream),
    };
    let mut first = Vec::new();
    let line = match read_line_capped(&mut conn.reader, &mut first)? {
        CappedLine::Eof => return Ok(()), // connected and left — nothing to do
        CappedLine::TooLong => {
            front.lines_rejected.fetch_add(1, Ordering::Relaxed);
            return conn.refuse(&encode_error(&line_cap_error()));
        }
        CappedLine::Line(line) => line.trim_end_matches(['\r', '\n']),
    };
    if !is_control_line(line) {
        return conn.send_error("expected a control frame ({\"type\":...}) first");
    }
    let request = match parse_request(line) {
        Ok(r) => r,
        Err(e) => return conn.send_error(&e),
    };
    match request {
        Request::Stats => conn.send(&encode_stats(node.stats())),
        Request::Metrics => {
            let body = Snapshot::take(N::METRICS, node).to_prometheus();
            conn.send(&encode_metrics(&body))
        }
        Request::Trace { trace_id } => conn.send(&encode_trace(&trace_id, node.trace(&trace_id))),
        Request::Ping { hold_ms } => conn.send(&node.ping(hold_ms)),
        Request::Shards => match node.shards() {
            Ok(table) => conn.send(&encode_shards(table)),
            Err(e) => conn.send_error(&e),
        },
        Request::Route { bench } => match node.route(&bench) {
            Ok(addr) => conn.send(&encode_route(&bench, &addr)),
            Err(e) => conn.send_error(&e),
        },
        Request::End { .. } => conn.send_error("end frame outside a job upload"),
        Request::Job(_) | Request::Fetch { .. } if front.draining() => {
            conn.send_error(SHUTTING_DOWN)
        }
        Request::Job(mut spec) => {
            // Every job gets a trace id: the client normally stamps one;
            // a bare frame gets one here, so its spans are still findable
            // and a router forwards it to every shard sub-job.
            let trace_id = spec.stamp_trace_id();
            node.job(&mut conn, spec, trace_id)
        }
        Request::Fetch { bench, scale } => node.fetch(&mut conn, &bench, scale),
        Request::Watch { interval_ms, count } => node.watch(&mut conn, interval_ms, count),
    }
}
