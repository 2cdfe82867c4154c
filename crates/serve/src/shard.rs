//! `gencache-shard`: the fleet router.
//!
//! A router daemon speaks the exact `gencache-serve` protocol on the
//! front and fans work out to N backend daemons on the back, so a
//! client cannot tell a fleet from a single node — except that capacity
//! scales with the shard count. The pieces:
//!
//! * **Consistent-hash routing.** Every `(benchmark, model)` stream
//!   group routes by its *benchmark* component (all model streams of a
//!   benchmark must land together — the backend verifies them against
//!   each other), through an FNV-1a ring with virtual nodes. Each
//!   benchmark has a deterministic preference order of shards; the
//!   first live one wins, so placement is stable while the fleet is
//!   healthy and moves minimally when a shard goes down.
//! * **Byte-identical merge.** A `job` upload is split per benchmark
//!   into per-shard sub-jobs (dispatched concurrently through
//!   [`par_map`]); the per-shard metrics documents are deserialized
//!   into typed reports and reassembled with the same
//!   input-index-deterministic merge offline `simulate` uses
//!   ([`merge_metrics_docs`]), so the fleet reply is byte-for-byte what
//!   a single node would have produced.
//! * **Health + retry.** A background thread pings every shard each
//!   `health_interval`, marking shards down and back up. Dispatch
//!   retries a `busy` shard with the shared capped-exponential
//!   [`RetryPolicy`], then fails over to the next-preferred shard;
//!   connection failures mark the shard down immediately and re-route.
//! * **Fleet stats.** A `stats` request aggregates every live shard's
//!   counters (summed) and log2 latency histograms (merged exactly),
//!   plus router-side routing counters and the shard health table.
//!
//! The router buffers a job upload in memory (per-benchmark line
//! groups) so a failed shard's share can be re-sent elsewhere — the
//! trade against the daemon's bounded-memory ingest is deliberate:
//! routers are few, shards are many, and retryability is what makes
//! mid-run shard loss invisible to the client.

use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, BufWriter, Cursor, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{classify_line, merge_metrics_docs, merge_sim_tables, RouteClass};
use gencache_sim::par::par_map;
use serde::Value;

use crate::client::Client;
use crate::proto::{
    encode_end, encode_error, encode_metrics, encode_pong, encode_result, encode_route,
    encode_shards, encode_stats, encode_trace, encode_watch, is_control_line, line_cap_error,
    parse_request, read_line_capped, CappedLine, JobSpec, Reply, Request, WatchRow,
};
use crate::retry::RetryPolicy;
use crate::server::drain_discard;
use crate::signal;
use crate::stats::DAEMON;
use crate::telemetry::{
    new_trace_id, prom_label_escape, LogLevel, Logger, Metric, Read, Snapshot, Span, Telemetry,
};

/// How a [`ShardRouter`] is sized and wired.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Backend `gencache-serve` addresses (`host:port`), at least one.
    pub backends: Vec<String>,
    /// Virtual nodes per backend on the hash ring — more replicas, finer
    /// balance.
    pub replicas: usize,
    /// Socket read timeout, applied to client connections and to every
    /// shard conversation.
    pub read_timeout: Duration,
    /// How often the health thread pings every shard.
    pub health_interval: Duration,
    /// Busy-retry policy per shard before failing over to the
    /// next-preferred one.
    pub retry: RetryPolicy,
    /// Structured log target: `None`/`"none"` disables, `"-"` is
    /// stderr, anything else is a file opened append-only.
    pub log: Option<String>,
    /// Minimum level a record needs to reach the log sink.
    pub log_level: LogLevel,
    /// Spans retained in the in-memory trace ring; 0 disables tracing.
    pub trace_capacity: usize,
    /// Rotate the log file once (to `<path>.1`) when it would exceed
    /// this many bytes; `None` (and `Some(0)`) never rotate. Only file
    /// targets rotate — stderr is unaffected.
    pub log_max_bytes: Option<u64>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            replicas: 32,
            read_timeout: Duration::from_secs(10),
            health_interval: Duration::from_secs(1),
            retry: RetryPolicy::default(),
            log: None,
            log_level: LogLevel::Warn,
            trace_capacity: crate::telemetry::DEFAULT_TRACE_CAPACITY,
            log_max_bytes: None,
        }
    }
}

/// FNV-1a 64 with a murmur3-style avalanche finalizer. Raw FNV-1a maps
/// near-identical strings (`addr#0`, `addr#1`, …) to one contiguous
/// band of the ring — every replica of a shard clusters and the ring
/// degenerates; the finalizer spreads a one-byte difference across all
/// 64 bits. Hand-rolled because ring placement must be deterministic
/// across processes (std's `DefaultHasher` is seeded per-process).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xff51_afd7_ed55_8ccd);
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    hash ^ (hash >> 33)
}

/// One backend's live state: health flag plus routing counters.
struct Shard {
    addr: String,
    up: AtomicBool,
    jobs_routed: AtomicU64,
    busy_retries: AtomicU64,
    failovers: AtomicU64,
    /// Round trip of the most recent successful health ping, in
    /// microseconds; 0 until the first ping lands.
    last_ping_us: AtomicU64,
}

/// The consistent-hash ring over the configured backends.
struct ShardTable {
    shards: Vec<Shard>,
    /// `(point, shard index)` sorted by point.
    ring: Vec<(u64, usize)>,
}

impl ShardTable {
    fn new(backends: &[String], replicas: usize) -> Self {
        let shards = backends
            .iter()
            .map(|addr| Shard {
                addr: addr.clone(),
                up: AtomicBool::new(true),
                jobs_routed: AtomicU64::new(0),
                busy_retries: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
                last_ping_us: AtomicU64::new(0),
            })
            .collect();
        let mut ring = Vec::with_capacity(backends.len() * replicas.max(1));
        for (i, addr) in backends.iter().enumerate() {
            for r in 0..replicas.max(1) {
                ring.push((fnv1a(format!("{addr}#{r}").as_bytes()), i));
            }
        }
        ring.sort_unstable();
        ShardTable { shards, ring }
    }

    /// Deterministic preference order for `key`: distinct shards in the
    /// order the ring walk meets them, starting at the key's hash point.
    fn preference(&self, key: &str) -> Vec<usize> {
        let point = fnv1a(key.as_bytes());
        let start = self.ring.partition_point(|&(p, _)| p < point);
        let mut seen = vec![false; self.shards.len()];
        let mut order = Vec::with_capacity(self.shards.len());
        for i in 0..self.ring.len() {
            let (_, s) = self.ring[(start + i) % self.ring.len()];
            if !seen[s] {
                seen[s] = true;
                order.push(s);
                if order.len() == self.shards.len() {
                    break;
                }
            }
        }
        order
    }

    /// The first live, non-excluded shard in `key`'s preference order.
    fn route(&self, key: &str, excluded: &[usize]) -> Option<usize> {
        self.preference(key).into_iter().find(|&s| {
            self.shards[s].up.load(Ordering::Relaxed) && !excluded.contains(&s)
        })
    }

    fn doc(&self) -> Value {
        Value::Array(
            self.shards
                .iter()
                .map(|s| {
                    Value::Object(vec![
                        ("addr".to_string(), Value::Str(s.addr.clone())),
                        ("up".to_string(), Value::Bool(s.up.load(Ordering::Relaxed))),
                        (
                            "jobs_routed".to_string(),
                            Value::UInt(s.jobs_routed.load(Ordering::Relaxed)),
                        ),
                        (
                            "busy_retries".to_string(),
                            Value::UInt(s.busy_retries.load(Ordering::Relaxed)),
                        ),
                        (
                            "failovers".to_string(),
                            Value::UInt(s.failovers.load(Ordering::Relaxed)),
                        ),
                        (
                            "last_ping_us".to_string(),
                            Value::UInt(s.last_ping_us.load(Ordering::Relaxed)),
                        ),
                    ])
                })
                .collect(),
        )
    }
}

/// Router-side counters (shard counters live in the table).
#[derive(Default)]
struct RouterStats {
    connections: AtomicU64,
    fleet_jobs: AtomicU64,
    fleet_jobs_completed: AtomicU64,
    fleet_jobs_failed: AtomicU64,
    subjobs: AtomicU64,
    /// Largest single job upload buffered in router memory, in bytes —
    /// the router holds a whole upload for retryability, so this is its
    /// per-job memory high-water mark.
    upload_buffer_peak_bytes: AtomicU64,
    busy_retries: AtomicU64,
    failovers: AtomicU64,
    /// Lines the router refused for exceeding the line cap (a shard
    /// never sees them).
    lines_rejected: AtomicU64,
}

struct RouterCtx {
    table: ShardTable,
    retry: RetryPolicy,
    read_timeout: Duration,
    health_interval: Duration,
    shutdown: Arc<AtomicBool>,
    stats: RouterStats,
    telemetry: Arc<Telemetry>,
}

impl RouterCtx {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst) || signal::shutdown_requested()
    }

    fn shard_client(&self, shard: &Shard) -> Client {
        Client::with_timeout(&shard.addr, self.read_timeout)
    }
}

/// The fleet router daemon. Binds like a [`Server`](crate::Server),
/// speaks the same protocol, and proxies/merges across its backends.
pub struct ShardRouter {
    listener: TcpListener,
    ctx: Arc<RouterCtx>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.ctx.table.shards.len())
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// Binds the router's listener over the configured backends.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; an empty backend list is
    /// `InvalidInput`.
    pub fn bind(config: &ShardConfig) -> io::Result<ShardRouter> {
        if config.backends.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "gencache-shard needs at least one backend",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let node = listener
            .local_addr()
            .map_or_else(|_| "router".to_string(), |a| format!("router:{a}"));
        let logger = Logger::open_capped(
            "gencache-shard",
            config.log.as_deref(),
            config.log_level,
            config.log_max_bytes,
        )?;
        let ctx = RouterCtx {
            table: ShardTable::new(&config.backends, config.replicas),
            retry: config.retry,
            read_timeout: config.read_timeout,
            health_interval: config.health_interval,
            shutdown: Arc::new(AtomicBool::new(false)),
            stats: RouterStats::default(),
            telemetry: Arc::new(Telemetry::new(&node, config.trace_capacity, logger)),
        };
        Ok(ShardRouter {
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
    /// shut the router down without a signal.
    pub fn shutdown_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.ctx.shutdown)
    }

    /// Serves until the shutdown flag or a SIGTERM/SIGINT arrives, then
    /// drains: stop accepting, join live connections, stop the health
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let health = {
            let ctx = Arc::clone(&self.ctx);
            std::thread::Builder::new()
                .name("gencache-shard-health".to_string())
                .spawn(move || health_loop(&ctx))
                .expect("spawn health thread")
        };
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
                        .name("gencache-shard-conn".to_string())
                        .spawn(move || {
                            if let Err(e) = handle_connection(stream, &ctx) {
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
            &[("connections", Value::UInt(conns.len() as u64))],
        );
        for handle in conns {
            let _ = handle.join();
        }
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        let _ = health.join();
        self.ctx
            .telemetry
            .log()
            .event(LogLevel::Info, "drain_finish", None, &[]);
        Ok(())
    }
}

/// Periodic shard health: `ping` every backend, mark down on failure
/// and back up on recovery. Dispatch also marks down eagerly on
/// connection failure; this loop is what brings a shard back.
fn health_loop(ctx: &RouterCtx) {
    // Sleep first: shards start optimistically up, so the first pass can
    // wait a full interval. Probing at t=0 would race the dispatch path
    // (which marks dead shards down by itself) and makes startup order
    // matter; sleeping first keeps "who discovered the death" —
    // dispatch within an interval, this loop after — deterministic.
    loop {
        let slept = Instant::now();
        while slept.elapsed() < ctx.health_interval {
            if ctx.draining() {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for shard in &ctx.table.shards {
            if ctx.draining() {
                return;
            }
            let pinged = Instant::now();
            let alive = match ctx.shard_client(shard).ping(0) {
                Ok(Reply::Pong | Reply::Busy { .. }) => true,
                Ok(Reply::Error { message }) => !message.contains("shutting down"),
                Ok(_) => true,
                Err(_) => false,
            };
            if alive {
                shard
                    .last_ping_us
                    .store(pinged.elapsed().as_micros() as u64, Ordering::Relaxed);
            }
            let was = shard.up.swap(alive, Ordering::Relaxed);
            if was != alive {
                ctx.telemetry.log().event(
                    LogLevel::Warn,
                    if alive { "shard_up" } else { "shard_down" },
                    None,
                    &[("addr", Value::Str(shard.addr.clone()))],
                );
            }
        }
    }
}

fn send_line(writer: &mut impl Write, line: &str) -> io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

fn handle_connection(stream: TcpStream, ctx: &RouterCtx) -> io::Result<()> {
    AtomicU64::fetch_add(&ctx.stats.connections, 1, Ordering::Relaxed);
    stream.set_read_timeout(Some(ctx.read_timeout))?;
    stream.set_nodelay(true).ok();
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut first = Vec::new();
    let line = match read_line_capped(&mut reader, &mut first)? {
        CappedLine::Eof => return Ok(()),
        CappedLine::TooLong => {
            AtomicU64::fetch_add(&ctx.stats.lines_rejected, 1, Ordering::Relaxed);
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
        Request::Stats => send_line(&mut writer, &encode_stats(fleet_doc(ctx))),
        Request::Ping { .. } => send_line(&mut writer, &encode_pong()),
        Request::Shards => send_line(&mut writer, &encode_shards(ctx.table.doc())),
        Request::Trace { trace_id } => {
            send_line(&mut writer, &encode_trace(&trace_id, fleet_trace(ctx, &trace_id)))
        }
        Request::Metrics => send_line(
            &mut writer,
            &encode_metrics(&Snapshot::take(&ROUTER, ctx).to_prometheus()),
        ),
        Request::Route { bench } => match ctx.table.route(&bench, &[]) {
            Some(s) => send_line(
                &mut writer,
                &encode_route(&bench, &ctx.table.shards[s].addr),
            ),
            None => send_line(&mut writer, &encode_error("no live shards")),
        },
        Request::End { .. } => {
            send_line(&mut writer, &encode_error("end frame outside a job upload"))
        }
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
        Request::Watch { interval_ms, count } => {
            handle_watch(ctx, &mut writer, interval_ms, count)
        }
    }
}

/// Streams fleet-wide watch snapshots: each tick samples every live
/// shard's service rates concurrently (one short `watch` round per
/// shard) and stitches the rows into a single frame in shard-table
/// order, so a dashboard sees the whole fleet per tick. Runs on the
/// connection thread; a shard that fails its sample is marked down and
/// dropped from subsequent ticks until the health loop revives it.
fn handle_watch(
    ctx: &RouterCtx,
    writer: &mut impl Write,
    interval_ms: u64,
    count: u64,
) -> io::Result<()> {
    let interval = Duration::from_millis(interval_ms.clamp(50, 60_000));
    // Each shard sample must finish inside the router→shard read
    // timeout, so long client intervals sample briefly and sleep out
    // the remainder.
    let sample = interval.min(ctx.read_timeout / 2).max(Duration::from_millis(50));
    let mut sent = 0u64;
    loop {
        let started = Instant::now();
        let live: Vec<&Shard> = ctx
            .table
            .shards
            .iter()
            .filter(|s| s.up.load(Ordering::Relaxed))
            .collect();
        if live.is_empty() {
            return send_line(writer, &encode_error("no live shards"));
        }
        let sampled = par_map(&live, live.len(), |shard| {
            ctx.shard_client(shard)
                .watch_once(sample.as_millis() as u64)
        });
        let mut rows: Vec<WatchRow> = Vec::new();
        for (shard, result) in live.iter().zip(sampled) {
            match result {
                Ok(shard_rows) => rows.extend(shard_rows),
                Err(_) => {
                    shard.up.store(false, Ordering::Relaxed);
                }
            }
        }
        while started.elapsed() < interval {
            if ctx.draining() {
                return send_line(writer, &encode_end(sent));
            }
            let left = interval - started.elapsed();
            std::thread::sleep(left.min(Duration::from_millis(100)));
        }
        if ctx.draining() {
            return send_line(writer, &encode_end(sent));
        }
        send_line(writer, &encode_watch(ctx.telemetry.node(), sent, &rows))?;
        sent += 1;
        if count > 0 && sent >= count {
            return send_line(writer, &encode_end(sent));
        }
    }
}

/// A job upload, regrouped per benchmark for routing. Headers are kept
/// apart and broadcast to every sub-upload; blank lines are counted
/// (the `end` integrity check covers them) but not forwarded.
struct Upload {
    prelude: Vec<String>,
    order: Vec<String>,
    groups: BTreeMap<String, Vec<String>>,
    /// Export lines received (everything between `job` and `end`).
    lines: u64,
    /// Bytes received, counting the newline each line arrived with.
    bytes: u64,
}

/// Refuses an in-flight upload: send the error frame, discard the rest
/// of the stream so the client's write side never jams, report "no
/// upload" to the caller.
fn refuse<R: BufRead, W: Write>(
    reader: &mut R,
    writer: &mut W,
    message: &str,
) -> io::Result<Option<Upload>> {
    send_line(writer, &encode_error(message))?;
    drain_discard(reader);
    Ok(None)
}

fn read_upload(
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    lines_rejected: &AtomicU64,
) -> io::Result<Option<Upload>> {
    let mut upload = Upload {
        prelude: Vec::new(),
        order: Vec::new(),
        groups: BTreeMap::new(),
        lines: 0,
        bytes: 0,
    };
    let mut received = 0u64;
    let mut buf = Vec::new();
    loop {
        let line = match read_line_capped(reader, &mut buf) {
            Ok(CappedLine::Eof) => return refuse(reader, writer, "connection closed mid-upload"),
            Ok(CappedLine::TooLong) => {
                lines_rejected.fetch_add(1, Ordering::Relaxed);
                return refuse(reader, writer, &line_cap_error());
            }
            Err(e) => return refuse(reader, writer, &format!("upload read failed: {e}")),
            Ok(CappedLine::Line(line)) => line.trim_end_matches(['\r', '\n']),
        };
        if is_control_line(line) {
            match parse_request(line) {
                Ok(Request::End { lines }) => {
                    if lines != received {
                        return refuse(
                            reader,
                            writer,
                            &format!(
                                "upload truncated: client sent {lines} export lines, \
                                 received {received}"
                            ),
                        );
                    }
                    upload.lines = received;
                    return Ok(Some(upload));
                }
                Ok(_) => {
                    return refuse(
                        reader,
                        writer,
                        "unexpected control frame inside an export upload",
                    )
                }
                Err(e) => return refuse(reader, writer, &e),
            }
        }
        received += 1;
        upload.bytes += line.len() as u64 + 1;
        match classify_line(line) {
            Ok(RouteClass::Blank) => {}
            Ok(RouteClass::Header) => upload.prelude.push(line.to_string()),
            Ok(RouteClass::Stream(bench)) => {
                if !upload.groups.contains_key(&bench) {
                    upload.order.push(bench.clone());
                }
                upload
                    .groups
                    .entry(bench)
                    .or_default()
                    .push(line.to_string());
            }
            Err(e) => return refuse(reader, writer, &e),
        }
    }
}

/// One shard's completed sub-job.
struct SubReply {
    doc: String,
    table: String,
    specs: u64,
}

/// Why one dispatch attempt did not produce a result.
enum SubError {
    /// The shard is unreachable or died mid-conversation — mark it down
    /// and re-route its benchmarks.
    Dead(String),
    /// The shard stayed busy through every retry — leave it up but route
    /// around it for this job.
    Busy,
    /// The job itself failed (bad spec, divergent export, deadline) —
    /// re-routing cannot help; fail the fleet job with this message.
    Terminal(String),
}

/// Sends one sub-job to one shard, retrying `busy` under the shared
/// policy. The sub-upload is the prelude plus the selected benchmarks'
/// lines, in upload order.
fn dispatch_once(
    ctx: &RouterCtx,
    spec: &JobSpec,
    upload: &Upload,
    shard_idx: usize,
    benches: &[String],
) -> Result<SubReply, SubError> {
    let shard = &ctx.table.shards[shard_idx];
    let mut body = String::new();
    for line in &upload.prelude {
        body.push_str(line);
        body.push('\n');
    }
    for bench in benches {
        for line in &upload.groups[bench] {
            body.push_str(line);
            body.push('\n');
        }
    }
    let client = ctx.shard_client(shard);
    AtomicU64::fetch_add(&ctx.stats.subjobs, 1, Ordering::Relaxed);
    let mut attempt = 0u32;
    loop {
        match client.submit(Cursor::new(body.as_bytes()), spec) {
            Ok(Reply::Result {
                doc, table, specs, ..
            }) => {
                shard.jobs_routed.fetch_add(1, Ordering::Relaxed);
                return Ok(SubReply { doc, table, specs });
            }
            Ok(Reply::Busy { .. }) => {
                if attempt < ctx.retry.retries {
                    shard.busy_retries.fetch_add(1, Ordering::Relaxed);
                    AtomicU64::fetch_add(&ctx.stats.busy_retries, 1, Ordering::Relaxed);
                    std::thread::sleep(ctx.retry.delay(attempt));
                    attempt += 1;
                } else {
                    return Err(SubError::Busy);
                }
            }
            Ok(Reply::Error { message }) if message.contains("shutting down") => {
                return Err(SubError::Dead(format!("shard {}: {message}", shard.addr)));
            }
            Ok(Reply::Error { message }) => {
                return Err(SubError::Terminal(format!(
                    "shard {}: {message}",
                    shard.addr
                )));
            }
            Ok(other) => {
                return Err(SubError::Terminal(format!(
                    "shard {}: unexpected reply {other:?}",
                    shard.addr
                )));
            }
            Err(e) => return Err(SubError::Dead(format!("shard {}: {e}", shard.addr))),
        }
    }
}

/// Routes, dispatches, fails over, and merges one fleet job.
fn run_fleet_job(
    ctx: &RouterCtx,
    spec: &JobSpec,
    upload: &Upload,
) -> Result<(Value, String, u64, u64), String> {
    let selected: Vec<String> = match &spec.bench {
        Some(want) => {
            if upload.groups.contains_key(want) {
                vec![want.clone()]
            } else {
                // Mirror the single-node diagnostic exactly.
                return Err(format!(
                    "benchmark {want:?} not in export; available: {}",
                    upload.order.join(", ")
                ));
            }
        }
        None => upload.order.clone(),
    };
    if selected.is_empty() {
        return Err("export contains no event streams".to_string());
    }
    let mut pending = selected.clone();
    let mut excluded: Vec<usize> = Vec::new(); // busy-exhausted, this job only
    let mut replies: Vec<SubReply> = Vec::new();
    while !pending.is_empty() {
        // Group the pending benchmarks by their first live shard.
        let mut assign: Vec<(usize, Vec<String>)> = Vec::new();
        for bench in pending.drain(..) {
            let Some(s) = ctx.table.route(&bench, &excluded) else {
                return Err(format!("no live shard available for benchmark {bench:?}"));
            };
            match assign.iter_mut().find(|(idx, _)| *idx == s) {
                Some((_, group)) => group.push(bench),
                None => assign.push((s, vec![bench])),
            }
        }
        // Concurrent dispatch, one worker per shard group; results come
        // back in assignment order regardless of scheduling.
        let results = par_map(&assign, assign.len().max(1), |(shard_idx, benches)| {
            let dispatch_started = Instant::now();
            let result = dispatch_once(ctx, spec, upload, *shard_idx, benches);
            if let Some(id) = spec.trace_id.as_deref() {
                let stage = format!("dispatch:{}", ctx.table.shards[*shard_idx].addr);
                let outcome = match &result {
                    Ok(_) => "ok".to_string(),
                    Err(SubError::Busy) => "busy".to_string(),
                    Err(SubError::Dead(why)) => format!("error: {why}"),
                    Err(SubError::Terminal(message)) => format!("error: {message}"),
                };
                if let Some(span) = ctx.telemetry.span(id, &stage, dispatch_started) {
                    span.outcome(&outcome).end();
                }
            }
            result
        });
        for ((shard_idx, benches), result) in assign.into_iter().zip(results) {
            match result {
                Ok(reply) => replies.push(reply),
                Err(SubError::Dead(why)) => {
                    ctx.telemetry.log().event(
                        LogLevel::Warn,
                        "shard_reroute",
                        spec.trace_id.as_deref(),
                        &[
                            ("addr", Value::Str(ctx.table.shards[shard_idx].addr.clone())),
                            ("benches", Value::UInt(benches.len() as u64)),
                            ("why", Value::Str(why)),
                        ],
                    );
                    let was = ctx.table.shards[shard_idx].up.swap(false, Ordering::Relaxed);
                    if was {
                        ctx.telemetry.log().event(
                            LogLevel::Warn,
                            "shard_down",
                            None,
                            &[("addr", Value::Str(ctx.table.shards[shard_idx].addr.clone()))],
                        );
                    }
                    ctx.table.shards[shard_idx]
                        .failovers
                        .fetch_add(1, Ordering::Relaxed);
                    AtomicU64::fetch_add(&ctx.stats.failovers, 1, Ordering::Relaxed);
                    pending.extend(benches);
                }
                Err(SubError::Busy) => {
                    ctx.table.shards[shard_idx]
                        .failovers
                        .fetch_add(1, Ordering::Relaxed);
                    AtomicU64::fetch_add(&ctx.stats.failovers, 1, Ordering::Relaxed);
                    excluded.push(shard_idx);
                    pending.extend(benches);
                }
                Err(SubError::Terminal(message)) => return Err(message),
            }
        }
    }
    let merge_started = Instant::now();
    let docs: Vec<Value> = replies
        .iter()
        .map(|r| {
            serde_json::value_from_str(&r.doc)
                .map_err(|e| format!("shard returned an unparseable doc: {e}"))
        })
        .collect::<Result<_, String>>()?;
    let doc = merge_metrics_docs(&selected, &docs)?;
    let tables: Vec<String> = replies.iter().map(|r| r.table.clone()).collect();
    let table = merge_sim_tables(&selected, &tables)?;
    if let Some(id) = spec.trace_id.as_deref() {
        if let Some(span) = ctx.telemetry.span(id, "merge", merge_started) {
            span.end();
        }
    }
    let specs = replies.first().map_or(0, |r| r.specs);
    Ok((doc, table, selected.len() as u64, specs))
}

fn handle_job(
    ctx: &RouterCtx,
    reader: &mut impl BufRead,
    writer: &mut impl Write,
    mut spec: JobSpec,
) -> io::Result<()> {
    let admitted = Instant::now();
    // Stamp a trace id before dispatch so every shard sub-job carries
    // the same one (encode_job forwards it).
    let trace_id = match &spec.trace_id {
        Some(id) => id.clone(),
        None => {
            let id = new_trace_id();
            spec.trace_id = Some(id.clone());
            id
        }
    };
    if let Some(span) = ctx.telemetry.span(&trace_id, "accept", admitted) {
        span.end();
    }
    ctx.telemetry
        .log()
        .event(LogLevel::Info, "job_admitted", Some(&trace_id), &[]);
    let ingest_started = Instant::now();
    let Some(upload) = read_upload(reader, writer, &ctx.stats.lines_rejected)? else {
        // Already refused with an error frame.
        if let Some(span) = ctx.telemetry.span(&trace_id, "ingest", ingest_started) {
            span.outcome("error: upload refused").end();
        }
        return Ok(());
    };
    if let Some(span) = ctx.telemetry.span(&trace_id, "ingest", ingest_started) {
        span.lines(upload.lines).bytes(upload.bytes).end();
    }
    ctx.stats
        .upload_buffer_peak_bytes
        .fetch_max(upload.bytes, Ordering::Relaxed);
    AtomicU64::fetch_add(&ctx.stats.fleet_jobs, 1, Ordering::Relaxed);
    match run_fleet_job(ctx, &spec, &upload) {
        Ok((doc, table, benches, specs)) => {
            AtomicU64::fetch_add(&ctx.stats.fleet_jobs_completed, 1, Ordering::Relaxed);
            let reply_started = Instant::now();
            let line = encode_result(
                doc,
                &table,
                benches,
                specs,
                admitted.elapsed().as_micros() as u64,
            );
            let sent = send_line(writer, &line);
            if let Some(span) = ctx.telemetry.span(&trace_id, "reply", reply_started) {
                span.bytes(line.len() as u64 + 1)
                    .outcome(if sent.is_ok() { "ok" } else { "error: reply write failed" })
                    .end();
            }
            sent
        }
        Err(message) => {
            AtomicU64::fetch_add(&ctx.stats.fleet_jobs_failed, 1, Ordering::Relaxed);
            ctx.telemetry.log().event(
                LogLevel::Warn,
                "fleet_job_failed",
                Some(&trace_id),
                &[("message", Value::Str(message.clone()))],
            );
            let reply_started = Instant::now();
            let line = encode_error(&message);
            let sent = send_line(writer, &line);
            if let Some(span) = ctx.telemetry.span(&trace_id, "reply", reply_started) {
                span.bytes(line.len() as u64 + 1)
                    .outcome(&format!("error: {message}"))
                    .end();
            }
            sent
        }
    }
}

/// Counts lines forwarded to the client so a fetch proxy can append a
/// faithful `end` frame.
struct CountingWriter<W: Write> {
    inner: W,
    lines: u64,
}

impl<W: Write> Write for CountingWriter<W> {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(data)?;
        self.lines += data[..n].iter().filter(|&&b| b == b'\n').count() as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// Proxies a `fetch` to the benchmark's preferred shard, walking the
/// preference order while nothing has been forwarded yet. Once lines
/// have gone out, a failure turns into an `error` frame (the client's
/// `end`-count check rejects the truncated download anyway).
fn handle_fetch(
    ctx: &RouterCtx,
    writer: &mut impl Write,
    bench: &str,
    scale: u64,
) -> io::Result<()> {
    let mut last_error = "no live shards".to_string();
    for s in ctx.table.preference(bench) {
        let shard = &ctx.table.shards[s];
        if !shard.up.load(Ordering::Relaxed) {
            continue;
        }
        let mut counting = CountingWriter {
            inner: &mut *writer,
            lines: 0,
        };
        match ctx.shard_client(shard).fetch(bench, scale, &mut counting) {
            Ok(lines) => {
                shard.jobs_routed.fetch_add(1, Ordering::Relaxed);
                return send_line(writer, &encode_end(lines));
            }
            Err(e) if counting.lines == 0 => {
                last_error = format!("shard {}: {e}", shard.addr);
            }
            Err(e) => {
                return send_line(
                    writer,
                    &encode_error(&format!("download failed mid-stream: {e}")),
                );
            }
        }
    }
    send_line(writer, &encode_error(&last_error))
}

/// Stitches the fleet-wide span tree for one trace: the router's own
/// spans first, then every live shard's (each span already carries its
/// `node`, so the client can tell the layers apart).
fn fleet_trace(ctx: &RouterCtx, trace_id: &str) -> Value {
    let mut spans: Vec<Value> = ctx
        .telemetry
        .spans_for(trace_id)
        .iter()
        .map(Span::to_value)
        .collect();
    for shard in &ctx.table.shards {
        if !shard.up.load(Ordering::Relaxed) {
            continue;
        }
        if let Ok(Reply::Trace { doc, .. }) = ctx.shard_client(shard).trace(trace_id) {
            if let Ok(Value::Array(items)) = serde_json::value_from_str(&doc) {
                spans.extend(items);
            }
        }
    }
    Value::Array(spans)
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

fn shards_up(ctx: &RouterCtx) -> u64 {
    ctx.table
        .shards
        .iter()
        .filter(|s| s.up.load(Ordering::Relaxed))
        .count() as u64
}

/// One labelled row per shard, for the per-shard gauge families.
fn shard_rows(ctx: &RouterCtx, value: fn(&Shard) -> u64) -> Vec<(String, u64)> {
    ctx.table
        .shards
        .iter()
        .map(|s| (format!("addr=\"{}\"", prom_label_escape(&s.addr)), value(s)))
        .collect()
}

/// Every metric the router publishes. The keyed ones form the fleet
/// `stats` doc's `router` section, in this order. The two families a
/// daemon also publishes — uptime and refused lines — reach the fleet
/// doc through the merge in [`fleet_doc`] instead. Shard-side job
/// metrics stay on the shards (scrape them directly or through the
/// summed `stats` frame); the router's Prometheus body is routing
/// health.
static ROUTER: [Metric<RouterCtx>; 15] = [
    Metric {
        key: "",
        name: "gencache_uptime_ms",
        help: "Milliseconds since the router started.",
        read: Read::NodeGauge(|c| c.telemetry.uptime_ms()),
    },
    Metric {
        key: "connections",
        name: "gencache_router_connections_total",
        help: "Connections accepted by the router.",
        read: Read::Counter(|c| load(&c.stats.connections)),
    },
    Metric {
        key: "fleet_jobs",
        name: "gencache_fleet_jobs_total",
        help: "Fleet jobs admitted past upload.",
        read: Read::Counter(|c| load(&c.stats.fleet_jobs)),
    },
    Metric {
        key: "fleet_jobs_completed",
        name: "gencache_fleet_jobs_completed_total",
        help: "Fleet jobs merged and answered.",
        read: Read::Counter(|c| load(&c.stats.fleet_jobs_completed)),
    },
    Metric {
        key: "fleet_jobs_failed",
        name: "gencache_fleet_jobs_failed_total",
        help: "Fleet jobs that ended in an error frame.",
        read: Read::Counter(|c| load(&c.stats.fleet_jobs_failed)),
    },
    Metric {
        key: "subjobs",
        name: "gencache_subjobs_total",
        help: "Per-shard sub-jobs dispatched.",
        read: Read::Counter(|c| load(&c.stats.subjobs)),
    },
    Metric {
        key: "busy_retries",
        name: "gencache_busy_retries_total",
        help: "Busy replies retried under the backoff policy.",
        read: Read::Counter(|c| load(&c.stats.busy_retries)),
    },
    Metric {
        key: "failovers",
        name: "gencache_failovers_total",
        help: "Sub-jobs re-routed to another shard.",
        read: Read::Counter(|c| load(&c.stats.failovers)),
    },
    Metric {
        key: "upload_buffer_peak_bytes",
        name: "gencache_upload_buffer_peak_bytes",
        help: "Largest single job upload buffered in router memory.",
        read: Read::Gauge(|c| load(&c.stats.upload_buffer_peak_bytes)),
    },
    Metric {
        key: "shards_up",
        name: "gencache_shards_up",
        help: "Backends currently marked healthy.",
        read: Read::Gauge(shards_up),
    },
    Metric {
        key: "shards_down",
        name: "gencache_shards_down",
        help: "Backends currently marked down.",
        read: Read::Gauge(|c| c.table.shards.len() as u64 - shards_up(c)),
    },
    Metric {
        key: "",
        name: "gencache_lines_rejected_total",
        help: "Lines the router refused for exceeding the line cap.",
        read: Read::Counter(|c| load(&c.stats.lines_rejected)),
    },
    Metric {
        key: "",
        name: "gencache_shard_up",
        help: "Per-shard health (1 = up).",
        read: Read::Rows(|c| shard_rows(c, |s| u64::from(s.up.load(Ordering::Relaxed)))),
    },
    Metric {
        key: "",
        name: "gencache_shard_last_ping_us",
        help: "Per-shard round trip of the last successful health ping.",
        read: Read::Rows(|c| shard_rows(c, |s| load(&s.last_ping_us))),
    },
    Metric {
        key: "",
        name: "gencache_shard_jobs_routed",
        help: "Per-shard sub-jobs answered successfully.",
        read: Read::Rows(|c| shard_rows(c, |s| load(&s.jobs_routed))),
    },
];

/// The fleet `stats` doc: every live shard's `stats` doc parsed back
/// through [`DAEMON`] and merged by kind with the router's own metrics
/// (see [`Snapshot::fleet`]), then the `router` section and the shard
/// table.
fn fleet_doc(ctx: &RouterCtx) -> Value {
    let mut nodes = Vec::new();
    for shard in ctx.table.shards.iter().filter(|s| s.up.load(Ordering::Relaxed)) {
        match ctx.shard_client(shard).stats() {
            Ok(Reply::Stats { doc }) => {
                if let Ok(doc) = serde_json::value_from_str(&doc) {
                    nodes.push(Snapshot::parse(&DAEMON, &doc));
                }
            }
            _ => shard.up.store(false, Ordering::Relaxed),
        }
    }
    let own = Snapshot::take(&ROUTER, ctx);
    let mut fields = Snapshot::fleet(&DAEMON, &nodes, &own).doc_fields();
    fields.push(("router".to_string(), Value::Object(own.doc_fields())));
    fields.push(("shards".to_string(), ctx.table.doc()));
    Value::Object(fields)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addrs(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("127.0.0.1:{}", 9000 + i)).collect()
    }

    #[test]
    fn preference_is_deterministic_and_covers_every_shard() {
        let table = ShardTable::new(&addrs(5), 32);
        for key in ["word", "solitaire", "gcc", "anything-at-all"] {
            let a = table.preference(key);
            let b = table.preference(key);
            assert_eq!(a, b, "preference must be stable");
            let mut sorted = a.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3, 4], "all shards, each once");
        }
    }

    #[test]
    fn routing_spreads_keys_across_shards() {
        let table = ShardTable::new(&addrs(3), 32);
        let mut counts = [0usize; 3];
        for i in 0..300 {
            let s = table.route(&format!("bench-{i}"), &[]).unwrap();
            counts[s] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(c > 30, "shard {i} got only {c}/300 keys — ring is unbalanced");
        }
    }

    #[test]
    fn down_shards_are_skipped_and_only_their_keys_move() {
        let table = ShardTable::new(&addrs(4), 32);
        let keys: Vec<String> = (0..200).map(|i| format!("bench-{i}")).collect();
        let before: Vec<usize> = keys.iter().map(|k| table.route(k, &[]).unwrap()).collect();
        table.shards[2].up.store(false, Ordering::Relaxed);
        for (k, &was) in keys.iter().zip(&before) {
            let now = table.route(k, &[]).unwrap();
            assert_ne!(now, 2, "down shard must not be routed to");
            if was != 2 {
                assert_eq!(now, was, "healthy placements must not move");
            }
        }
        table.shards[2].up.store(true, Ordering::Relaxed);
        let after: Vec<usize> = keys.iter().map(|k| table.route(k, &[]).unwrap()).collect();
        assert_eq!(after, before, "mark-up restores the original placement");
    }

    #[test]
    fn excluded_shards_route_like_down_shards() {
        let table = ShardTable::new(&addrs(2), 32);
        let s = table.route("word", &[]).unwrap();
        let other = table.route("word", &[s]).unwrap();
        assert_ne!(s, other);
        assert_eq!(table.route("word", &[0, 1]), None);
    }

    #[test]
    fn bind_requires_backends() {
        let err = ShardRouter::bind(&ShardConfig::default()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }
}
