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
use std::io::{self, BufRead, Cursor, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{classify_line, merge_metrics_docs, merge_sim_tables, RouteClass};
use gencache_sim::par::par_map;
use serde::Value;

use crate::client::Client;
use crate::front::{self, reply, Conn, Front, Node, UploadLine, UploadReader};
use crate::proto::{encode_end, encode_error, encode_result, JobSpec, Reply, WatchRow};
use crate::retry::RetryPolicy;
use crate::stats::{load, DAEMON};
use crate::telemetry::{prom_label_escape, LogLevel, Metric, Read, Snapshot};

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

    /// The shards currently marked up, in table order.
    fn live(&self) -> impl Iterator<Item = &Shard> {
        self.shards.iter().filter(|s| s.up.load(Ordering::Relaxed))
    }

    /// The first live, non-excluded shard in `key`'s preference order.
    fn route(&self, key: &str, excluded: &[usize]) -> Option<usize> {
        self.preference(key)
            .into_iter()
            .find(|&s| self.shards[s].up.load(Ordering::Relaxed) && !excluded.contains(&s))
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
}

struct RouterCtx {
    front: Front,
    table: ShardTable,
    retry: RetryPolicy,
    health_interval: Duration,
    stats: RouterStats,
}

impl RouterCtx {
    fn shard_client(&self, shard: &Shard) -> Client {
        Client::with_timeout(&shard.addr, self.front.read_timeout)
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
        let (listener, front) = Front::bind::<RouterCtx>(
            &config.addr,
            config.read_timeout,
            config.log.as_deref(),
            config.log_level,
            config.log_max_bytes,
            config.trace_capacity,
        )?;
        let ctx = RouterCtx {
            front,
            table: ShardTable::new(&config.backends, config.replicas),
            retry: config.retry,
            health_interval: config.health_interval,
            stats: RouterStats::default(),
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
        Arc::clone(&self.ctx.front.shutdown)
    }

    /// Serves until the shutdown flag or a SIGTERM/SIGINT arrives, then
    /// drains: stop accepting, join live connections, stop the health
    /// thread.
    ///
    /// # Errors
    ///
    /// Propagates accept-loop failures other than `WouldBlock`.
    pub fn run(self) -> io::Result<()> {
        let health = {
            let ctx = Arc::clone(&self.ctx);
            std::thread::Builder::new()
                .name("gencache-shard-health".to_string())
                .spawn(move || health_loop(&ctx))
                .expect("spawn health thread")
        };
        front::run(self.listener, &self.ctx, || {
            self.ctx.front.shutdown.store(true, Ordering::SeqCst);
            let _ = health.join();
        })
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
    while ctx.front.wait_until(Instant::now() + ctx.health_interval) {
        for shard in &ctx.table.shards {
            if ctx.front.draining() {
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
                ctx.front.telemetry.log().event(
                    LogLevel::Warn,
                    if alive { "shard_up" } else { "shard_down" },
                    None,
                    &[("addr", Value::Str(shard.addr.clone()))],
                );
            }
        }
    }
}

impl Node for RouterCtx {
    const KIND: &'static str = "router";
    const COMPONENT: &'static str = "gencache-shard";
    const METRICS: &'static [Metric<RouterCtx>] = &ROUTER;

    fn front(&self) -> &Front {
        &self.front
    }

    /// The fleet `stats` doc: every live shard's `stats` doc parsed back
    /// through [`DAEMON`] and merged by kind with the router's own metrics
    /// (see [`Snapshot::fleet`]), then the `router` section and the shard
    /// table.
    fn stats(&self) -> Value {
        let mut nodes = Vec::new();
        for shard in self.table.live() {
            match self.shard_client(shard).stats() {
                Ok(Reply::Stats { doc }) => {
                    if let Ok(doc) = serde_json::value_from_str(&doc) {
                        nodes.push(Snapshot::parse(&DAEMON, &doc));
                    }
                }
                _ => shard.up.store(false, Ordering::Relaxed),
            }
        }
        let own = Snapshot::take(&ROUTER, self);
        let mut fields = Snapshot::fleet(&DAEMON, &nodes, &own).doc_fields();
        fields.push(("router".to_string(), Value::Object(own.doc_fields())));
        fields.push(("shards".to_string(), self.table.doc()));
        Value::Object(fields)
    }

    /// Stitches the fleet-wide span tree for one trace: the router's own
    /// spans first, then every live shard's (each span already carries its
    /// `node`, so the client can tell the layers apart).
    fn trace(&self, trace_id: &str) -> Value {
        let mut spans = self.front.spans(trace_id);
        for shard in self.table.live() {
            if let Ok(Reply::Trace { doc, .. }) = self.shard_client(shard).trace(trace_id) {
                if let Ok(Value::Array(items)) = serde_json::value_from_str(&doc) {
                    spans.extend(items);
                }
            }
        }
        Value::Array(spans)
    }

    fn shards(&self) -> Result<Value, String> {
        Ok(self.table.doc())
    }

    fn route(&self, bench: &str) -> Result<String, String> {
        match self.table.route(bench, &[]) {
            Some(s) => Ok(self.table.shards[s].addr.clone()),
            None => Err("no live shards".to_string()),
        }
    }

    fn job(&self, conn: &mut Conn, spec: JobSpec, trace_id: String) -> io::Result<()> {
        let admitted = Instant::now();
        let tel = &self.front.telemetry;
        if let Some(span) = tel.span(&trace_id, "accept", admitted) {
            span.end();
        }
        tel.log()
            .event(LogLevel::Info, "job_admitted", Some(&trace_id), &[]);
        let ingest_started = Instant::now();
        let upload = match read_upload(&mut conn.reader, &self.front.lines_rejected) {
            Ok(upload) => upload,
            Err(message) => {
                conn.refuse(&encode_error(&message))?;
                if let Some(span) = tel.span(&trace_id, "ingest", ingest_started) {
                    span.outcome("error: upload refused").end();
                }
                return Ok(());
            }
        };
        if let Some(span) = tel.span(&trace_id, "ingest", ingest_started) {
            span.lines(upload.lines).bytes(upload.bytes).end();
        }
        self.stats
            .upload_buffer_peak_bytes
            .fetch_max(upload.bytes, Ordering::Relaxed);
        AtomicU64::fetch_add(&self.stats.fleet_jobs, 1, Ordering::Relaxed);
        let outcome = run_fleet_job(self, &spec, &upload);
        // The reply span covers encoding the result.
        let reply_started = Instant::now();
        let (line, failed) = match outcome {
            Ok((doc, table, benches, specs)) => {
                AtomicU64::fetch_add(&self.stats.fleet_jobs_completed, 1, Ordering::Relaxed);
                let elapsed_us = admitted.elapsed().as_micros() as u64;
                (encode_result(doc, &table, benches, specs, elapsed_us), None)
            }
            Err(message) => {
                AtomicU64::fetch_add(&self.stats.fleet_jobs_failed, 1, Ordering::Relaxed);
                tel.log().event(
                    LogLevel::Warn,
                    "fleet_job_failed",
                    Some(&trace_id),
                    &[("message", Value::Str(message.clone()))],
                );
                (encode_error(&message), Some(message))
            }
        };
        let failed = failed.as_deref();
        reply(
            &mut conn.writer,
            tel,
            &trace_id,
            reply_started,
            &line,
            failed,
        )
    }

    /// Proxies a `fetch` to the benchmark's preferred shard, walking the
    /// preference order while nothing has been forwarded yet. Once lines
    /// have gone out, a failure turns into an `error` frame (the client's
    /// `end`-count check rejects the truncated download anyway).
    fn fetch(&self, conn: &mut Conn, bench: &str, scale: u64) -> io::Result<()> {
        let mut last_error = "no live shards".to_string();
        for s in self.table.preference(bench) {
            let shard = &self.table.shards[s];
            if !shard.up.load(Ordering::Relaxed) {
                continue;
            }
            let mut counting = CountingWriter {
                inner: &mut conn.writer,
                lines: 0,
            };
            match self.shard_client(shard).fetch(bench, scale, &mut counting) {
                Ok(lines) => {
                    shard.jobs_routed.fetch_add(1, Ordering::Relaxed);
                    return conn.send(&encode_end(lines));
                }
                Err(e) if counting.lines == 0 => {
                    last_error = format!("shard {}: {e}", shard.addr);
                }
                Err(e) => return conn.send_error(&format!("download failed mid-stream: {e}")),
            }
        }
        conn.send_error(&last_error)
    }

    /// Fleet-wide rows: each tick samples every live shard's service
    /// rates concurrently (one short `watch` round per shard) and stitches
    /// the rows in shard-table order, so a dashboard sees the whole fleet
    /// per tick. A shard that fails its sample is marked down and dropped
    /// from later ticks until the health loop revives it.
    fn watch(&self, conn: &mut Conn, interval_ms: u64, count: u64) -> io::Result<()> {
        // Each shard sample must finish inside the router→shard read
        // timeout, so long client intervals sample briefly and wait out
        // the rest of the tick first.
        let lead = (self.front.read_timeout / 2).max(Duration::from_millis(50));
        let rows = move |sample: Duration| {
            let live: Vec<&Shard> = self.table.live().collect();
            if live.is_empty() {
                return Err("no live shards".to_string());
            }
            let sampled = par_map(&live, live.len(), |shard| {
                self.shard_client(shard)
                    .watch_once(sample.as_millis() as u64)
            });
            let mut rows: Vec<WatchRow> = Vec::new();
            for (shard, result) in live.iter().zip(sampled) {
                match result {
                    Ok(shard_rows) => rows.extend(shard_rows),
                    Err(_) => shard.up.store(false, Ordering::Relaxed),
                }
            }
            Ok(rows)
        };
        conn.watch(&self.front, interval_ms, count, lead, rows)
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

/// Reads a job upload into memory, grouped per benchmark; the error is
/// the refusal's text.
fn read_upload(reader: &mut impl BufRead, lines_rejected: &AtomicU64) -> Result<Upload, String> {
    let mut upload = Upload {
        prelude: Vec::new(),
        order: Vec::new(),
        groups: BTreeMap::new(),
        lines: 0,
        bytes: 0,
    };
    let mut lines = UploadReader::default();
    loop {
        let line = match lines.next(reader, lines_rejected).1 {
            UploadLine::Export(line) => line,
            UploadLine::End => {
                upload.lines = lines.lines;
                return Ok(upload);
            }
            UploadLine::Failed(message) => return Err(message),
        };
        upload.bytes += line.len() as u64 + 1;
        match classify_line(line)? {
            RouteClass::Blank => {}
            RouteClass::Header => upload.prelude.push(line.to_string()),
            RouteClass::Stream(bench) => {
                if !upload.groups.contains_key(&bench) {
                    upload.order.push(bench.clone());
                }
                upload
                    .groups
                    .entry(bench)
                    .or_default()
                    .push(line.to_string());
            }
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
                if let Some(span) = ctx.front.telemetry.span(id, &stage, dispatch_started) {
                    span.outcome(&outcome).end();
                }
            }
            result
        });
        for ((shard_idx, benches), result) in assign.into_iter().zip(results) {
            match result {
                Ok(reply) => replies.push(reply),
                Err(SubError::Dead(why)) => {
                    ctx.front.telemetry.log().event(
                        LogLevel::Warn,
                        "shard_reroute",
                        spec.trace_id.as_deref(),
                        &[
                            ("addr", Value::Str(ctx.table.shards[shard_idx].addr.clone())),
                            ("benches", Value::UInt(benches.len() as u64)),
                            ("why", Value::Str(why)),
                        ],
                    );
                    let was = ctx.table.shards[shard_idx]
                        .up
                        .swap(false, Ordering::Relaxed);
                    if was {
                        ctx.front.telemetry.log().event(
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
        if let Some(span) = ctx.front.telemetry.span(id, "merge", merge_started) {
            span.end();
        }
    }
    let specs = replies.first().map_or(0, |r| r.specs);
    Ok((doc, table, selected.len() as u64, specs))
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

fn shards_up(ctx: &RouterCtx) -> u64 {
    ctx.table.live().count() as u64
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
/// doc through the merge in the router's `stats` answer instead. Shard-side job
/// metrics stay on the shards (scrape them directly or through the
/// summed `stats` frame); the router's Prometheus body is routing
/// health.
static ROUTER: [Metric<RouterCtx>; 15] = [
    Metric {
        key: "",
        name: "gencache_uptime_ms",
        help: "Milliseconds since the router started.",
        read: Read::NodeGauge(|c| c.front.telemetry.uptime_ms()),
    },
    Metric {
        key: "connections",
        name: "gencache_router_connections_total",
        help: "Connections accepted by the router.",
        read: Read::Counter(|c| load(&c.front.connections)),
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
        read: Read::Counter(|c| load(&c.front.lines_rejected)),
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
            assert!(
                c > 30,
                "shard {i} got only {c}/300 keys — ring is unbalanced"
            );
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
