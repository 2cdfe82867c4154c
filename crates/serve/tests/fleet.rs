//! Fleet tests: three in-process daemons behind a `ShardRouter`, real
//! TCP end to end.
//!
//! The property under test is the tentpole guarantee: a job submitted
//! to the router — split per benchmark across shards, simulated
//! concurrently, merged — answers with *exactly* the bytes offline
//! `simulate --metrics-out` produces for the same export and specs,
//! even while shards die and come back mid-run.

use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use gencache_bench::ingest::{
    classify_line, resolve_sim_specs, run_sim_job, sim_metrics_doc, RouteClass, SimJobOptions,
    StreamIngest,
};
use gencache_bench::{export_telemetry, record_all, value_to_json, HarnessOptions};
use gencache_serve::proto::{
    encode_end, encode_job, encode_stats_request, line_cap_error, parse_reply, parse_request,
};
use gencache_serve::{
    Client, JobSpec, Reply, RetryPolicy, Server, ServerConfig, ShardConfig, ShardRouter, Span,
};
use gencache_workloads::Suite;
use serde::Value;

/// Number of benchmarks in the shared export. [`start_spread_fleet`]
/// picks a 3-shard ring layout that places them on at least two shards.
const BENCHES: usize = 3;

/// Records three benchmarks and returns the combined v2 export text.
fn export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("gencache-fleet-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("events.jsonl").to_str().unwrap().to_string();
        let opts = HarnessOptions {
            scale: 64,
            suite: Some(Suite::Interactive),
            jobs: Some(1),
            events_out: Some(path.clone()),
            ..HarnessOptions::default()
        };
        let runs = record_all(&opts);
        export_telemetry(&opts, &runs[..BENCHES]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

/// The spec set every fleet test submits: explicit labels (including
/// the adaptive controller, whose switch report must survive the merge
/// byte-for-byte) plus the §6 grid, so all shards resolve the identical
/// label list.
fn fleet_spec() -> JobSpec {
    JobSpec {
        specs: vec![
            "unified".to_string(),
            "lru".to_string(),
            "adaptive".to_string(),
        ],
        grid: true,
        ..JobSpec::default()
    }
}

/// What single-node `simulate --metrics-out` writes for this export and
/// the fleet spec set, with or without the oracle/windows sections (and
/// so with or without the optional per-spec subtrees) — the
/// byte-identity reference.
fn offline_doc_with(oracle: bool, windows: bool) -> String {
    let mut ingest = StreamIngest::new();
    for line in export().lines() {
        ingest.push_line(line).unwrap();
    }
    let inputs = ingest.into_inputs(None, None, None).unwrap();
    let spec = fleet_spec();
    let specs = resolve_sim_specs(&spec.specs, spec.grid).unwrap();
    let options = SimJobOptions {
        oracle,
        windows,
        ..SimJobOptions::default()
    };
    let out = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
    value_to_json(&sim_metrics_doc(&out))
}

fn offline_doc() -> &'static str {
    static DOC: OnceLock<String> = OnceLock::new();
    DOC.get_or_init(|| offline_doc_with(false, false))
}

struct TestServer {
    addr: String,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start() -> TestServer {
        let server = Server::bind(&ServerConfig {
            workers: Some(2),
            queue_depth: Some(16),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.local_addr().unwrap().to_string();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    /// Stops the daemon and waits for its drain — after this, connects
    /// to its address are refused, as if the shard crashed.
    fn kill(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.kill();
    }
}

struct TestRouter {
    addr: String,
    flag: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestRouter {
    fn start(backends: Vec<String>, health_interval: Duration) -> TestRouter {
        let router = ShardRouter::bind(&ShardConfig {
            backends,
            health_interval,
            // Patient enough to outlast multi-second debug-build
            // sub-jobs when every shard queue is briefly full, or when
            // the host runs many tests at once.
            retry: RetryPolicy::new(8, 250),
            read_timeout: Duration::from_secs(60),
            ..ShardConfig::default()
        })
        .expect("bind router");
        let addr = router.local_addr().unwrap().to_string();
        let flag = router.shutdown_flag();
        let handle = std::thread::spawn(move || router.run());
        TestRouter {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr)
    }
}

impl Drop for TestRouter {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .expect("router thread panicked")
                .expect("router accept loop failed");
        }
    }
}

/// Asks the router where each of the export's benchmarks goes and
/// returns the set of shard addresses it names.
fn placements(router: &TestRouter, shards: &[TestServer]) -> BTreeSet<String> {
    let mut addrs = BTreeSet::new();
    for name in export_benches() {
        match router.client().route(&name) {
            Ok(Reply::Route { bench, addr }) => {
                assert_eq!(bench, name);
                assert!(
                    shards.iter().any(|s| s.addr == addr),
                    "routed to unknown shard {addr}"
                );
                addrs.insert(addr);
            }
            other => panic!("route failed: {other:?}"),
        }
    }
    addrs
}

/// Starts three shards behind a router whose ring places the export's
/// benchmarks on at least two of them, so every reply is a real
/// cross-shard merge. Placement is a pure function of the shard
/// addresses, and about one layout in nine of fresh ephemeral ports puts
/// every benchmark on one shard; such a fleet is discarded and another
/// started.
fn start_spread_fleet() -> (Vec<TestServer>, TestRouter, BTreeSet<String>) {
    for _ in 0..32 {
        let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
        let router = TestRouter::start(
            shards.iter().map(|s| s.addr.clone()).collect(),
            Duration::from_millis(200),
        );
        let placed = placements(&router, &shards);
        if placed.len() >= 2 {
            return (shards, router, placed);
        }
    }
    panic!("32 fleet layouts in a row placed every benchmark on one shard");
}

fn submit_via(addr: &str, spec: &JobSpec) -> Reply {
    Client::new(addr)
        .submit(export().as_bytes(), spec)
        .expect("submit through router")
}

#[test]
fn fleet_reply_is_byte_identical_to_offline_simulate() {
    let (_shards, router, placed) = start_spread_fleet();

    // Oracle on: each shard doc carries a per-spec regret section, so
    // the router merge must round-trip regret byte-exactly too. (Kept
    // out of the concurrent test — the second replay pass regret costs
    // overloads a 3-shard debug-build fleet under 4 simultaneous jobs.)
    let spec = JobSpec {
        oracle: true,
        ..fleet_spec()
    };
    match submit_via(&router.addr, &spec) {
        Reply::Result {
            doc,
            table,
            benches,
            specs,
            ..
        } => {
            assert_eq!(
                doc,
                offline_doc_with(true, false),
                "fleet doc diverged from offline simulate"
            );
            assert!(
                doc.contains("\"regret\":{\"accesses\":"),
                "oracle fleet doc carries no regret section"
            );
            assert_eq!(benches, BENCHES as u64);
            assert!(specs >= 2);
            // The merged table covers every benchmark the doc covers.
            assert_eq!(
                table.matches("=== ").count(),
                BENCHES,
                "merged table is missing benchmarks:\n{table}"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // Work actually spread: the work landed where the ring places it, on
    // at least two shards. A sub-job the router failed over — a shard
    // that stayed busy or timed out on a loaded host — lands on the next
    // shard in preference order instead, and the table charges that to
    // the shard that failed.
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    let table = serde_json::value_from_str(&doc).expect("shard table parses");
    let rows: Vec<(String, u64, u64)> = table
        .as_array()
        .expect("shard table is an array")
        .iter()
        .map(|row| {
            let field = |key| serde::obj_field(row, "shard", key).expect("shard row field");
            match (field("addr"), field("jobs_routed"), field("failovers")) {
                (Value::Str(addr), Value::UInt(routed), Value::UInt(failovers)) => {
                    (addr.clone(), *routed, *failovers)
                }
                other => panic!("malformed shard row {other:?}"),
            }
        })
        .collect();
    let failed_over = rows.iter().any(|(_, _, failovers)| *failovers > 0);
    let worked = rows.iter().filter(|(_, routed, _)| *routed > 0).count();
    assert!(
        worked >= 2 || failed_over,
        "expected >=2 shards with work, table: {doc}"
    );
    for (addr, routed, failovers) in &rows {
        if placed.contains(addr) {
            assert!(
                *routed > 0 || *failovers > 0,
                "placed shard {addr} got no work and no failover, table: {doc}"
            );
        } else {
            assert!(
                *routed == 0 || failed_over,
                "unplaced shard {addr} got work without a failover, table: {doc}"
            );
        }
    }
}

/// The export's benchmark names, in upload order.
fn export_benches() -> Vec<String> {
    let mut names = Vec::new();
    for line in export().lines() {
        if let RouteClass::Stream(name) = classify_line(line).unwrap() {
            if !names.iter().any(|n| *n == name) {
                names.push(name.into_owned());
            }
        }
    }
    assert_eq!(names.len(), BENCHES);
    names
}

#[test]
fn concurrent_fleet_clients_all_get_identical_bytes() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_millis(200),
    );
    let expected = offline_doc();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let addr = router.addr.clone();
                scope.spawn(move || submit_via(&addr, &fleet_spec()))
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("client thread panicked") {
                Reply::Result { doc, .. } => {
                    assert_eq!(doc, expected, "concurrent client {i} diverged");
                }
                other => panic!("client {i}: unexpected reply {other:?}"),
            }
        }
    });

    // Fleet stats: the router aggregated its shards and its own view.
    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    for key in [
        "\"jobs_completed\":",
        "\"jobs_panicked\":",
        "\"latency_us\":",
        "\"router\":",
        "\"fleet_jobs\":4",
        "\"shards_up\":3",
        "\"shards\":[",
        "\"upload_buffer_peak_bytes\":",
    ] {
        assert!(doc.contains(key), "fleet stats missing {key}: {doc}");
    }
    // Four real uploads went through the router, so its buffering
    // high-water mark must be nonzero.
    assert!(
        !doc.contains("\"upload_buffer_peak_bytes\":0,")
            && !doc.contains("\"upload_buffer_peak_bytes\":0}"),
        "upload buffer peak should be nonzero after fleet jobs: {doc}"
    );
}

#[test]
fn killing_a_shard_mid_fleet_degrades_gracefully() {
    let mut shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    // A long health interval: the router must discover the death on the
    // dispatch path (connection refused -> mark down -> re-route), not
    // be rescued by a timely ping.
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_secs(60),
    );

    // Find the shard that owns the first benchmark and kill exactly it,
    // so at least one sub-job is guaranteed to hit a dead backend.
    let first_bench = export()
        .lines()
        .find_map(|l| {
            l.strip_prefix("{\"source\":\"")
                .and_then(|rest| rest.split('"').next())
                .map(str::to_string)
        })
        .expect("export has stream lines");
    let Ok(Reply::Route { addr: victim, .. }) = router.client().route(&first_bench) else {
        panic!("route request failed");
    };
    shards
        .iter_mut()
        .find(|s| s.addr == victim)
        .expect("victim is one of ours")
        .kill();

    // The fleet answer is still the exact offline bytes: the dead
    // shard's benchmarks failed over to live ones transparently.
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => {
            assert_eq!(
                doc,
                offline_doc(),
                "failover run diverged from offline simulate"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }

    // The router noticed: the victim is marked down and charged a
    // failover; the fleet keeps answering.
    let Reply::Shards { doc } = router.client().shards().unwrap() else {
        panic!("shards request failed");
    };
    assert!(
        doc.contains("\"up\":false"),
        "victim not marked down: {doc}"
    );
    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(doc.contains("\"shards_down\":1"), "stats disagree: {doc}");
    assert!(
        doc.contains("\"failovers\":1"),
        "no failover charged: {doc}"
    );
}

/// Fetches and parses the span set a daemon retains for `trace_id`.
fn trace_spans(client: &Client, trace_id: &str) -> Vec<Span> {
    match client.trace(trace_id).expect("trace request") {
        Reply::Trace { doc, .. } => {
            let v = serde_json::value_from_str(&doc).expect("trace doc parses");
            let Value::Array(items) = v else {
                panic!("trace doc is not an array: {doc}");
            };
            items.iter().filter_map(Span::from_value).collect()
        }
        other => panic!("unexpected trace reply {other:?}"),
    }
}

#[test]
fn trace_id_propagates_from_client_through_router_to_every_shard() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_millis(200),
    );
    let trace_id = "feedfacefeedface";
    let spec = JobSpec {
        trace_id: Some(trace_id.to_string()),
        ..fleet_spec()
    };
    let (reply, client_spans) = router
        .client()
        .submit_with_spans(export().as_bytes(), &spec)
        .expect("submit with spans");
    assert!(matches!(reply, Reply::Result { .. }), "got {reply:?}");

    // Client-side spans all carry the stamped id under node `client`.
    assert!(!client_spans.is_empty());
    for span in &client_spans {
        assert_eq!(span.trace_id, trace_id);
        assert_eq!(span.node, "client");
    }
    for stage in ["upload", "reply_wait", "job"] {
        assert!(
            client_spans.iter().any(|s| s.stage == stage),
            "client missing {stage} span: {client_spans:?}"
        );
    }

    // The router's trace frame stitches its own spans with every live
    // shard's — one id across all three layers.
    let spans = trace_spans(&router.client(), trace_id);
    assert!(spans.iter().all(|s| s.trace_id == trace_id));
    let router_spans: Vec<&Span> = spans
        .iter()
        .filter(|s| s.node.starts_with("router:"))
        .collect();
    for stage in ["accept", "ingest", "merge", "reply"] {
        assert!(
            router_spans.iter().any(|s| s.stage == stage),
            "router missing {stage} span: {spans:?}"
        );
    }
    // Every dispatch target the router recorded shows up as a serve
    // node that recorded its own spans, and vice versa.
    let dispatched: BTreeSet<&str> = router_spans
        .iter()
        .filter_map(|s| s.stage.strip_prefix("dispatch:"))
        .collect();
    let served: BTreeSet<&str> = spans
        .iter()
        .filter_map(|s| s.node.strip_prefix("serve:"))
        .collect();
    assert!(!dispatched.is_empty(), "router recorded no dispatch spans");
    assert_eq!(
        dispatched, served,
        "dispatch targets and serve nodes disagree"
    );
    // Each shard that got work timed the full serve pipeline.
    for addr in &served {
        let node = format!("serve:{addr}");
        for stage in ["accept", "queue", "ingest", "reply"] {
            assert!(
                spans.iter().any(|s| s.node == node && s.stage == stage),
                "{node} missing {stage} span"
            );
        }
        assert!(
            spans
                .iter()
                .any(|s| s.node == node && s.stage.starts_with("replay:")),
            "{node} missing replay spans"
        );
    }
}

#[test]
fn windowed_fleet_doc_is_byte_identical_to_offline_simulate() {
    let (shards, router, _) = start_spread_fleet();
    let spec = JobSpec {
        windows: true,
        ..fleet_spec()
    };
    match submit_via(&router.addr, &spec) {
        Reply::Result { doc, .. } => {
            assert_eq!(
                doc,
                offline_doc_with(false, true),
                "windowed fleet doc diverged from offline simulate --windows"
            );
            assert!(
                doc.contains("\"windows\":{\"window_accesses\":"),
                "windowed fleet doc carries no windows section"
            );
        }
        other => panic!("unexpected reply {other:?}"),
    }
    // The plain doc is untouched by the windows machinery: same job
    // without the flag still answers the exact pre-windows bytes.
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => assert_eq!(doc, offline_doc()),
        other => panic!("unexpected reply {other:?}"),
    }
    // Fleet stats sum the shards' drift annotations; the last window's
    // miss rate belongs to one node and stays out of the fleet doc.
    let fleet = stats_doc(&router.addr);
    let drift: u64 = shards
        .iter()
        .map(|s| doc_uint(&stats_doc(&s.addr), "drift_events"))
        .sum();
    assert_eq!(doc_uint(&fleet, "drift_events"), drift);
    assert!(serde::obj_field(&fleet, "stats", "window_miss_rate").is_err());
}

#[test]
fn watch_frames_flow_through_daemon_and_router() {
    let shard = TestServer::start();
    // Straight to the daemon: one snapshot, one row, sane fields.
    let rows = Client::new(&shard.addr)
        .watch_once(100)
        .expect("daemon watch");
    assert_eq!(rows.len(), 1, "daemon watch returned {rows:?}");
    assert!(!rows[0].node.is_empty());
    assert_eq!(rows[0].jobs_total, 0);

    // Through the router: the frame carries the backend's row (stitched
    // from a live one-shot shard sample), not router-local numbers.
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_millis(100));
    let mut frames = 0u64;
    let received = router
        .client()
        .watch(150, 2, |node, seq, rows| {
            assert!(node.starts_with("router:"), "watch frame from {node}");
            assert_eq!(seq, frames);
            assert_eq!(rows.len(), 1, "router frame rows: {rows:?}");
            assert_eq!(rows[0].node, format!("serve:{}", shard.addr));
            frames += 1;
            true
        })
        .expect("router watch");
    assert_eq!(received, 2);
    assert_eq!(frames, 2);
}

#[test]
fn single_daemon_refuses_fleet_frames() {
    let shard = TestServer::start();
    match Client::new(&shard.addr).shards() {
        Ok(Reply::Error { message }) => {
            assert!(message.contains("not a fleet router"), "got {message:?}");
        }
        other => panic!("expected an error reply, got {other:?}"),
    }

    // And a router proxies fetch: the downloaded export simulates.
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_millis(200));
    let mut out = Vec::new();
    let lines = router
        .client()
        .fetch("solitaire", 64, &mut out)
        .expect("fetch through the router");
    assert!(lines > 2);
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count() as u64, lines);
    let mut sink = std::io::sink();
    sink.write_all(text.as_bytes()).unwrap();
}

#[test]
fn router_refuses_oversize_lines_and_keeps_serving() {
    let shard = TestServer::start();
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_millis(200));
    let huge = "x".repeat(2 << 20);
    let cap = "1048576-byte line cap";

    // Inside an upload: the router buffers uploads itself, so the line
    // never reaches a shard.
    let mut upload: String = export().lines().take(3).map(|l| format!("{l}\n")).collect();
    upload.push_str(&huge);
    upload.push('\n');
    match router.client().submit(upload.as_bytes(), &fleet_spec()) {
        Ok(Reply::Error { message }) => assert!(message.contains(cap), "got {message:?}"),
        other => panic!("expected an error reply, got {other:?}"),
    }

    // As the first frame, with no newline at all.
    let stream = TcpStream::connect(&router.addr).unwrap();
    (&stream).write_all(huge.as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.contains(cap), "got {reply}");

    let Reply::Stats { doc } = router.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(doc.contains("\"lines_rejected\":2,"), "{doc}");
    match submit_via(&router.addr, &fleet_spec()) {
        Reply::Result { doc, .. } => assert_eq!(doc, offline_doc()),
        other => panic!("expected a result, got {other:?}"),
    }
}

/// One metric as the wire names it: `stats` key, Prometheus family,
/// `# TYPE` and `# HELP` text.
type Wire = (&'static str, &'static str, &'static str, &'static str);

/// The daemon's metrics, in `stats` doc order. Dashboards and scrapers
/// key on these names, so any rename or reordering is a wire change.
const DAEMON_WIRE: [Wire; 16] = [
    (
        "workers",
        "gencache_workers",
        "gauge",
        "Worker threads in the pool.",
    ),
    (
        "queue_depth",
        "gencache_queue_depth",
        "gauge",
        "Jobs queued, not yet running.",
    ),
    (
        "in_flight",
        "gencache_in_flight_jobs",
        "gauge",
        "Jobs currently executing on a worker.",
    ),
    (
        "connections",
        "gencache_connections_total",
        "counter",
        "Connections accepted.",
    ),
    (
        "jobs_accepted",
        "gencache_jobs_accepted_total",
        "counter",
        "Jobs admitted to the queue.",
    ),
    (
        "jobs_completed",
        "gencache_jobs_completed_total",
        "counter",
        "Jobs finished successfully.",
    ),
    (
        "jobs_rejected",
        "gencache_jobs_rejected_total",
        "counter",
        "Jobs shed with a busy reply.",
    ),
    (
        "jobs_failed",
        "gencache_jobs_failed_total",
        "counter",
        "Jobs that ended in an error reply.",
    ),
    (
        "jobs_panicked",
        "gencache_jobs_panicked_total",
        "counter",
        "Jobs that panicked mid-run.",
    ),
    (
        "bytes_ingested",
        "gencache_bytes_ingested_total",
        "counter",
        "Export bytes ingested across job uploads.",
    ),
    (
        "lines_served",
        "gencache_lines_served_total",
        "counter",
        "Export lines streamed back by fetch downloads.",
    ),
    (
        "lines_rejected",
        "gencache_lines_rejected_total",
        "counter",
        "Lines refused for exceeding the line cap.",
    ),
    (
        "uptime_ms",
        "gencache_uptime_ms",
        "gauge",
        "Milliseconds since the daemon started.",
    ),
    (
        "window_miss_rate",
        "gencache_window_miss_rate",
        "gauge",
        "Final-window miss rate of the most recent windowed job.",
    ),
    (
        "drift_events",
        "gencache_drift_events_total",
        "counter",
        "Drift annotations emitted across windowed jobs.",
    ),
    (
        "latency_us",
        "gencache_job_latency_us",
        "histogram",
        "Completed job wall-clock latency in microseconds.",
    ),
];

/// The router's metrics. The key is the one in the fleet `stats` doc's
/// `router` section, in section order; empty for a family that has no
/// key there.
const ROUTER_WIRE: [Wire; 15] = [
    (
        "",
        "gencache_uptime_ms",
        "gauge",
        "Milliseconds since the router started.",
    ),
    (
        "connections",
        "gencache_router_connections_total",
        "counter",
        "Connections accepted by the router.",
    ),
    (
        "fleet_jobs",
        "gencache_fleet_jobs_total",
        "counter",
        "Fleet jobs admitted past upload.",
    ),
    (
        "fleet_jobs_completed",
        "gencache_fleet_jobs_completed_total",
        "counter",
        "Fleet jobs merged and answered.",
    ),
    (
        "fleet_jobs_failed",
        "gencache_fleet_jobs_failed_total",
        "counter",
        "Fleet jobs that ended in an error frame.",
    ),
    (
        "subjobs",
        "gencache_subjobs_total",
        "counter",
        "Per-shard sub-jobs dispatched.",
    ),
    (
        "busy_retries",
        "gencache_busy_retries_total",
        "counter",
        "Busy replies retried under the backoff policy.",
    ),
    (
        "failovers",
        "gencache_failovers_total",
        "counter",
        "Sub-jobs re-routed to another shard.",
    ),
    (
        "upload_buffer_peak_bytes",
        "gencache_upload_buffer_peak_bytes",
        "gauge",
        "Largest single job upload buffered in router memory.",
    ),
    (
        "shards_up",
        "gencache_shards_up",
        "gauge",
        "Backends currently marked healthy.",
    ),
    (
        "shards_down",
        "gencache_shards_down",
        "gauge",
        "Backends currently marked down.",
    ),
    (
        "",
        "gencache_lines_rejected_total",
        "counter",
        "Lines the router refused for exceeding the line cap.",
    ),
    (
        "",
        "gencache_shard_up",
        "gauge",
        "Per-shard health (1 = up).",
    ),
    (
        "",
        "gencache_shard_last_ping_us",
        "gauge",
        "Per-shard round trip of the last successful health ping.",
    ),
    (
        "",
        "gencache_shard_jobs_routed",
        "gauge",
        "Per-shard sub-jobs answered successfully.",
    ),
];

fn stats_doc(addr: &str) -> Value {
    let Ok(Reply::Stats { doc }) = Client::new(addr).stats() else {
        panic!("stats request to {addr} failed");
    };
    serde_json::value_from_str(&doc).expect("stats doc parses")
}

fn doc_keys(doc: &Value) -> Vec<&str> {
    let pairs = doc.as_object().expect("stats doc is an object");
    pairs.iter().map(|(k, _)| k.as_str()).collect()
}

fn doc_uint(doc: &Value, key: &str) -> u64 {
    match serde::obj_field(doc, "stats", key) {
        Ok(Value::UInt(n)) => *n,
        other => panic!("stats field {key}: {other:?}"),
    }
}

fn metrics_body(addr: &str) -> String {
    let Ok(Reply::Metrics { body }) = Client::new(addr).metrics() else {
        panic!("metrics request to {addr} failed");
    };
    body
}

/// Every family of a Prometheus body as name → (type, help), after
/// checking that each sample line belongs to a declared family.
fn prom_families(body: &str) -> BTreeMap<String, (String, String)> {
    let mut help: BTreeMap<String, String> = BTreeMap::new();
    let mut families = BTreeMap::new();
    for line in body.lines() {
        if let Some(rest) = line.strip_prefix("# HELP ") {
            let (name, text) = rest.split_once(' ').expect("HELP line has text");
            help.insert(name.to_string(), text.to_string());
        } else if let Some(rest) = line.strip_prefix("# TYPE ") {
            let (name, kind) = rest.split_once(' ').expect("TYPE line has a type");
            let text = help.get(name).cloned().expect("HELP precedes TYPE");
            families.insert(name.to_string(), (kind.to_string(), text));
        } else {
            let series = line.split([' ', '{']).next().unwrap_or("");
            let family = ["_bucket", "_sum", "_count"]
                .iter()
                .find_map(|s| series.strip_suffix(s).filter(|f| families.contains_key(*f)))
                .unwrap_or(series);
            assert!(
                families.contains_key(family),
                "sample of no family: {line:?}"
            );
        }
    }
    families
}

fn wire_families(wire: &[Wire]) -> BTreeMap<String, (String, String)> {
    wire.iter()
        .map(|&(_, name, kind, help)| (name.to_string(), (kind.to_string(), help.to_string())))
        .collect()
}

/// The value of one unlabelled series of a Prometheus body.
fn prom_sample(body: &str, series: &str) -> f64 {
    body.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("no {series} sample in:\n{body}"))
        .parse()
        .expect("sample value is a number")
}

fn family_of(wire: &[Wire], key: &str) -> &'static str {
    wire.iter()
        .find(|w| w.0 == key)
        .expect("key is on the wire")
        .1
}

#[test]
fn metric_names_on_the_wire_are_pinned() {
    let shard = TestServer::start();
    let router = TestRouter::start(vec![shard.addr.clone()], Duration::from_secs(600));

    let keys: Vec<&str> = DAEMON_WIRE.iter().map(|w| w.0).collect();
    assert_eq!(doc_keys(&stats_doc(&shard.addr)), keys, "daemon stats keys");
    // Sixteen keys, sixteen families, one table: the daemon's stats keys
    // and its Prometheus families correspond one to one.
    let families = prom_families(&metrics_body(&shard.addr));
    assert_eq!(families, wire_families(&DAEMON_WIRE), "daemon families");
    assert_eq!(families.len(), keys.len());

    // One backend, so the per-shard row families are present too.
    assert_eq!(
        prom_families(&metrics_body(&router.addr)),
        wire_families(&ROUTER_WIRE),
        "router families"
    );
    let fleet = stats_doc(&router.addr);
    let section = serde::obj_field(&fleet, "stats", "router").expect("router section");
    let keys: Vec<&str> = ROUTER_WIRE
        .iter()
        .map(|w| w.0)
        .filter(|k| !k.is_empty())
        .collect();
    assert_eq!(doc_keys(section), keys, "router section keys");
}

/// Sends one line over the 1 MiB cap as a connection's first frame.
fn send_oversize_line(addr: &str) {
    let stream = TcpStream::connect(addr).unwrap();
    (&stream).write_all("x".repeat(2 << 20).as_bytes()).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(reply.contains("line cap"), "got {reply}");
}

#[test]
fn stats_metrics_and_watch_agree_across_a_fleet() {
    let shards: Vec<TestServer> = (0..3).map(|_| TestServer::start()).collect();
    // No health ping may land while the views are read: a ping is a job
    // on the shard it reaches.
    let router = TestRouter::start(
        shards.iter().map(|s| s.addr.clone()).collect(),
        Duration::from_secs(600),
    );
    let spec = JobSpec {
        specs: vec!["unified".to_string()],
        ..JobSpec::default()
    };
    let windowed = JobSpec {
        windows: true,
        ..spec.clone()
    };
    for job in [&spec, &spec, &windowed] {
        let reply = submit_via(&router.addr, job);
        assert!(matches!(reply, Reply::Result { .. }), "got {reply:?}");
    }
    send_oversize_line(&shards[0].addr);
    send_oversize_line(&router.addr);
    // Quiescence: a worker can still be winding down after its reply.
    for shard in &shards {
        let deadline = std::time::Instant::now() + Duration::from_secs(30);
        loop {
            let doc = stats_doc(&shard.addr);
            if doc_uint(&doc, "in_flight") == 0 && doc_uint(&doc, "queue_depth") == 0 {
                break;
            }
            assert!(std::time::Instant::now() < deadline, "shard never idled");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    let mut docs = Vec::new();
    for shard in &shards {
        let doc = stats_doc(&shard.addr);
        let body = metrics_body(&shard.addr);
        let rows = Client::new(&shard.addr)
            .watch_once(50)
            .expect("daemon watch");
        for key in [
            "jobs_completed",
            "jobs_rejected",
            "lines_rejected",
            "drift_events",
            "queue_depth",
            "in_flight",
        ] {
            let family = family_of(&DAEMON_WIRE, key);
            assert_eq!(
                doc_uint(&doc, key) as f64,
                prom_sample(&body, family),
                "{}: stats {key} vs {family}",
                shard.addr
            );
        }
        let latency = serde::obj_field(&doc, "stats", "latency_us").unwrap();
        assert_eq!(
            doc_uint(latency, "total") as f64,
            prom_sample(&body, "gencache_job_latency_us_count"),
            "{}: latency total vs _count",
            shard.addr
        );
        let row = &rows[0];
        assert_eq!(row.jobs_total, doc_uint(&doc, "jobs_completed"));
        assert_eq!(row.drift_events, doc_uint(&doc, "drift_events"));
        assert_eq!(row.queue_depth, doc_uint(&doc, "queue_depth"));
        assert_eq!(row.in_flight, doc_uint(&doc, "in_flight"));
        docs.push(doc);
    }
    let sum = |key: &str| docs.iter().map(|d| doc_uint(d, key)).sum::<u64>();
    assert_eq!(sum("lines_rejected"), 1);

    let fleet = stats_doc(&router.addr);
    let body = metrics_body(&router.addr);
    let section = serde::obj_field(&fleet, "stats", "router").expect("router section");
    assert_eq!(sum("jobs_completed"), doc_uint(section, "subjobs"));
    // Each shard counted one more connection for the router's stats
    // request, so `connections` is left out.
    for key in [
        "workers",
        "queue_depth",
        "in_flight",
        "jobs_accepted",
        "jobs_completed",
        "jobs_rejected",
        "jobs_failed",
        "jobs_panicked",
        "bytes_ingested",
        "lines_served",
        "drift_events",
    ] {
        assert_eq!(doc_uint(&fleet, key), sum(key), "fleet {key}");
    }
    let own_rejected = prom_sample(&body, "gencache_lines_rejected_total") as u64;
    assert_eq!(own_rejected, 1);
    assert_eq!(
        doc_uint(&fleet, "lines_rejected"),
        sum("lines_rejected") + own_rejected
    );
    let total = |d: &Value| doc_uint(serde::obj_field(d, "stats", "latency_us").unwrap(), "total");
    assert_eq!(total(&fleet), docs.iter().map(total).sum::<u64>());

    for &(key, family, _, _) in ROUTER_WIRE.iter().filter(|w| !w.0.is_empty()) {
        // The metrics request is the router's next connection.
        let expected = doc_uint(section, key) + u64::from(key == "connections");
        assert_eq!(
            prom_sample(&body, family),
            expected as f64,
            "router section {key} vs {family}"
        );
    }
}

/// Sends `bytes` on a fresh connection, ends the write side, and returns
/// the message of the error frame that answers them.
fn error_reply(addr: &str, bytes: &[u8]) -> String {
    let stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    (&stream).write_all(bytes).unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    match parse_reply(reply.trim_end()) {
        Ok(Reply::Error { message }) => message,
        other => panic!("expected an error frame from {addr}, got {other:?}"),
    }
}

/// A daemon and a router share one front end: the first-frame rules,
/// the line cap and the upload framing give the same error text on
/// both, only the cap counts a rejected line, and each node goes on
/// answering.
#[test]
fn daemon_and_router_refuse_bad_frames_alike() {
    let solo = TestServer::start();
    let backend = TestServer::start();
    // No health ping: the router's backend is not the daemon under test.
    let router = TestRouter::start(vec![backend.addr.clone()], Duration::from_secs(600));
    let job = encode_job(&JobSpec {
        specs: vec!["unified".to_string()],
        ..JobSpec::default()
    });
    let head: String = export().lines().take(3).map(|l| format!("{l}\n")).collect();
    let upload = |tail: String| format!("{job}\n{head}{tail}").into_bytes();
    let malformed = "{\"type\":\"stats\"";
    let unknown = "{\"type\":\"reboot\"}";
    let cases: Vec<(&str, Vec<u8>, String)> = vec![
        (
            "oversize first line",
            "x".repeat(2 << 20).into_bytes(),
            line_cap_error(),
        ),
        (
            "non-control first line",
            b"{\"schema\":\"gencache-events\"}\n".to_vec(),
            "expected a control frame ({\"type\":...}) first".to_string(),
        ),
        (
            "malformed frame",
            format!("{malformed}\n").into_bytes(),
            parse_request(malformed).unwrap_err(),
        ),
        (
            "unknown type",
            format!("{unknown}\n").into_bytes(),
            parse_request(unknown).unwrap_err(),
        ),
        (
            "end outside a job",
            format!("{}\n", encode_end(0)).into_bytes(),
            "end frame outside a job upload".to_string(),
        ),
        (
            "control frame inside an upload",
            upload(format!("{}\n", encode_stats_request())),
            "unexpected control frame inside an export upload".to_string(),
        ),
        (
            "end-count mismatch",
            upload(format!("{}\n", encode_end(5))),
            "upload truncated: client sent 5 export lines, received 3".to_string(),
        ),
        (
            "closed mid-upload",
            upload(String::new()),
            "connection closed mid-upload".to_string(),
        ),
    ];
    for (name, bytes, want) in &cases {
        for addr in [&solo.addr, &router.addr] {
            let rejected = || prom_sample(&metrics_body(addr), "gencache_lines_rejected_total");
            let before = rejected();
            assert_eq!(&error_reply(addr, bytes), want, "{name} at {addr}");
            let capped = *name == "oversize first line";
            assert_eq!(
                rejected() - before,
                f64::from(u8::from(capped)),
                "{name} at {addr}: lines_rejected"
            );
            match Client::new(addr.as_str()).ping(0) {
                Ok(Reply::Pong) => {}
                other => panic!("{name} at {addr}: ping got {other:?}"),
            }
        }
    }
    // A failed job's `reply` span reads `error: {message}` on both
    // nodes, the message being the text of its `error` reply.
    for (addr, node, trace_id) in [
        (&solo.addr, "serve:", "0badc0de00000001"),
        (&router.addr, "router:", "0badc0de00000002"),
    ] {
        let spec = JobSpec {
            specs: vec!["no-such-spec".to_string()],
            trace_id: Some(trace_id.to_string()),
            ..JobSpec::default()
        };
        let client = Client::new(addr.as_str());
        let message = match client.submit(export().as_bytes(), &spec) {
            Ok(Reply::Error { message }) => message,
            other => panic!("bad spec at {addr}: got {other:?}"),
        };
        // The node records the span just after writing the reply.
        let reply_span = (0..100)
            .find_map(|_| {
                let span = trace_spans(&client, trace_id)
                    .into_iter()
                    .find(|s| s.stage == "reply" && s.node.starts_with(node));
                if span.is_none() {
                    std::thread::sleep(Duration::from_millis(20));
                }
                span
            })
            .unwrap_or_else(|| panic!("no {node} reply span at {addr}"));
        assert_eq!(reply_span.outcome, format!("error: {message}"), "{addr}");
    }
}
