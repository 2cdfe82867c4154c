//! End-to-end service tests: an in-process daemon, real TCP clients.
//!
//! The export used throughout is recorded once (scale-64 interactive
//! benchmark) and shared across tests; each test binds its own daemon on
//! an ephemeral port and shuts it down through the server's flag, so the
//! suite exercises bind → serve → drain → join for every configuration.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use gencache_bench::ingest::{
    resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions, StreamIngest,
};
use gencache_bench::{export_telemetry, record_all, value_to_json, HarnessOptions};
use gencache_obs::{parse_stream_line, StreamLine};
use gencache_serve::proto::{encode_end, encode_job, line_cap_error, parse_reply};
use gencache_serve::{
    Client, JobSpec, Reply, RetryPolicy, Server, ServerConfig, Span, CHUNKS_IN_FLIGHT,
    CHUNK_BYTES, MAX_INGEST_BYTES,
};
use gencache_workloads::Suite;
use serde::Value;

/// Records one tiny benchmark and returns its v2 export text. Shared
/// across tests — recording is the slow part.
fn export() -> &'static str {
    static EXPORT: OnceLock<String> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("gencache-serve-test-{}", std::process::id()));
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
        export_telemetry(&opts, &runs[..1]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        text
    })
}

/// What `simulate --metrics-out` would write for this export and spec
/// set, minus the trailing newline: the same ingest + runner + document
/// path the daemon uses, run offline.
fn offline_doc(export: &str, labels: &[&str], grid: bool, oracle: bool) -> String {
    offline_doc_with(export, labels, grid, SimJobOptions::oracle(oracle))
}

/// [`offline_doc`] with every job option explicit.
fn offline_doc_with(export: &str, labels: &[&str], grid: bool, options: SimJobOptions) -> String {
    let mut ingest = StreamIngest::new();
    for line in export.lines() {
        ingest.push_line(line).unwrap();
    }
    let inputs = ingest.into_inputs(None, None, None).unwrap();
    let labels: Vec<String> = labels.iter().map(|s| s.to_string()).collect();
    let specs = resolve_sim_specs(&labels, grid).unwrap();
    let out = run_sim_job(&inputs, &specs, options, 1, None).unwrap();
    value_to_json(&sim_metrics_doc(&out))
}

struct TestServer {
    addr: String,
    flag: std::sync::Arc<std::sync::atomic::AtomicBool>,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(config: ServerConfig) -> TestServer {
        let server = Server::bind(&config).expect("bind ephemeral port");
        let addr = server.local_addr().unwrap().to_string();
        let flag = server.shutdown_flag();
        let handle = std::thread::spawn(move || server.run());
        TestServer {
            addr,
            flag,
            handle: Some(handle),
        }
    }

    fn client(&self) -> Client {
        Client::new(&self.addr)
    }

    /// Polls the stats endpoint until `pred` holds or the wait times out.
    fn wait_stats(&self, pred: impl Fn(&str) -> bool, what: &str) {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(Reply::Stats { doc }) = self.client().stats() {
                if pred(&doc) {
                    return;
                }
            }
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.flag.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .expect("server thread panicked")
                .expect("accept loop failed");
        }
    }
}

fn counter(doc: &str, name: &str) -> u64 {
    // The stats document is flat JSON with unsigned counters; a
    // substring scan keeps the test free of a parser dependency.
    let needle = format!("\"{name}\":");
    let at = doc.find(&needle).unwrap_or_else(|| panic!("{name} missing from {doc}"));
    doc[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .unwrap()
}

#[test]
fn concurrent_clients_match_offline_simulate_byte_for_byte() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(4),
        queue_depth: Some(8),
        ..ServerConfig::default()
    });

    // Five clients, five different spec sets, all over the same export.
    let cases: Vec<(Vec<&str>, bool, bool)> = vec![
        (vec!["unified"], false, false),
        (vec!["lru"], false, false),
        (vec!["gen-45-10-45@hit1"], false, false),
        (vec!["gen-60-20-20@hit2"], false, true),
        (vec![], false, false), // export defaults
    ];
    let expected: Vec<String> = cases
        .iter()
        .map(|(labels, grid, oracle)| offline_doc(export, labels, *grid, *oracle))
        .collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = cases
            .iter()
            .map(|(labels, grid, oracle)| {
                let addr = server.addr.clone();
                scope.spawn(move || {
                    let spec = JobSpec {
                        specs: labels.iter().map(|s| s.to_string()).collect(),
                        grid: *grid,
                        oracle: *oracle,
                        ..JobSpec::default()
                    };
                    Client::new(addr).submit(export.as_bytes(), &spec)
                })
            })
            .collect();
        for (i, handle) in handles.into_iter().enumerate() {
            match handle.join().expect("client thread panicked") {
                Ok(Reply::Result { doc, benches, specs, .. }) => {
                    assert_eq!(doc, expected[i], "client {i} diverged from offline simulate");
                    assert_eq!(benches, 1);
                    assert!(specs >= 1);
                }
                other => panic!("client {i}: unexpected outcome {other:?}"),
            }
        }
    });

    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert_eq!(counter(&doc, "jobs_completed"), 5);
    assert_eq!(counter(&doc, "jobs_failed"), 0);
    let upload = export.len() + encode_end(export.lines().count() as u64).len() + 1;
    assert_eq!(counter(&doc, "bytes_ingested"), 5 * upload as u64);
}

#[test]
fn full_queue_sheds_submissions_with_busy() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        queue_depth: Some(1),
        ..ServerConfig::default()
    });

    // Occupy the single worker with a held ping...
    let hold = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(1500))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 1 && counter(doc, "queue_depth") == 0,
        "worker to pick up the first held ping",
    );
    // ...park a second held ping in the queue's only slot...
    let queued = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(1))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 2,
        "second ping to fill the queue",
    );

    // ...and a submission is shed immediately instead of hanging.
    let started = Instant::now();
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Busy { .. }) => {}
        other => panic!("expected busy, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "busy reply should be immediate, took {:?}",
        started.elapsed()
    );

    assert!(matches!(hold.join().unwrap(), Ok(Reply::Pong)));
    assert!(matches!(queued.join().unwrap(), Ok(Reply::Pong)));

    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(counter(&doc, "jobs_rejected") >= 1);

    // Capacity is free again: the same submission now succeeds.
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Result { .. }) => {}
        other => panic!("expected result after drain, got {other:?}"),
    }
}

#[test]
fn malformed_and_truncated_uploads_fail_cleanly_and_daemon_survives() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });

    let raw = |frames: &[&str], cut: bool| -> String {
        let stream = TcpStream::connect(&server.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        for frame in frames {
            writer.write_all(frame.as_bytes()).unwrap();
            writer.write_all(b"\n").unwrap();
        }
        if cut {
            stream.shutdown(Shutdown::Write).unwrap();
        }
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        line
    };

    // A line that is neither a control frame nor valid export JSON.
    let job = "{\"type\":\"job\"}";
    let reply = raw(&[job, "{this is not json"], true);
    assert!(reply.contains("\"error\""), "want error reply, got {reply}");

    // A stream cut off before the end frame.
    let lines: Vec<&str> = export.lines().take(3).collect();
    let mut frames = vec![job];
    frames.extend(&lines);
    let reply = raw(&frames, true);
    assert!(reply.contains("\"error\""), "want error reply, got {reply}");
    assert!(
        reply.contains("connection closed mid-upload"),
        "want truncation diagnosis, got {reply}"
    );

    // An end frame whose claimed line count disagrees with what arrived.
    let mut frames = vec![job];
    frames.extend(&lines);
    frames.push("{\"type\":\"end\",\"lines\":9999}");
    let reply = raw(&frames, true);
    assert!(reply.contains("upload truncated"), "got {reply}");

    // A first frame that is not a control frame at all.
    let reply = raw(&["{\"schema\":\"gencache-events\"}"], true);
    assert!(reply.contains("\"error\""), "got {reply}");

    // The daemon shrugged all of it off: health, stats, and a real job
    // all still work on fresh connections.
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert!(counter(&doc, "jobs_failed") >= 2);
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Result { doc, .. }) => {
            assert_eq!(doc, offline_doc(export, &[], false, false));
        }
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn oversize_lines_are_refused_and_daemon_survives() {
    let export = export();
    let huge = "x".repeat(2 << 20);
    let job = "{\"type\":\"job\"}\n";
    let upload_prefix: String = export.lines().take(3).map(|l| format!("{l}\n")).collect();
    // A 2 MiB line with no newline, as the first frame and inside an
    // upload.
    for prefix in [String::new(), format!("{job}{upload_prefix}")] {
        let server = TestServer::start(ServerConfig {
            workers: Some(1),
            ..ServerConfig::default()
        });
        let stream = TcpStream::connect(&server.addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(prefix.as_bytes()).unwrap();
        writer.write_all(huge.as_bytes()).unwrap();
        stream.shutdown(Shutdown::Write).unwrap();
        let mut reply = String::new();
        BufReader::new(stream).read_line(&mut reply).unwrap();
        assert!(
            reply.contains("\"error\"") && reply.contains("1048576-byte line cap"),
            "prefix {prefix:?}: got {reply}"
        );

        let Reply::Stats { doc } = server.client().stats().unwrap() else {
            panic!("stats request failed");
        };
        assert_eq!(counter(&doc, "lines_rejected"), 1, "{doc}");
        assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
        match server.client().submit(export.as_bytes(), &JobSpec::default()) {
            Ok(Reply::Result { doc, .. }) => {
                assert_eq!(doc, offline_doc(export, &[], false, false));
            }
            other => panic!("expected result, got {other:?}"),
        }
    }
}

/// The export with every trace id relabeled by the order-preserving
/// injective map `id << 40 | 0x5a5`: the same run under sparse 64-bit
/// ids instead of the frontend's dense ones.
fn sparse_export(export: &str) -> String {
    fn relabel(value: &mut Value) {
        match value {
            Value::Object(pairs) => {
                for (key, v) in pairs {
                    match v {
                        Value::UInt(id) if key == "trace" => {
                            assert!(*id < 1 << 24, "id {id} too large to relabel");
                            *id = *id << 40 | 0x5a5;
                        }
                        _ => relabel(v),
                    }
                }
            }
            Value::Array(items) => items.iter_mut().for_each(relabel),
            _ => {}
        }
    }
    let mut out = String::new();
    for line in export.lines() {
        if let Ok(StreamLine::Event(_)) = parse_stream_line(line) {
            let mut value = serde_json::value_from_str(line).unwrap();
            relabel(&mut value);
            out.push_str(&value_to_json(&value));
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[test]
fn sparse_trace_ids_match_offline_simulate_and_daemon_survives() {
    let export = sparse_export(export());
    assert!(export.contains(&format!("\"trace\":{}", 1u64 << 40 | 0x5a5)));
    let labels = [
        "unified",
        "45-10-45@hit1",
        "30-20-50@evict5",
        "adaptive",
        "pseudo-circular",
        "lru",
        "clock",
        "flush-on-full",
        "preemptive-flush",
        "unbounded",
    ];
    let options = SimJobOptions {
        oracle: true,
        windows: true,
        ..SimJobOptions::default()
    };
    let expected = offline_doc_with(&export, &labels, false, options);
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let spec = JobSpec {
        specs: labels.iter().map(|s| s.to_string()).collect(),
        oracle: true,
        windows: true,
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &spec) {
        Ok(Reply::Result { doc, .. }) => {
            assert_eq!(doc, expected, "daemon diverged from offline simulate");
        }
        other => panic!("expected result, got {other:?}"),
    }
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
}

#[test]
fn fetch_streams_an_export_that_simulates_cleanly() {
    let server = TestServer::start(ServerConfig::default());
    let mut out = Vec::new();
    let lines = server
        .client()
        .fetch("solitaire", 64, &mut out)
        .expect("fetch a server-side recording");
    assert!(lines > 2, "expected header + meta + events, got {lines}");
    let text = String::from_utf8(out).unwrap();
    assert_eq!(text.lines().count() as u64, lines);

    // The download is a complete v2 export: it ingests and simulates.
    let doc = offline_doc(&text, &["unified"], false, false);
    assert!(doc.contains("\"unified\""));

    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert_eq!(counter(&doc, "lines_served"), lines);
}

#[test]
fn fetch_client_hanging_up_mid_export_fails_the_job_without_a_panic() {
    let server = TestServer::start(ServerConfig::default());
    let stream = TcpStream::connect(&server.addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    // A large download (tens of thousands of lines), so the worker is
    // still exporting when the connection goes away.
    writeln!(writer, "{}", gencache_serve::proto::encode_fetch("solitaire", 4)).unwrap();
    writer.flush().unwrap();
    let mut reader = BufReader::new(stream);
    let mut first = String::new();
    reader.read_line(&mut first).unwrap();
    assert!(first.contains("\"schema\""), "expected the export header, got {first:?}");
    drop(reader);
    drop(writer);

    // The connection thread sees the hang-up and fails the job; the
    // worker's export then stops with a write error, not a panic.
    server.wait_stats(
        |doc| counter(doc, "jobs_failed") == 1 && counter(doc, "in_flight") == 0,
        "the hung-up fetch to fail and its worker to finish",
    );
    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    assert_eq!(counter(&doc, "jobs_panicked"), 0, "{doc}");
    assert_eq!(counter(&doc, "jobs_completed"), 0, "{doc}");
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
}

#[test]
fn busy_submission_succeeds_under_retry_policy() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        queue_depth: Some(1),
        ..ServerConfig::default()
    });

    // Worker held, queue slot parked: the next submission is shed.
    let hold = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(800))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 1 && counter(doc, "queue_depth") == 0,
        "worker to pick up the held ping",
    );
    let queued = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(1))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 2,
        "second ping to fill the queue",
    );

    // With retries disabled, the shed surfaces as the final busy reply.
    let no_retry = server
        .client()
        .submit_with_retry(|| Ok(export.as_bytes()), &JobSpec::default(), &RetryPolicy::none())
        .unwrap();
    assert!(matches!(no_retry, Reply::Busy { .. }), "got {no_retry:?}");

    // Under the policy, the retries outlast the 800 ms hold and the same
    // submission completes without the caller doing anything.
    let reply = server
        .client()
        .submit_with_retry(
            || Ok(export.as_bytes()),
            &JobSpec::default(),
            &RetryPolicy::new(6, 250),
        )
        .unwrap();
    assert!(matches!(reply, Reply::Result { .. }), "got {reply:?}");

    assert!(matches!(hold.join().unwrap(), Ok(Reply::Pong)));
    assert!(matches!(queued.join().unwrap(), Ok(Reply::Pong)));
}

#[test]
fn deadline_covers_queue_wait_not_just_execution() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        queue_depth: Some(4),
        ..ServerConfig::default()
    });

    // Pin the only worker long enough that a queued job's whole budget
    // elapses before it is even picked up.
    let hold = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(700))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 1 && counter(doc, "queue_depth") == 0,
        "worker to pick up the held ping",
    );

    // The deadline clock starts at admission, so 100 ms of budget burned
    // by 700 ms of queue wait must fail — a job that is already stale
    // when a worker frees up is dead on dequeue, not silently run late.
    let spec = JobSpec {
        deadline_ms: Some(100),
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &spec) {
        Ok(Reply::Error { message }) => {
            assert!(
                message.contains("deadline"),
                "want a deadline diagnosis, got {message:?}"
            );
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert!(matches!(hold.join().unwrap(), Ok(Reply::Pong)));

    // With no queue wait eating it, a real budget completes fine.
    let roomy = JobSpec {
        deadline_ms: Some(30_000),
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &roomy) {
        Ok(Reply::Result { .. }) => {}
        other => panic!("expected result on an idle server, got {other:?}"),
    }
}

#[test]
fn interleaved_upload_streams_get_a_clear_error() {
    let export = export();
    let server = TestServer::start(ServerConfig::default());

    // Replay a completed stream's first event after the rest of the
    // export: the reappearing (source, model) key must be called out as
    // interleaving, not surface as a baffling divergence error.
    let first_event = export
        .lines()
        .find(|l| matches!(parse_stream_line(l), Ok(StreamLine::Event(_))))
        .expect("export has event lines");
    let interleaved = format!("{export}{first_event}\n");
    match server.client().submit(interleaved.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Error { message }) => {
            assert!(
                message.contains("interleave"),
                "want an interleaving diagnosis, got {message:?}"
            );
        }
        other => panic!("expected an interleaving error, got {other:?}"),
    }

    // The daemon took no damage: the clean export still simulates.
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Result { .. }) => {}
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn stats_report_panicked_jobs() {
    let server = TestServer::start(ServerConfig::default());
    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    // The counter exists and starts at zero; the pool's unit tests cover
    // that a panicking job increments it without killing the worker.
    assert_eq!(counter(&doc, "jobs_panicked"), 0);
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
fn happy_job_records_every_stage_and_metrics_expose_it() {
    let export = export();
    let server = TestServer::start(ServerConfig::default());
    let trace_id = "0123456789abcdef";
    let spec = JobSpec {
        trace_id: Some(trace_id.to_string()),
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &spec) {
        Ok(Reply::Result { .. }) => {}
        other => panic!("expected result, got {other:?}"),
    }

    // Every stage of the pipeline left a span under the stamped id.
    let spans = trace_spans(&server.client(), trace_id);
    assert!(spans.iter().all(|s| s.trace_id == trace_id));
    for stage in ["accept", "queue", "ingest", "reply"] {
        assert!(
            spans.iter().any(|s| s.stage == stage && s.outcome == "ok"),
            "missing ok {stage} span: {spans:?}"
        );
    }
    assert!(
        spans.iter().any(|s| s.stage.starts_with("replay:")),
        "missing replay spans: {spans:?}"
    );
    let ingest = spans.iter().find(|s| s.stage == "ingest").unwrap();
    assert!(ingest.lines.unwrap_or(0) > 0, "ingest span counts lines");
    assert!(
        ingest.bytes.unwrap_or(0) >= export.len() as u64,
        "ingest span counts bytes"
    );
    let reply = spans.iter().find(|s| s.stage == "reply").unwrap();
    assert!(reply.bytes.unwrap_or(0) > 0, "reply span counts bytes");

    // The metrics frame is well-formed Prometheus text exposition:
    // every line is a comment header or `name[{labels}] value`.
    let Ok(Reply::Metrics { body }) = server.client().metrics() else {
        panic!("metrics request failed");
    };
    assert!(!body.is_empty());
    for line in body.lines() {
        if line.starts_with("# HELP ") || line.starts_with("# TYPE ") {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("metrics line has no sample value: {line:?}")
        });
        assert!(!series.is_empty(), "empty series name: {line:?}");
        assert!(
            value == "+Inf" || value.parse::<f64>().is_ok(),
            "unparseable sample value in {line:?}"
        );
    }
    for series in [
        "gencache_jobs_accepted_total 1",
        "gencache_jobs_completed_total 1",
        "gencache_job_latency_us_bucket{le=\"+Inf\"} 1",
        "gencache_job_latency_us_count 1",
        "gencache_workers ",
        "gencache_uptime_ms ",
    ] {
        assert!(body.contains(series), "metrics missing {series:?}:\n{body}");
    }
}

#[test]
fn shed_and_deadline_jobs_leave_diagnosable_spans() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        queue_depth: Some(1),
        ..ServerConfig::default()
    });

    // Hold the worker and park a second ping in the only queue slot,
    // exactly like the shedding test — then submit with a trace id.
    let hold = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(1200))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 1 && counter(doc, "queue_depth") == 0,
        "worker to pick up the held ping",
    );
    let queued = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(600))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 2,
        "second ping to fill the queue",
    );

    let shed_id = "5hed5hed5hed5hed";
    let spec = JobSpec {
        trace_id: Some(shed_id.to_string()),
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &spec) {
        Ok(Reply::Busy { .. }) => {}
        other => panic!("expected busy, got {other:?}"),
    }
    let spans = trace_spans(&server.client(), shed_id);
    assert!(
        spans.iter().any(|s| s.stage == "accept" && s.outcome == "busy"),
        "shed job must record a busy accept span: {spans:?}"
    );

    // A queued job whose deadline expires before pickup records the
    // wait that killed it — and never reaches replay. Wait for the
    // queued ping to reach the worker (queue empty, one in flight) so
    // the next submission queues behind its 600 ms instead of shedding.
    server.wait_stats(
        |doc| counter(doc, "in_flight") == 1 && counter(doc, "queue_depth") == 0,
        "queued ping to reach the worker",
    );
    let late_id = "1a7e1a7e1a7e1a7e";
    let spec = JobSpec {
        trace_id: Some(late_id.to_string()),
        deadline_ms: Some(50),
        ..JobSpec::default()
    };
    match server.client().submit(export.as_bytes(), &spec) {
        Ok(Reply::Error { message }) => {
            assert!(message.contains("deadline"), "got {message:?}");
        }
        other => panic!("expected a deadline error, got {other:?}"),
    }
    assert!(matches!(hold.join().unwrap(), Ok(Reply::Pong)));
    assert!(matches!(queued.join().unwrap(), Ok(Reply::Pong)));
    let spans = trace_spans(&server.client(), late_id);
    assert!(
        spans.iter().any(|s| s.stage == "accept" && s.outcome == "ok"),
        "late job was admitted: {spans:?}"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.stage == "queue" && s.outcome.contains("deadline")),
        "queue span must carry the deadline outcome: {spans:?}"
    );
    assert!(
        !spans.iter().any(|s| s.stage.starts_with("replay:")),
        "a dead-on-dequeue job must not replay: {spans:?}"
    );
}

#[test]
fn idle_connection_times_out_instead_of_wedging() {
    // A client that connects and sends nothing must not pin the
    // connection thread forever: the read timeout reclaims it.
    let server = TestServer::start(ServerConfig {
        read_timeout: Duration::from_millis(100),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(&server.addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut line = String::new();
    // The server gives up on us; EOF or a reset both prove it.
    let n = reader.read_line(&mut line).unwrap_or(0);
    assert!(
        n == 0 || line.contains("\"error\""),
        "expected drop or error, got {line:?}"
    );
    drop(stream);
    // And the daemon is still healthy.
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
}

/// Sends `writes` to the daemon as separate socket writes, `pause`
/// apart, closes the write side, and returns the parsed reply frame.
fn raw_exchange(addr: &str, writes: &[&[u8]], pause: Duration) -> Reply {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    let mut writer = stream.try_clone().unwrap();
    for (i, bytes) in writes.iter().enumerate() {
        if i > 0 {
            std::thread::sleep(pause);
        }
        writer.write_all(bytes).unwrap();
    }
    stream.shutdown(Shutdown::Write).unwrap();
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).unwrap();
    parse_reply(line.trim_end()).unwrap()
}

/// The error offline ingest reports for `lines`, as the daemon's worker
/// would on the same upload.
fn offline_ingest_error(lines: &[&str]) -> String {
    let mut ingest = StreamIngest::new();
    lines
        .iter()
        .find_map(|line| ingest.push_line(line).err())
        .expect("the lines hold a bad one")
}

fn stats_doc(server: &TestServer) -> String {
    let Reply::Stats { doc } = server.client().stats().unwrap() else {
        panic!("stats request failed");
    };
    doc
}

#[test]
fn ingest_memory_is_bounded_in_bytes_not_lines() {
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let hold = {
        let addr = server.addr.clone();
        std::thread::spawn(move || Client::new(addr).ping(1500))
    };
    server.wait_stats(
        |doc| counter(doc, "jobs_accepted") >= 1 && counter(doc, "queue_depth") == 0,
        "worker to pick up the held ping",
    );

    // A few hundred 100 KiB whitespace-only lines queued behind the held
    // worker: nothing is ingested, so the connection thread may only read
    // as far ahead as the chunk window lets it.
    let lines = 256u64;
    let blank = format!("{}\n", " ".repeat(100 * 1024));
    let uploader = {
        let addr = server.addr.clone();
        let blank = blank.clone();
        std::thread::spawn(move || {
            let stream = TcpStream::connect(&addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            writeln!(writer, "{}", encode_job(&JobSpec::default())).unwrap();
            for _ in 0..lines {
                writer.write_all(blank.as_bytes()).unwrap();
            }
            writeln!(writer, "{}", encode_end(lines)).unwrap();
            let mut reply = String::new();
            BufReader::new(stream).read_line(&mut reply).unwrap();
            reply
        })
    };
    // Each line is a chunk by itself: the queued chunks, the one the
    // connection thread is blocked sending and at most one more line are
    // all it may have read.
    let line_bytes = blank.len() as u64;
    let window = (CHUNKS_IN_FLIGHT + 2) as u64 * line_bytes;
    assert!(window <= MAX_INGEST_BYTES as u64);
    server.wait_stats(
        |doc| counter(doc, "bytes_ingested") >= window - line_bytes,
        "the upload to fill the chunk window",
    );
    for _ in 0..20 {
        let ingested = counter(&stats_doc(&server), "bytes_ingested");
        assert!(
            ingested <= window,
            "read {ingested} bytes ahead of a held worker; the chunk window is {window}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    assert!(matches!(hold.join().unwrap(), Ok(Reply::Pong)));
    // Blank lines alone are no export, so the job itself fails; what
    // matters is that the whole upload went through and was answered.
    let reply = uploader.join().unwrap();
    assert!(reply.contains("\"error\""), "got {reply}");
    assert_eq!(
        counter(&stats_doc(&server), "bytes_ingested"),
        lines * blank.len() as u64 + encode_end(lines).len() as u64 + 1
    );
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
    let export = export();
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Result { doc, .. }) => assert_eq!(doc, offline_doc(export, &[], false, false)),
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn chunk_boundaries_keep_served_docs_byte_identical() {
    let export = export();
    assert!(
        export.len() > 3 * CHUNK_BYTES + 64,
        "the export must span several chunks"
    );
    let expected = offline_doc(export, &[], false, false);
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });

    let header = format!("{}\n", encode_job(&JobSpec::default()));
    let framed = |body: &str, lines: usize| format!("{header}{body}{}\n", encode_end(lines as u64));
    let upload = framed(export, export.lines().count());
    // The export again with blank and whitespace-only lines between its
    // lines and some CRLF endings: blank lines count toward `end` but
    // ingest to nothing.
    let mut padded = String::new();
    let mut padded_lines = 0;
    for (i, line) in export.lines().enumerate() {
        padded.push_str(line);
        padded.push_str(if i % 3 == 0 { "\r\n" } else { "\n" });
        padded_lines += 1;
        if i % 5 == 0 {
            padded.push('\n');
            padded_lines += 1;
        }
        if i % 7 == 0 {
            padded.push_str(" \t \n");
            padded_lines += 1;
        }
    }
    let padded = framed(&padded, padded_lines);

    let bytes = upload.as_bytes();
    // Writes that cut lines mid-way at 64 KiB - 1, + 1 and exactly.
    let (a, rest) = bytes.split_at(CHUNK_BYTES - 1);
    let (b, rest) = rest.split_at(CHUNK_BYTES + 1);
    let (c, rest) = rest.split_at(CHUNK_BYTES);
    let straddled: Vec<&[u8]> = vec![a, b, c, rest];
    // A prefix trickled one byte per write, then the rest at once.
    let (prefix, tail) = bytes.split_at(2000);
    let mut trickled: Vec<&[u8]> = prefix.chunks(1).collect();
    trickled.push(tail);
    let cases = [
        ("one write", vec![bytes], Duration::ZERO),
        ("straddled writes", straddled, Duration::from_millis(20)),
        ("trickled prefix", trickled, Duration::ZERO),
        ("blank lines", vec![padded.as_bytes()], Duration::ZERO),
    ];
    // Every byte after the job frame is counted, exactly.
    let mut ingested = 0u64;
    for (name, writes, pause) in cases {
        match raw_exchange(&server.addr, &writes, pause) {
            Reply::Result { doc, .. } => assert_eq!(doc, expected, "{name}: diverged"),
            other => panic!("{name}: expected result, got {other:?}"),
        }
        let sent: usize = writes.iter().map(|w| w.len()).sum();
        ingested += (sent - header.len()) as u64;
        assert_eq!(
            counter(&stats_doc(&server), "bytes_ingested"),
            ingested,
            "{name}: byte count"
        );
    }
}

#[test]
fn upload_errors_keep_their_texts_and_order() {
    let export = export();
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        ..ServerConfig::default()
    });
    let header = format!("{}\n", encode_job(&JobSpec::default()));
    let head: Vec<&str> = export.lines().take(3).collect();
    let expect_error = |upload: &str, want: &str| {
        match raw_exchange(&server.addr, &[upload.as_bytes()], Duration::ZERO) {
            Reply::Error { message } => assert_eq!(message, want),
            other => panic!("expected error {want:?}, got {other:?}"),
        }
    };

    // A malformed line inside a chunk, then more lines and EOF: the
    // worker reports the bad line, not the missing end frame.
    let bad = "{this is not json";
    let mut lines = head.clone();
    lines.push(bad);
    lines.extend(export.lines().skip(3).take(2));
    let upload: String = std::iter::once(header.clone())
        .chain(lines.iter().map(|l| format!("{l}\n")))
        .collect();
    expect_error(&upload, &offline_ingest_error(&lines));

    // An end frame whose count disagrees with the lines that arrived.
    let body: String = head.iter().map(|l| format!("{l}\n")).collect();
    let upload = format!("{header}{body}{}\n", encode_end(9999));
    expect_error(
        &upload,
        "upload truncated: client sent 9999 export lines, received 3",
    );
    // Cut off before any end frame.
    expect_error(&format!("{header}{body}"), "connection closed mid-upload");

    // An oversize line after valid ones: the cap error, counted once.
    let upload = format!("{header}{body}{}\n", "x".repeat(2 << 20));
    expect_error(&upload, &line_cap_error());
    assert_eq!(counter(&stats_doc(&server), "lines_rejected"), 1);

    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
    match server.client().submit(export.as_bytes(), &JobSpec::default()) {
        Ok(Reply::Result { doc, .. }) => assert_eq!(doc, offline_doc(export, &[], false, false)),
        other => panic!("expected result, got {other:?}"),
    }
}

#[test]
fn deadline_during_ingest_is_answered_before_the_read_timeout() {
    // Past the deadline, two more lines and no end frame: the worker
    // must see the first of them (it is not held back for a fuller
    // chunk) and fail the job.
    deadline_passes_before_late_lines(2);
}

#[test]
fn deadline_passed_before_a_single_late_line_is_answered_at_once() {
    // One line and then silence: the connection thread must stop
    // reading instead of waiting for a next line that never comes.
    deadline_passes_before_late_lines(1);
}

/// Uploads three lines, sleeps past a 200 ms deadline, sends `late`
/// more lines 100 ms apart with no end frame, and expects the deadline
/// error well before the 5 s read timeout.
fn deadline_passes_before_late_lines(late: usize) {
    let export = export();
    let read_timeout = Duration::from_secs(5);
    let server = TestServer::start(ServerConfig {
        workers: Some(1),
        read_timeout,
        ..ServerConfig::default()
    });
    let trace_id = "dead1e55dead1e55";
    let spec = JobSpec {
        trace_id: Some(trace_id.to_string()),
        deadline_ms: Some(200),
        ..JobSpec::default()
    };
    let stream = TcpStream::connect(&server.addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(2 * read_timeout)).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut lines = export.lines();
    writeln!(writer, "{}", encode_job(&spec)).unwrap();
    for line in lines.by_ref().take(3) {
        writeln!(writer, "{line}").unwrap();
    }
    std::thread::sleep(Duration::from_millis(400));
    let sent = Instant::now();
    for line in lines.take(late) {
        writeln!(writer, "{line}").unwrap();
        std::thread::sleep(Duration::from_millis(100));
    }
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    assert!(
        sent.elapsed() < read_timeout / 2,
        "answered after {:?}, near the {read_timeout:?} read timeout",
        sent.elapsed()
    );
    match parse_reply(reply.trim_end()) {
        Ok(Reply::Error { message }) => assert_eq!(message, "deadline exceeded during ingest"),
        other => panic!("expected a deadline error, got {other:?}"),
    }
    drop(writer);
    let spans = trace_spans(&server.client(), trace_id);
    assert!(
        spans
            .iter()
            .any(|s| s.stage == "ingest" && s.outcome == "error: deadline exceeded during ingest"),
        "ingest span must carry the deadline outcome: {spans:?}"
    );
    assert!(matches!(server.client().ping(0), Ok(Reply::Pong)));
}
