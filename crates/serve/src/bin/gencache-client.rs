//! `gencache-client` — CLI driver for the `gencache-serve` daemon.
//!
//! ```text
//! gencache-client submit --addr HOST:PORT --events FILE|- [--spec LABEL]...
//!                 [--grid] [--oracle] [--windows] [--capacity BYTES]
//!                 [--bench NAME] [--model LABEL] [--deadline-ms N]
//!                 [--metrics-out FILE] [--no-table] [--retries N]
//!                 [--retry-ms N] [--verbose]
//! gencache-client stats  --addr HOST:PORT
//! gencache-client ping   --addr HOST:PORT [--hold-ms N]
//! gencache-client fetch  --addr HOST:PORT --bench NAME [--scale N] [--out FILE|-]
//! gencache-client shards --addr HOST:PORT
//! gencache-client route  --addr HOST:PORT --bench NAME
//! gencache-client trace TRACE_ID --addr HOST:PORT
//! gencache-client metrics --addr HOST:PORT
//! gencache-client watch  --addr HOST:PORT [--interval-ms N] [--count N]
//!                 [--plain]
//! ```
//!
//! `submit --events -` reads the export from stdin; `--metrics-out`
//! writes the returned metrics document byte-identically to what
//! `simulate --metrics-out` produces for the same export and specs.
//! The address may name a plain daemon or a `gencache-shard` router —
//! the protocol is identical. `fetch` streams a server-side recording's
//! v2 export to stdout (or `--out`), ready to pipe into
//! `simulate --events -`. `shards`/`route` inspect a router's shard
//! table and hash placement.
//!
//! A `busy` reply is retried with capped exponential backoff
//! (`--retries`, default 3, delays `--retry-ms` ms doubling per
//! attempt, default 200); a server still busy after the last attempt
//! exits with status 3 so scripts can distinguish shedding from
//! failure. `--retries 0` restores give-up-immediately. Retries re-send
//! the upload, so a stdin export is buffered in memory when retries are
//! enabled; files are reopened per attempt.
//!
//! `submit --verbose` stamps a trace id, prints the client-side spans,
//! and fetches the server's stitched span tree afterwards. `trace`
//! fetches the span tree for any id the daemons still retain; `metrics`
//! prints the daemon's Prometheus text exposition.
//!
//! `watch` subscribes to the daemon's (or router's — the rows then
//! cover every live shard) `watch` stream and renders a live fleet
//! dashboard, redrawn per snapshot (`--interval-ms`, default 1000).
//! `--count N` stops after N snapshots (0 = until interrupted);
//! `--plain` appends one table per snapshot instead of redrawing in
//! place — use it when piping to a file. Ctrl-C and a server drain both
//! end the stream cleanly with exit 0.

use std::fs::File;
use std::io::{self, BufRead, BufReader, Cursor, Read, Write};
use std::process::ExitCode;

use gencache_bench::cli::{self, ensure, parse, unknown, value, ArgError};
use gencache_serve::telemetry::render_spans;
use gencache_serve::{Client, JobSpec, Reply, RetryPolicy, Span};
use serde::Value;

const USAGE: &str = "usage:
  gencache-client submit --addr HOST:PORT --events FILE|- [--spec LABEL]...
                  [--grid] [--oracle] [--windows] [--window-width N] [--regret-top N]
                  [--capacity BYTES] [--bench NAME] [--model LABEL] [--deadline-ms N]
                  [--metrics-out FILE] [--no-table] [--retries N] [--retry-ms N] [--verbose]
  gencache-client stats   --addr HOST:PORT
  gencache-client ping    --addr HOST:PORT [--hold-ms N]
  gencache-client fetch   --addr HOST:PORT --bench NAME [--scale N] [--out FILE|-]
  gencache-client shards  --addr HOST:PORT
  gencache-client route   --addr HOST:PORT --bench NAME
  gencache-client trace   TRACE_ID --addr HOST:PORT
  gencache-client metrics --addr HOST:PORT
  gencache-client watch   --addr HOST:PORT [--interval-ms N] [--count N] [--plain]";

fn open_input(path: &str) -> io::Result<Box<dyn BufRead>> {
    if path == "-" {
        Ok(Box::new(BufReader::new(io::stdin())))
    } else {
        Ok(Box::new(BufReader::new(File::open(path)?)))
    }
}

fn open_output(path: &str) -> io::Result<Box<dyn Write>> {
    if path == "-" {
        Ok(Box::new(io::stdout()))
    } else {
        Ok(Box::new(File::create(path)?))
    }
}

struct SubmitArgs {
    addr: String,
    events: String,
    spec: JobSpec,
    metrics_out: Option<String>,
    table: bool,
    retry: RetryPolicy,
    verbose: bool,
}

fn parse_submit(mut it: impl Iterator<Item = String>) -> Result<SubmitArgs, ArgError> {
    let mut args = SubmitArgs {
        addr: String::new(),
        events: String::new(),
        spec: JobSpec::default(),
        metrics_out: None,
        table: true,
        retry: RetryPolicy::default(),
        verbose: false,
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => args.addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--events" => args.events = value(&mut it, "--events needs a file path or -")?,
            "--spec" => args
                .spec
                .specs
                .push(value(&mut it, "--spec needs a label")?),
            "--grid" => args.spec.grid = true,
            "--oracle" => args.spec.oracle = true,
            "--windows" => args.spec.windows = true,
            "--window-width" => {
                let v = value(&mut it, "--window-width needs an access count")?;
                let width: u64 = parse(&v, "--window-width must be a positive integer")?;
                ensure(width > 0, "--window-width must be positive")?;
                args.spec.window_width = Some(width);
            }
            "--regret-top" => {
                let v = value(&mut it, "--regret-top needs a count")?;
                let top: u64 = parse(&v, "--regret-top must be a positive integer")?;
                ensure(top > 0, "--regret-top must be positive")?;
                args.spec.regret_top = Some(top);
            }
            "--capacity" => {
                let v = value(&mut it, "--capacity needs a byte count")?;
                args.spec.capacity = Some(parse(&v, "--capacity must be a positive integer")?);
            }
            "--bench" => args.spec.bench = Some(value(&mut it, "--bench needs a name")?),
            "--model" => args.spec.model = Some(value(&mut it, "--model needs a label")?),
            "--deadline-ms" => {
                let v = value(&mut it, "--deadline-ms needs a value")?;
                args.spec.deadline_ms = Some(parse(&v, "--deadline-ms must be an integer")?);
            }
            "--metrics-out" => {
                args.metrics_out = Some(value(&mut it, "--metrics-out needs a file path")?);
            }
            "--no-table" => args.table = false,
            "--retries" => {
                let v = value(&mut it, "--retries needs a count")?;
                args.retry.retries = parse(&v, "--retries must be an integer")?;
            }
            "--retry-ms" => {
                let v = value(&mut it, "--retry-ms needs a value")?;
                let ms: u64 = parse(&v, "--retry-ms must be an integer")?;
                args.retry.base = std::time::Duration::from_millis(ms);
            }
            "--verbose" => args.verbose = true,
            other => return Err(unknown(other)),
        }
    }
    ensure(!args.addr.is_empty(), "submit needs --addr HOST:PORT")?;
    ensure(!args.events.is_empty(), "submit needs --events FILE|-")?;
    Ok(args)
}

fn run_submit(it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let args = parse_submit(it)?;
    // Retries re-send the whole upload: a file is reopened per attempt,
    // but stdin cannot be rewound, so it is buffered once up front.
    let stdin_body = if args.events == "-" {
        let mut body = String::new();
        if let Err(e) = io::stdin().read_to_string(&mut body) {
            eprintln!("cannot read stdin: {e}");
            return Ok(ExitCode::FAILURE);
        }
        Some(body)
    } else {
        None
    };
    let open = || -> io::Result<Box<dyn BufRead>> {
        match &stdin_body {
            Some(body) => Ok(Box::new(Cursor::new(body.clone().into_bytes()))),
            None => open_input(&args.events),
        }
    };
    let client = Client::new(&args.addr);
    let attempts = args.retry.attempts();
    let mut spec = args.spec.clone();
    if args.verbose {
        spec.stamp_trace_id();
    }
    let submitted = if args.verbose {
        submit_with_retry_spans(&client, open, &spec, &args.retry)
    } else {
        client
            .submit_with_retry(open, &spec, &args.retry)
            .map(|reply| (reply, Vec::new()))
    };
    Ok(match submitted {
        Ok((
            Reply::Result {
                doc,
                table,
                benches,
                specs,
                elapsed_us,
            },
            spans,
        )) => {
            if args.table {
                print!("{table}");
            }
            eprintln!(
                "server simulated {benches} benchmark(s) x {specs} spec(s) in {:.3}s",
                elapsed_us as f64 / 1e6
            );
            if let Some(path) = &args.metrics_out {
                let written = File::create(path).and_then(|mut f| {
                    f.write_all(doc.as_bytes())?;
                    f.write_all(b"\n")
                });
                if let Err(e) = written {
                    eprintln!("cannot write {path}: {e}");
                    return Ok(ExitCode::FAILURE);
                }
                eprintln!("wrote metrics to {path}");
            }
            if args.verbose {
                if let Some(id) = &spec.trace_id {
                    print_trace_summary(&client, id, &spans);
                }
            }
            ExitCode::SUCCESS
        }
        Ok((Reply::Busy { queue_depth }, _)) => {
            eprintln!(
                "server still busy after {attempts} attempt(s) (queue depth {queue_depth}); \
                 giving up"
            );
            ExitCode::from(3)
        }
        Ok((Reply::Error { message }, _)) => {
            eprintln!("server error: {message}");
            ExitCode::FAILURE
        }
        Ok((other, _)) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("submit failed: {e}");
            ExitCode::FAILURE
        }
    })
}

/// [`Client::submit_with_retry`] with client-side span recording — the
/// spans of the final (non-busy) attempt are returned.
fn submit_with_retry_spans(
    client: &Client,
    mut open: impl FnMut() -> io::Result<Box<dyn BufRead>>,
    spec: &JobSpec,
    policy: &RetryPolicy,
) -> io::Result<(Reply, Vec<Span>)> {
    let mut attempt = 0u32;
    loop {
        let (reply, spans) = client.submit_with_spans(open()?, spec)?;
        match reply {
            Reply::Busy { .. } if attempt < policy.retries => {
                std::thread::sleep(policy.delay(attempt));
                attempt += 1;
            }
            other => return Ok((other, spans)),
        }
    }
}

/// Fetches the span set the daemon retains for `trace_id`.
fn fetch_spans(client: &Client, trace_id: &str) -> io::Result<Vec<Span>> {
    match client.trace(trace_id)? {
        Reply::Trace { doc, .. } => {
            let v = serde_json::value_from_str(&doc).map_err(io::Error::other)?;
            let Value::Array(items) = v else {
                return Err(io::Error::other("trace reply is not a span array"));
            };
            Ok(items.iter().filter_map(Span::from_value).collect())
        }
        Reply::Error { message } => Err(io::Error::other(message)),
        other => Err(io::Error::other(format!("unexpected reply: {other:?}"))),
    }
}

/// Prints the client's spans and the server's stitched view to stderr
/// (stdout stays reserved for the simulation table / metrics).
fn print_trace_summary(client: &Client, trace_id: &str, client_spans: &[Span]) {
    eprintln!("trace {trace_id}");
    eprint!("{}", render_spans(client_spans));
    match fetch_spans(client, trace_id) {
        Ok(spans) if !spans.is_empty() => eprint!("{}", render_spans(&spans)),
        Ok(_) => eprintln!("(server retained no spans for {trace_id})"),
        Err(e) => eprintln!("(could not fetch server spans: {e})"),
    }
}

fn run_stats(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "stats needs --addr HOST:PORT")?;
    Ok(match Client::new(&addr).stats() {
        Ok(Reply::Stats { doc }) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Ok(other) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("stats failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_ping(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    let mut hold_ms = 0u64;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--hold-ms" => {
                let v = value(&mut it, "--hold-ms needs a value")?;
                hold_ms = parse(&v, "--hold-ms must be an integer")?;
            }
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "ping needs --addr HOST:PORT")?;
    Ok(match Client::new(&addr).ping(hold_ms) {
        Ok(Reply::Pong) => {
            println!("pong");
            ExitCode::SUCCESS
        }
        Ok(Reply::Busy { queue_depth }) => {
            eprintln!("server busy (queue depth {queue_depth})");
            ExitCode::from(3)
        }
        Ok(other) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("ping failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_fetch(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    let mut bench = String::new();
    let mut scale = 1u64;
    let mut out_path = "-".to_string();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--bench" => bench = value(&mut it, "--bench needs a name")?,
            "--scale" => {
                let v = value(&mut it, "--scale needs a value")?;
                scale = parse(&v, "--scale must be a positive integer")?;
                ensure(scale > 0, "--scale must be positive")?;
            }
            "--out" => out_path = value(&mut it, "--out needs a file path or -")?,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "fetch needs --addr HOST:PORT")?;
    ensure(!bench.is_empty(), "fetch needs --bench NAME")?;
    let out = match open_output(&out_path) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("cannot open {out_path}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    };
    Ok(match Client::new(&addr).fetch(&bench, scale, out) {
        Ok(lines) => {
            eprintln!("fetched {lines} export lines for {bench}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("fetch failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_shards(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "shards needs --addr HOST:PORT")?;
    Ok(match Client::new(&addr).shards() {
        Ok(Reply::Shards { doc }) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Ok(Reply::Error { message }) => {
            eprintln!("server error: {message}");
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("shards failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_route(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    let mut bench = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--bench" => bench = value(&mut it, "--bench needs a name")?,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "route needs --addr HOST:PORT")?;
    ensure(!bench.is_empty(), "route needs --bench NAME")?;
    Ok(match Client::new(&addr).route(&bench) {
        Ok(Reply::Route { bench, addr }) => {
            println!("{bench} -> {addr}");
            ExitCode::SUCCESS
        }
        Ok(Reply::Error { message }) => {
            eprintln!("server error: {message}");
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("route failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_trace(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    let mut trace_id = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            other if !other.starts_with("--") && trace_id.is_empty() => {
                trace_id = other.to_string();
            }
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "trace needs --addr HOST:PORT")?;
    ensure(!trace_id.is_empty(), "trace needs a TRACE_ID")?;
    Ok(match fetch_spans(&Client::new(&addr), &trace_id) {
        Ok(spans) if spans.is_empty() => {
            eprintln!("no spans retained for trace {trace_id}");
            ExitCode::from(3)
        }
        Ok(spans) => {
            print!("{}", render_spans(&spans));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn run_metrics(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "metrics needs --addr HOST:PORT")?;
    Ok(match Client::new(&addr).metrics() {
        Ok(Reply::Metrics { body }) => {
            print!("{body}");
            ExitCode::SUCCESS
        }
        Ok(Reply::Error { message }) => {
            eprintln!("server error: {message}");
            ExitCode::FAILURE
        }
        Ok(other) => {
            eprintln!("unexpected reply: {other:?}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("metrics failed: {e}");
            ExitCode::FAILURE
        }
    })
}

/// One dashboard frame: a fixed-width table of every row in the
/// snapshot plus a footer naming the emitting node and sequence number.
fn render_watch_frame(node: &str, seq: u64, rows: &[gencache_serve::WatchRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<24} {:>8} {:>8} {:>7} {:>6} {:>6} {:>9} {:>9} {:>8} {:>7} {:>6}\n",
        "NODE",
        "UP(s)",
        "JOBS/S",
        "SHED/S",
        "INFL",
        "QUEUE",
        "P50(us)",
        "P99(us)",
        "JOBS",
        "W.MISS",
        "DRIFT"
    ));
    for r in rows {
        out.push_str(&format!(
            "{:<24} {:>8} {:>8.1} {:>7.1} {:>6} {:>6} {:>9} {:>9} {:>8} {:>6.1}% {:>6}\n",
            r.node,
            r.uptime_ms / 1000,
            r.jobs_per_sec,
            r.shed_per_sec,
            r.in_flight,
            r.queue_depth,
            r.p50_us,
            r.p99_us,
            r.jobs_total,
            r.window_miss_rate * 100.0,
            r.drift_events,
        ));
    }
    out.push_str(&format!(
        "-- {node} snapshot #{seq}: {} node(s) (Ctrl-C to stop)\n",
        rows.len()
    ));
    out
}

fn run_watch(mut it: impl Iterator<Item = String>) -> Result<ExitCode, ArgError> {
    let mut addr = String::new();
    let mut interval_ms = 1000u64;
    let mut count = 0u64;
    let mut plain = false;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--interval-ms" => {
                let v = value(&mut it, "--interval-ms needs a value")?;
                interval_ms = parse(&v, "--interval-ms must be an integer")?;
                ensure(interval_ms > 0, "--interval-ms must be positive")?;
            }
            "--count" => {
                let v = value(&mut it, "--count needs a value")?;
                count = parse(&v, "--count must be an integer")?;
            }
            "--plain" => plain = true,
            other => return Err(unknown(other)),
        }
    }
    ensure(!addr.is_empty(), "watch needs --addr HOST:PORT")?;
    gencache_serve::signal::install_handlers();
    // The read timeout outlives several intervals, so a timeout means a
    // dead server, not a slow tick; Ctrl-C interrupts the read directly.
    let timeout = std::time::Duration::from_millis((interval_ms * 3).max(5000));
    let client = Client::with_timeout(&addr, timeout);
    let mut stdout = io::stdout();
    let drew = std::cell::Cell::new(false);
    let result = client.watch(interval_ms, count, |node, seq, rows| {
        let frame = render_watch_frame(node, seq, rows);
        if plain {
            print!("{frame}");
        } else {
            // Clear + home, then the frame — a flicker-free redraw at
            // dashboard cadence without pulling in a TUI library.
            print!("\x1b[2J\x1b[H{frame}");
            drew.set(true);
        }
        stdout.flush().ok();
        !gencache_serve::signal::shutdown_requested()
    });
    // Leave the cursor on a clean line below the last frame — never
    // mid-escape-sequence — whatever ended the stream.
    if drew.get() {
        println!("\x1b[0m");
        io::stdout().flush().ok();
    }
    Ok(match result {
        Ok(received) => {
            eprintln!("watch ended after {received} snapshot(s)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("watch failed: {e}");
            ExitCode::FAILURE
        }
    })
}

fn main() -> ExitCode {
    let mut it = std::env::args().skip(1);
    let run = match it.next().as_deref() {
        Some("submit") => run_submit(it),
        Some("stats") => run_stats(it),
        Some("ping") => run_ping(it),
        Some("fetch") => run_fetch(it),
        Some("shards") => run_shards(it),
        Some("route") => run_route(it),
        Some("trace") => run_trace(it),
        Some("metrics") => run_metrics(it),
        Some("watch") => run_watch(it),
        Some("--help" | "-h") => Err(ArgError::Help),
        Some(other) => Err(ArgError::Usage(format!("unknown subcommand {other:?}"))),
        None => Err(ArgError::Usage("missing subcommand".to_string())),
    };
    run.unwrap_or_else(|e| cli::exit("gencache-client", USAGE, e))
}
