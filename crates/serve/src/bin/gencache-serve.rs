//! `gencache-serve` — the streaming simulation daemon.
//!
//! ```text
//! gencache-serve [--addr HOST:PORT] [--workers N] [--queue N]
//!                [--read-timeout-ms N] [--deadline-ms N]
//!                [--log FILE|-|none] [--log-level LEVEL]
//!                [--log-max-bytes N] [--trace-capacity N]
//! ```
//!
//! Binds (port 0 = ephemeral), prints `gencache-serve listening on
//! HOST:PORT` to stdout once ready (scripts parse that line), and
//! serves until SIGTERM/SIGINT, then drains in-flight jobs and exits 0.
//!
//! Structured JSONL logging defaults to stderr at `warn`; `--log none`
//! silences it, `--log FILE` appends to a file, `--log-level
//! debug|info|warn|error` sets the floor. `--log-max-bytes N` caps a
//! `--log FILE` target: when the file would exceed N bytes it is
//! rotated once to `FILE.1` (replacing any previous `FILE.1`) and
//! logging continues in a fresh file; the default (0) never rotates.
//! `--trace-capacity 0` turns span recording off entirely.
//! Job uploads are bounded in bytes (6 MiB of chunks in flight per job,
//! `gencache_serve::MAX_INGEST_BYTES`); a `fetch` download's channel
//! and the streamed recorder behind it hold at most
//! `gencache_sim::DEFAULT_STREAM_DEPTH` lines.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use gencache_serve::{signal, LogLevel, Server, ServerConfig};

const USAGE: &str = "use --addr HOST:PORT / --workers N / --queue N / \
     --read-timeout-ms N / --deadline-ms N / \
     --log FILE|-|none / --log-level debug|info|warn|error / --log-max-bytes N / --trace-capacity N";

fn parse_args(args: impl IntoIterator<Item = String>) -> ServerConfig {
    let mut config = ServerConfig {
        log: Some("-".to_string()),
        ..ServerConfig::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = it.next().expect("--addr needs HOST:PORT"),
            "--workers" => {
                let v = it.next().expect("--workers needs a value");
                let n: usize = v.parse().expect("--workers must be a positive integer");
                assert!(n > 0, "--workers must be positive");
                config.workers = Some(n);
            }
            "--queue" => {
                let v = it.next().expect("--queue needs a value");
                let n: usize = v.parse().expect("--queue must be a positive integer");
                assert!(n > 0, "--queue must be positive");
                config.queue_depth = Some(n);
            }
            "--read-timeout-ms" => {
                let v = it.next().expect("--read-timeout-ms needs a value");
                let n: u64 = v.parse().expect("--read-timeout-ms must be an integer");
                assert!(n > 0, "--read-timeout-ms must be positive");
                config.read_timeout = Duration::from_millis(n);
            }
            "--deadline-ms" => {
                let v = it.next().expect("--deadline-ms needs a value");
                config.default_deadline_ms = v.parse().expect("--deadline-ms must be an integer");
            }
            "--log" => config.log = Some(it.next().expect("--log needs FILE, -, or none")),
            "--log-level" => {
                let v = it.next().expect("--log-level needs a level");
                config.log_level =
                    LogLevel::parse(&v).expect("--log-level must be debug|info|warn|error");
            }
            "--log-max-bytes" => {
                let v = it.next().expect("--log-max-bytes needs a value");
                let n: u64 = v.parse().expect("--log-max-bytes must be an integer");
                config.log_max_bytes = (n > 0).then_some(n);
            }
            "--trace-capacity" => {
                let v = it.next().expect("--trace-capacity needs a value");
                config.trace_capacity = v.parse().expect("--trace-capacity must be an integer");
            }
            other => panic!("unknown argument {other:?}; {USAGE}"),
        }
    }
    config
}

fn main() -> ExitCode {
    let config = parse_args(std::env::args().skip(1));
    signal::install_handlers();
    let server = match Server::bind(&config) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gencache-serve: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("gencache-serve listening on {addr}");
            std::io::stdout().flush().ok();
        }
        Err(e) => {
            eprintln!("gencache-serve: cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match server.run() {
        Ok(()) => {
            eprintln!("gencache-serve: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gencache-serve: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
