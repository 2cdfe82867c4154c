//! `gencache-shard` — the fleet router daemon.
//!
//! ```text
//! gencache-shard --backend HOST:PORT [--backend HOST:PORT ...]
//!                [--addr HOST:PORT] [--replicas N]
//!                [--read-timeout-ms N] [--health-interval-ms N]
//!                [--retries N] [--retry-ms N]
//!                [--log FILE|-|none] [--log-level LEVEL]
//!                [--log-max-bytes N] [--trace-capacity N]
//! ```
//!
//! Speaks the `gencache-serve` protocol on the front, consistent-hashes
//! each job's benchmarks across the backends, and merges the shard
//! replies byte-identically. Binds (port 0 = ephemeral), prints
//! `gencache-shard listening on HOST:PORT (N shards)` to stdout once
//! ready (scripts parse that line), and serves until SIGTERM/SIGINT,
//! then drains in-flight fleet jobs and exits 0.

use std::io::Write;
use std::process::ExitCode;
use std::time::Duration;

use gencache_serve::{signal, LogLevel, ShardConfig, ShardRouter};

const USAGE: &str = "use --backend HOST:PORT (repeatable) / --addr HOST:PORT / --replicas N / \
     --read-timeout-ms N / --health-interval-ms N / --retries N / --retry-ms N / \
     --log FILE|-|none / --log-level debug|info|warn|error / --log-max-bytes N / \
     --trace-capacity N";

fn parse_args(args: impl IntoIterator<Item = String>) -> ShardConfig {
    let mut config = ShardConfig {
        log: Some("-".to_string()),
        ..ShardConfig::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = it.next().expect("--addr needs HOST:PORT"),
            "--backend" => config
                .backends
                .push(it.next().expect("--backend needs HOST:PORT")),
            "--replicas" => {
                let v = it.next().expect("--replicas needs a value");
                let n: usize = v.parse().expect("--replicas must be a positive integer");
                assert!(n > 0, "--replicas must be positive");
                config.replicas = n;
            }
            "--read-timeout-ms" => {
                let v = it.next().expect("--read-timeout-ms needs a value");
                let n: u64 = v.parse().expect("--read-timeout-ms must be an integer");
                assert!(n > 0, "--read-timeout-ms must be positive");
                config.read_timeout = Duration::from_millis(n);
            }
            "--health-interval-ms" => {
                let v = it.next().expect("--health-interval-ms needs a value");
                let n: u64 = v.parse().expect("--health-interval-ms must be an integer");
                assert!(n > 0, "--health-interval-ms must be positive");
                config.health_interval = Duration::from_millis(n);
            }
            "--retries" => {
                let v = it.next().expect("--retries needs a value");
                config.retry.retries = v.parse().expect("--retries must be an integer");
            }
            "--retry-ms" => {
                let v = it.next().expect("--retry-ms needs a value");
                let n: u64 = v.parse().expect("--retry-ms must be an integer");
                assert!(n > 0, "--retry-ms must be positive");
                config.retry.base = Duration::from_millis(n);
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
    if config.backends.is_empty() {
        eprintln!("gencache-shard: no backends; {USAGE}");
        return ExitCode::FAILURE;
    }
    signal::install_handlers();
    let router = match ShardRouter::bind(&config) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gencache-shard: cannot bind {}: {e}", config.addr);
            return ExitCode::FAILURE;
        }
    };
    match router.local_addr() {
        Ok(addr) => {
            println!(
                "gencache-shard listening on {addr} ({} shards)",
                config.backends.len()
            );
            std::io::stdout().flush().ok();
        }
        Err(e) => {
            eprintln!("gencache-shard: cannot resolve bound address: {e}");
            return ExitCode::FAILURE;
        }
    }
    match router.run() {
        Ok(()) => {
            eprintln!("gencache-shard: drained, exiting");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gencache-shard: accept loop failed: {e}");
            ExitCode::FAILURE
        }
    }
}
