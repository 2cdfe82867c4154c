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

use gencache_bench::cli::{self, ensure, parse, unknown, value, ArgError};
use gencache_serve::{signal, LogLevel, ShardConfig, ShardRouter};

const USAGE: &str = "usage:
  gencache-shard --backend HOST:PORT [--backend HOST:PORT]... [--addr HOST:PORT]
                 [--replicas N] [--read-timeout-ms N] [--health-interval-ms N]
                 [--retries N] [--retry-ms N] [--log FILE|-|none]
                 [--log-level debug|info|warn|error] [--log-max-bytes N] [--trace-capacity N]";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ShardConfig, ArgError> {
    let mut config = ShardConfig {
        log: Some("-".to_string()),
        ..ShardConfig::default()
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--addr" => config.addr = value(&mut it, "--addr needs HOST:PORT")?,
            "--backend" => config
                .backends
                .push(value(&mut it, "--backend needs HOST:PORT")?),
            "--replicas" => {
                let v = value(&mut it, "--replicas needs a value")?;
                let n: usize = parse(&v, "--replicas must be a positive integer")?;
                ensure(n > 0, "--replicas must be positive")?;
                config.replicas = n;
            }
            "--read-timeout-ms" => {
                let v = value(&mut it, "--read-timeout-ms needs a value")?;
                let n: u64 = parse(&v, "--read-timeout-ms must be an integer")?;
                ensure(n > 0, "--read-timeout-ms must be positive")?;
                config.read_timeout = Duration::from_millis(n);
            }
            "--health-interval-ms" => {
                let v = value(&mut it, "--health-interval-ms needs a value")?;
                let n: u64 = parse(&v, "--health-interval-ms must be an integer")?;
                ensure(n > 0, "--health-interval-ms must be positive")?;
                config.health_interval = Duration::from_millis(n);
            }
            "--retries" => {
                let v = value(&mut it, "--retries needs a value")?;
                config.retry.retries = parse(&v, "--retries must be an integer")?;
            }
            "--retry-ms" => {
                let v = value(&mut it, "--retry-ms needs a value")?;
                let n: u64 = parse(&v, "--retry-ms must be an integer")?;
                ensure(n > 0, "--retry-ms must be positive")?;
                config.retry.base = Duration::from_millis(n);
            }
            "--log" => config.log = Some(value(&mut it, "--log needs FILE, -, or none")?),
            "--log-level" => {
                let v = value(&mut it, "--log-level needs a level")?;
                config.log_level = LogLevel::parse(&v).ok_or_else(|| {
                    ArgError::Usage("--log-level must be debug|info|warn|error".to_string())
                })?;
            }
            "--log-max-bytes" => {
                let v = value(&mut it, "--log-max-bytes needs a value")?;
                let n: u64 = parse(&v, "--log-max-bytes must be an integer")?;
                config.log_max_bytes = (n > 0).then_some(n);
            }
            "--trace-capacity" => {
                let v = value(&mut it, "--trace-capacity needs a value")?;
                config.trace_capacity = parse(&v, "--trace-capacity must be an integer")?;
            }
            other => return Err(unknown(other)),
        }
    }
    ensure(
        !config.backends.is_empty(),
        "no backends; give --backend HOST:PORT",
    )?;
    Ok(config)
}

fn main() -> ExitCode {
    let config = match parse_args(std::env::args().skip(1)) {
        Ok(config) => config,
        Err(e) => return cli::exit("gencache-shard", USAGE, e),
    };
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
