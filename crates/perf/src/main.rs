//! `gencache-perf`: run the benchmark workloads, or compare two result
//! files.
//!
//! ```text
//! gencache-perf run [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
//! gencache-perf compare A.json B.json
//! ```
//!
//! `run` prints each metric with its unit and ends its output with one
//! JSON result object; it exits non-zero when any output was wrong.
//! `--workload all` runs each workload in its own child process, so
//! that peak memory belongs to one workload.

use std::process::{Command, ExitCode, Stdio};

use gencache_perf::metrics::Contract;
use gencache_perf::results;
use gencache_perf::run::{run, RunOptions};
use gencache_perf::stats::{median, percentile};
use gencache_perf::workload::Workload;

const USAGE: &str = "usage:
  gencache-perf run [--workload NAME|all] [--seed S] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
  gencache-perf compare A.json B.json";

struct RunArgs {
    /// `None` means every workload.
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: 0,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = match name.as_str() {
                    "all" => None,
                    n => Some(Workload::parse(n).ok_or(format!("unknown workload {n:?}"))?),
                };
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s >= 0.0 && s.is_finite()) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

/// Runs one workload in this process and prints its report.
fn run_one(opts: RunOptions, contract: &Contract) -> Result<(bool, serde::Value), String> {
    let outcome = run(&opts, contract)?;
    let setups: Vec<String> = outcome.setups.iter().map(|s| format!("{s:.3}")).collect();
    println!(
        "{} (seed {}, {}): {} jobs attempted, {} failed, {}; plain job p50 {:.1} ms, p75 {:.1} ms; set-ups {} s",
        opts.workload.name(),
        opts.seed,
        if opts.traced { "traced" } else { "plain" },
        outcome.attempted,
        outcome.failed,
        if outcome.correct {
            "correct"
        } else {
            "INCORRECT"
        },
        median(&outcome.job_ms),
        percentile(&outcome.job_ms, 0.75),
        setups.join(" "),
    );
    for (metric, value) in &outcome.metrics {
        println!("  {:<32} {:>16.4} {}", metric.name, value, metric.unit);
    }
    for problem in &outcome.problems {
        println!("  problem: {problem}");
    }
    println!("{}", outcome.to_json());
    Ok((outcome.correct, outcome.to_value()))
}

/// Runs one workload in a child process, echoing its output, and
/// returns whether it succeeded and its result object.
fn run_child(opts: RunOptions) -> Result<(bool, serde::Value), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", opts.workload.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if opts.traced { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    let last = stdout.lines().last().unwrap_or_default();
    let result = serde_json::value_from_str(last)
        .map_err(|e| format!("{}: no result line ({e})", opts.workload.name()))?;
    Ok((output.status.success(), result))
}

fn cmd_run(args: &[String], contract: &Contract) -> Result<bool, String> {
    let args = parse_run(args)?;
    let seconds = args.seconds.unwrap_or(if args.quick {
        0.0
    } else {
        contract.run_seconds as f64
    });
    let options = |workload| RunOptions {
        workload,
        seed: args.seed,
        seconds,
        traced: args.traced,
        quick: args.quick,
    };
    let mut ok = true;
    let mut entries = Vec::new();
    match args.workload {
        Some(w) => {
            let (good, result) = run_one(options(w), contract)?;
            ok &= good;
            entries.push(results::run_entry(&options(w), result));
        }
        None => {
            // A workload that fails outright leaves no entry, but the
            // others still run and are recorded.
            for w in Workload::ALL {
                match run_child(options(w)) {
                    Ok((good, result)) => {
                        ok &= good;
                        entries.push(results::run_entry(&options(w), result));
                    }
                    Err(e) => {
                        eprintln!("gencache-perf: {e}");
                        ok = false;
                    }
                }
            }
        }
    }
    if let Some(path) = &args.out {
        results::append(path, entries)?;
    }
    Ok(ok)
}

fn cmd_compare(args: &[String], contract: &Contract) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare takes two result files".to_string());
    };
    let (table, any_worse) = results::compare(&results::load(a)?, &results::load(b)?, contract);
    print!("{table}");
    Ok(!any_worse)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::embedded();
    let outcome = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..], &contract),
        Some("compare") => cmd_compare(&args[1..], &contract),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gencache-perf: {e}");
            ExitCode::from(2)
        }
    }
}
