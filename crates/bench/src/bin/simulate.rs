//! `simulate` — offline what-if replay of an exported event stream
//! against hypothetical cache layouts.
//!
//! The paper's methodology separates the frontend request stream from
//! cache management: one recorded stream can evaluate *any* layout.
//! This tool closes that loop offline. It parses a `--events-out`
//! export back into each benchmark's canonical frontend trace — one
//! line at a time through the shared bounded-memory
//! [`StreamIngest`](gencache_bench::ingest::StreamIngest), the same
//! layer the `gencache-serve` daemon drives over TCP — then replays
//! the ordinary machinery against configurations that were never
//! recorded: any capacity, any nursery/probation/persistent split, any
//! promotion rule, any local replacement policy, producing the same
//! metrics/cost documents the live path emits. A Belady-style
//! furthest-next-use oracle provides a lower-bound row, and `--watch`
//! turns the tool into a regression gate against a stored baseline.
//!
//! ```text
//! simulate --events FILE.jsonl [--spec unified] [--spec 30-20-50@evict5] ...
//!          [--grid] [--oracle] [--windows] [--capacity BYTES] [--jobs N]
//!          [--bench NAME] [--model LABEL]
//!          [--metrics-out FILE.json] [--baseline-out FILE.json]
//!          [--watch BASELINE.json] [--tolerance FRAC]
//! ```
//!
//! `--events -` reads the export from stdin, so a fetched or piped
//! stream needs no temp file.
//!
//! Spec labels: `unified`, a local policy (`lru`, `clock`,
//! `flush-on-full`, `preemptive-flush`, `pseudo-circular`, `unbounded`),
//! or `N-P-S@hitK` / `N-P-S@evictK` generational layouts. Defaults to
//! the two configurations the live export records, so
//! `simulate --events X --metrics-out Y` on an unmodified stream
//! reproduces the live `--metrics-out` document byte-for-byte.

use std::fs::File;
use std::io::{BufRead, Write};
use std::process::ExitCode;
use std::time::Instant;

use gencache_bench::ingest::{
    open_lines, render_sim_tables, resolve_sim_specs, run_sim_job, sim_metrics_doc, SimJobOptions,
    SimJobOutput, StreamIngest,
};
use gencache_bench::write_metrics_doc;
use gencache_obs::OracleResult;
use gencache_sim::par::effective_jobs;
use gencache_sim::SimulatedSpec;
use serde::{Deserialize, Serialize};

const USAGE: &str = "use --events FILE / --spec LABEL / --grid / --oracle / --windows / \
     --window-width N / --regret-top N / --capacity BYTES / --jobs N / --bench NAME / \
     --model LABEL / --metrics-out FILE / --baseline-out FILE / --watch FILE / \
     --tolerance FRAC";

struct SimOptions {
    events: String,
    specs: Vec<String>,
    grid: bool,
    oracle: bool,
    windows: bool,
    window_width: Option<u64>,
    regret_top: Option<usize>,
    capacity: Option<u64>,
    jobs: Option<usize>,
    bench: Option<String>,
    model: Option<String>,
    metrics_out: Option<String>,
    baseline_out: Option<String>,
    watch: Option<String>,
    tolerance: f64,
}

fn parse_args(args: impl IntoIterator<Item = String>) -> SimOptions {
    let mut opts = SimOptions {
        events: String::new(),
        specs: Vec::new(),
        grid: false,
        oracle: false,
        windows: false,
        window_width: None,
        regret_top: None,
        capacity: None,
        jobs: None,
        bench: None,
        model: None,
        metrics_out: None,
        baseline_out: None,
        watch: None,
        tolerance: 0.0,
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--events" => opts.events = it.next().expect("--events needs a file path"),
            "--spec" => opts.specs.push(it.next().expect("--spec needs a label")),
            "--grid" => opts.grid = true,
            "--oracle" => opts.oracle = true,
            "--windows" => opts.windows = true,
            "--window-width" => {
                let v = it.next().expect("--window-width needs an access count");
                let width: u64 = v.parse().expect("--window-width must be a positive integer");
                assert!(width > 0, "--window-width must be positive");
                opts.window_width = Some(width);
            }
            "--regret-top" => {
                let v = it.next().expect("--regret-top needs a count");
                let top: usize = v.parse().expect("--regret-top must be a positive integer");
                assert!(top > 0, "--regret-top must be positive");
                opts.regret_top = Some(top);
            }
            "--capacity" => {
                let v = it.next().expect("--capacity needs a byte count");
                let bytes: u64 = v.parse().expect("--capacity must be a positive integer");
                assert!(bytes > 0, "--capacity must be positive");
                opts.capacity = Some(bytes);
            }
            "--jobs" => {
                let v = it.next().expect("--jobs needs a value");
                let jobs: usize = v.parse().expect("--jobs must be a positive integer");
                assert!(jobs > 0, "--jobs must be positive");
                opts.jobs = Some(jobs);
            }
            "--bench" => opts.bench = Some(it.next().expect("--bench needs a benchmark name")),
            "--model" => opts.model = Some(it.next().expect("--model needs a model label")),
            "--metrics-out" => {
                opts.metrics_out = Some(it.next().expect("--metrics-out needs a file path"));
            }
            "--baseline-out" => {
                opts.baseline_out = Some(it.next().expect("--baseline-out needs a file path"));
            }
            "--watch" => opts.watch = Some(it.next().expect("--watch needs a baseline file")),
            "--tolerance" => {
                let v = it.next().expect("--tolerance needs a fraction");
                opts.tolerance = v.parse().expect("--tolerance must be a number");
                assert!(opts.tolerance >= 0.0, "--tolerance must be non-negative");
            }
            other => panic!("unknown argument {other:?}; {USAGE}"),
        }
    }
    assert!(!opts.events.is_empty(), "--events FILE is required; {USAGE}");
    opts
}

/// Streams the export (file or stdin) through the shared ingest, line
/// by line — the raw events are never materialized.
fn ingest_export(path: &str) -> Result<StreamIngest, String> {
    let reader = open_lines(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut ingest = StreamIngest::new();
    let mut first_content_line = true;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        ingest
            .push_line(&line)
            .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if first_content_line && !ingest.has_header() {
            eprintln!(
                "warning: {path} has no schema header (pre-v2 export); run metadata is \
                 unavailable, so --capacity is required"
            );
        }
        first_content_line = false;
    }
    if ingest.lines() == 0 {
        return Err(format!("{path} contains no event streams"));
    }
    Ok(ingest)
}

/// The compact per-(benchmark, spec) summary `--baseline-out` stores
/// and `--watch` compares against.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct BaselineRow {
    benchmark: String,
    spec: String,
    accesses: u64,
    hits: u64,
    misses: u64,
    uncachable: u64,
    minstr: f64,
}

#[derive(Debug, Serialize, Deserialize)]
struct Baseline {
    schema: String,
    version: u32,
    rows: Vec<BaselineRow>,
}

const BASELINE_SCHEMA: &str = "gencache-sim-baseline";
const BASELINE_VERSION: u32 = 1;

fn baseline_row(benchmark: &str, sim: &SimulatedSpec) -> BaselineRow {
    BaselineRow {
        benchmark: benchmark.to_string(),
        spec: sim.label.clone(),
        accesses: sim.reports.metrics.accesses,
        hits: sim.reports.metrics.hits,
        misses: sim.reports.metrics.misses,
        uncachable: sim.result.metrics.uncachable,
        minstr: sim.reports.costs.total.total(),
    }
}

fn oracle_row(benchmark: &str, oracle: &OracleResult) -> BaselineRow {
    BaselineRow {
        benchmark: benchmark.to_string(),
        spec: "oracle".to_string(),
        accesses: oracle.accesses,
        hits: oracle.hits,
        misses: oracle.misses,
        uncachable: oracle.uncachable,
        minstr: 0.0,
    }
}

fn baseline_rows(out: &SimJobOutput) -> Vec<BaselineRow> {
    let mut rows = Vec::new();
    for bench in &out.benches {
        for sim in &bench.sims {
            rows.push(baseline_row(&bench.name, sim));
        }
        if let Some(oracle) = &bench.oracle {
            rows.push(oracle_row(&bench.name, oracle));
        }
    }
    rows
}

/// Scores every adaptive spec against the static rows on the
/// oracle-regret scale — one block per benchmark that simulated at
/// least one adaptive spec and one static spec under `--oracle`.
/// The verdict line is the machine-checkable judgment `check.sh`
/// gates on.
fn render_adaptive_regret(out: &SimJobOutput) -> String {
    use std::fmt::Write as _;
    let mut text = String::new();
    for bench in &out.benches {
        let adaptive: Vec<&SimulatedSpec> = bench
            .sims
            .iter()
            .filter(|s| s.reports.switches.is_some() && s.reports.regret.is_some())
            .collect();
        let statics: Vec<&SimulatedSpec> = bench
            .sims
            .iter()
            .filter(|s| s.reports.switches.is_none() && s.reports.regret.is_some())
            .collect();
        if adaptive.is_empty() || statics.is_empty() {
            continue;
        }
        let regret_of =
            |s: &SimulatedSpec| s.reports.regret.as_ref().expect("filtered").total.regret_sum;
        let best = statics
            .iter()
            .min_by_key(|s| (regret_of(s), s.label.clone()))
            .expect("non-empty");
        let worst = statics
            .iter()
            .max_by_key(|s| (regret_of(s), s.label.clone()))
            .expect("non-empty");
        let _ = writeln!(text, "\n=== adaptive vs static regret: {} ===", bench.name);
        let _ = writeln!(
            text,
            "  best static  {:<24} regret {}",
            best.label,
            regret_of(best)
        );
        let _ = writeln!(
            text,
            "  worst static {:<24} regret {}",
            worst.label,
            regret_of(worst)
        );
        for sim in adaptive {
            let report = sim.reports.switches.as_ref().expect("filtered");
            let a = regret_of(sim);
            let _ = writeln!(
                text,
                "  adaptive     {:<24} regret {} ({} epochs, {} drifts, {} probes, {} switches)",
                sim.label, a, report.epochs, report.drifts, report.probes, report.switches
            );
            let verdict = if a < regret_of(best) {
                "adaptive beats every static spec".to_string()
            } else if a < regret_of(worst) {
                format!(
                    "adaptive beats worst static, trails best static by {}",
                    a - regret_of(best)
                )
            } else {
                "adaptive does not beat worst static".to_string()
            };
            let _ = writeln!(text, "  verdict[{}]: {}", sim.label, verdict);
        }
    }
    text
}

/// Relative drift between a baseline and a current value.
fn drift(base: f64, current: f64) -> f64 {
    if base == current {
        0.0
    } else {
        (current - base).abs() / base.abs().max(1.0)
    }
}

/// Diffs the simulated rows against a stored baseline. Any row drifting
/// past `tolerance` (relative), or missing from the current run, is a
/// violation.
fn watch(path: &str, rows: &[BaselineRow], tolerance: f64) -> Result<usize, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let baseline: Baseline =
        serde_json::from_str(&text).map_err(|e| format!("{path}: not a simulate baseline: {e}"))?;
    if baseline.schema != BASELINE_SCHEMA {
        return Err(format!(
            "{path}: schema {:?} is not {BASELINE_SCHEMA:?}",
            baseline.schema
        ));
    }
    if baseline.version != BASELINE_VERSION {
        return Err(format!(
            "{path}: unsupported baseline version {} (this build understands {})",
            baseline.version, BASELINE_VERSION
        ));
    }
    let mut violations = 0usize;
    println!("\nregression watch against {path} (tolerance {tolerance}):");
    for base in &baseline.rows {
        let Some(current) = rows
            .iter()
            .find(|r| r.benchmark == base.benchmark && r.spec == base.spec)
        else {
            println!("  MISSING {} [{}]: row not simulated", base.benchmark, base.spec);
            violations += 1;
            continue;
        };
        let worst = [
            ("accesses", base.accesses as f64, current.accesses as f64),
            ("hits", base.hits as f64, current.hits as f64),
            ("misses", base.misses as f64, current.misses as f64),
            ("uncachable", base.uncachable as f64, current.uncachable as f64),
            ("Minstr", base.minstr, current.minstr),
        ]
        .into_iter()
        .map(|(field, b, c)| (field, b, c, drift(b, c)))
        .max_by(|a, b| a.3.total_cmp(&b.3))
        .expect("non-empty field list");
        if worst.3 > tolerance {
            println!(
                "  FAIL {} [{}]: {} drifted {:.4}% ({} -> {})",
                base.benchmark,
                base.spec,
                worst.0,
                worst.3 * 100.0,
                worst.1,
                worst.2,
            );
            violations += 1;
        }
    }
    let tracked = baseline.rows.len();
    let fresh = rows
        .iter()
        .filter(|r| {
            !baseline
                .rows
                .iter()
                .any(|b| b.benchmark == r.benchmark && b.spec == r.spec)
        })
        .count();
    println!(
        "  {} baseline rows checked, {} violations, {} new rows not in baseline",
        tracked, violations, fresh
    );
    Ok(violations)
}

fn main() -> ExitCode {
    let opts = parse_args(std::env::args().skip(1));
    let ingest = match ingest_export(&opts.events) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let inputs = match ingest.into_inputs(
        opts.bench.as_deref(),
        opts.model.as_deref(),
        opts.capacity,
    ) {
        Ok(i) => i,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let specs = match resolve_sim_specs(&opts.specs, opts.grid) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let jobs = effective_jobs(opts.jobs);
    eprintln!(
        "simulating {} benchmarks x {} specs ({jobs} jobs) ...",
        inputs.len(),
        specs.len()
    );
    let started = Instant::now();
    let job_options = SimJobOptions {
        oracle: opts.oracle,
        windows: opts.windows,
        window_width: opts.window_width,
        regret_top: opts.regret_top,
    };
    let out = match run_sim_job(&inputs, &specs, job_options, jobs, None) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let elapsed = started.elapsed();

    print!("{}", render_sim_tables(&out));
    print!("{}", render_adaptive_regret(&out));
    eprintln!(
        "simulated {} replays in {:.3}s wall-clock",
        out.benches.len() * out.labels.len(),
        elapsed.as_secs_f64()
    );
    let rows = baseline_rows(&out);

    if let Some(path) = &opts.metrics_out {
        if let Err(e) = write_metrics_doc(path, sim_metrics_doc(&out)) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote metrics to {path}");
    }

    if let Some(path) = &opts.baseline_out {
        let doc = Baseline {
            schema: BASELINE_SCHEMA.to_string(),
            version: BASELINE_VERSION,
            rows: rows.clone(),
        };
        let json = match serde_json::to_string(&doc) {
            Ok(j) => j,
            Err(e) => {
                eprintln!("cannot serialize baseline: {e:?}");
                return ExitCode::FAILURE;
            }
        };
        let written = File::create(path).and_then(|mut f| {
            f.write_all(json.as_bytes())?;
            f.write_all(b"\n")
        });
        if let Err(e) = written {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote baseline ({} rows) to {path}", rows.len());
    }

    if let Some(path) = &opts.watch {
        match watch(path, &rows, opts.tolerance) {
            Ok(0) => println!("watch: OK"),
            Ok(n) => {
                println!("watch: {n} violation(s)");
                return ExitCode::FAILURE;
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}
