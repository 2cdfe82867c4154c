//! `explain` — a trace-grounded narrative of one benchmark's cache
//! behaviour, built from the event stream rather than the end-of-run
//! counters.
//!
//! For the chosen benchmark it records the workload, replays it through
//! the unified baseline and the best generational layout with full
//! instrumentation, and prints per-phase, per-region activity, occupancy
//! timelines, trace-lifetime histograms and the worst
//! evicted-then-remissed traces — the churn signature behind miss-rate
//! cliffs.
//!
//! ```text
//! explain --bench word --scale 16 [--top 10] [--jobs N] [--oracle]
//!         [--windows] [--events-out FILE.jsonl] [--metrics-out FILE.json]
//! explain --parse-events FILE.jsonl   # validate a JSONL export
//! explain --parse-events -            # ... read from stdin
//! ```
//!
//! `--windows` adds the windowed time-series view: per-window miss-rate
//! / churn / occupancy sparklines and the drift detector's annotations
//! (`phase_shift`, `thrash_onset`, `recovery`) with the stats of each
//! annotated window — the same series `simulate --windows` embeds in
//! the metrics document.

use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::ExitCode;

use gencache_bench::cli::{self, ensure, parse, unknown, value, ArgError};
use gencache_bench::ingest::open_lines;
use gencache_bench::{export_specs, export_telemetry, sample_interval, HarnessOptions};
use gencache_core::{SwitchKind, SwitchReport};
use gencache_obs::{
    oracle_replay, parse_stream_line, phase_of, CacheEvent, CostObserver, EventBuffer,
    Log2Histogram, MetricsObserver, MetricsReport, NextUseIndex, Observer, OracleResult, Region,
    RegretObserver, SamplingObserver, SamplingParams, StreamLine, WindowObserver, WindowReport,
};
use gencache_sim::report::{bar, fmt_bytes, sparkline, TextTable};
use gencache_sim::{parse_spec, record, replay_spec, ReplayResult, SimSpec};
use gencache_workloads::{benchmark, WorkloadProfile};

struct ExplainOptions {
    bench: String,
    top: usize,
    oracle: bool,
    windows: bool,
    window_width: Option<u64>,
    regret_top: Option<usize>,
    specs: Vec<String>,
    parse_events: Option<String>,
    harness: HarnessOptions,
}

/// Everything the regret narrative needs from the clairvoyant side: the
/// next-use index over the frontend trace and the oracle's own replay
/// (the floor the gap is measured against).
struct OracleContext {
    index: NextUseIndex,
    result: OracleResult,
}

const USAGE: &str = "usage:
  explain [--bench NAME] [--scale N] [--jobs N] [--top N] [--oracle] [--windows]
          [--window-width N] [--regret-top N] [--spec LABEL]...
          [--events-out FILE.jsonl] [--metrics-out FILE.json] [--sample N] [--sample-seed S]
  explain --parse-events FILE.jsonl|-";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<ExplainOptions, ArgError> {
    let mut opts = ExplainOptions {
        bench: "word".to_string(),
        top: 10,
        oracle: false,
        windows: false,
        window_width: None,
        regret_top: None,
        specs: Vec::new(),
        parse_events: None,
        harness: HarnessOptions {
            scale: 1,
            ..HarnessOptions::default()
        },
    };
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--bench" => {
                opts.bench = value(&mut it, "--bench needs a benchmark name")?;
            }
            "--top" => {
                let v = value(&mut it, "--top needs a value")?;
                opts.top = parse(&v, "--top must be a non-negative integer")?;
            }
            "--parse-events" => {
                opts.parse_events = Some(value(&mut it, "--parse-events needs a file path")?);
            }
            "--oracle" => opts.oracle = true,
            "--windows" => opts.windows = true,
            "--window-width" => {
                let v = value(&mut it, "--window-width needs an access count")?;
                let width: u64 = parse(&v, "--window-width must be a positive integer")?;
                ensure(width > 0, "--window-width must be positive")?;
                opts.window_width = Some(width);
            }
            "--regret-top" => {
                let v = value(&mut it, "--regret-top needs a count")?;
                let top: usize = parse(&v, "--regret-top must be a positive integer")?;
                ensure(top > 0, "--regret-top must be positive")?;
                opts.regret_top = Some(top);
            }
            "--spec" => {
                opts.specs.push(value(&mut it, "--spec needs a label")?);
            }
            "--scale" => {
                let v = value(&mut it, "--scale needs a value")?;
                opts.harness.scale = parse(&v, "--scale must be a positive integer")?;
                ensure(opts.harness.scale > 0, "--scale must be positive")?;
            }
            "--jobs" => {
                let v = value(&mut it, "--jobs needs a value")?;
                let jobs: usize = parse(&v, "--jobs must be a positive integer")?;
                ensure(jobs > 0, "--jobs must be positive")?;
                opts.harness.jobs = Some(jobs);
            }
            "--events-out" => {
                opts.harness.events_out = Some(value(&mut it, "--events-out needs a file path")?);
            }
            "--metrics-out" => {
                opts.harness.metrics_out = Some(value(&mut it, "--metrics-out needs a file path")?);
            }
            "--sample" => {
                let v = value(&mut it, "--sample needs a value")?;
                let n: u64 = parse(&v, "--sample must be a positive integer")?;
                ensure(n > 0, "--sample must be positive")?;
                opts.harness.sample = Some(n);
            }
            "--sample-seed" => {
                let v = value(&mut it, "--sample-seed needs a value")?;
                opts.harness.sample_seed = parse(&v, "--sample-seed must be an integer")?;
            }
            other => return Err(unknown(other)),
        }
    }
    Ok(opts)
}

/// Validation mode: parse a `--events-out` JSONL file back into its
/// typed framing (schema header, per-stream run metadata, event
/// records) and summarize it, failing loudly on any bad line or on a
/// schema version this build does not understand.
fn parse_events(path: &str) -> ExitCode {
    let reader = match open_lines(path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cannot open {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut totals: BTreeMap<(String, String), u64> = BTreeMap::new();
    let mut lines = 0u64;
    let mut metas = 0u64;
    let mut header = None;
    for (i, line) in reader.lines().enumerate() {
        let line = line.expect("readable line");
        if line.trim().is_empty() {
            continue;
        }
        match parse_stream_line(&line) {
            Ok(StreamLine::Header(h)) => {
                if let Err(e) = h.validate() {
                    eprintln!("{path}:{}: {e}", i + 1);
                    return ExitCode::FAILURE;
                }
                header = Some(h);
            }
            Ok(StreamLine::Meta(_)) => metas += 1,
            Ok(StreamLine::Event(record)) => {
                lines += 1;
                *totals.entry((record.source, record.model)).or_default() += 1;
            }
            Err(e) => {
                eprintln!("{path}:{}: {e}", i + 1);
                return ExitCode::FAILURE;
            }
        }
    }
    match &header {
        Some(h) => println!(
            "{path}: {} v{}, {lines} events and {metas} run-metadata lines parse cleanly",
            h.schema, h.version
        ),
        None => {
            eprintln!("warning: {path} has no schema header (pre-v2 export)");
            println!("{path}: {lines} events parse cleanly");
        }
    }
    let mut table = TextTable::new(["benchmark", "model", "events"]);
    for ((source, model), count) in &totals {
        table.row([source.clone(), model.clone(), count.to_string()]);
    }
    print!("{}", table.render());
    ExitCode::SUCCESS
}

fn render_phase_table(
    profile: &WorkloadProfile,
    duration_us: u64,
    events: &[CacheEvent],
    regions: &[Region],
) {
    let phases = profile.phases.max(1);
    let mut observers: Vec<MetricsObserver> = (0..phases).map(|_| MetricsObserver::new()).collect();
    for event in events {
        let p = phase_of(event.time().as_micros(), duration_us, phases);
        observers[p].on_event(event);
    }
    println!("\nPer-phase activity (phase-local deltas):");
    let mut table = TextTable::new([
        "phase",
        "region",
        "hits",
        "inserts",
        "cap-evt",
        "flush",
        "unmap",
        "discard",
        "promote→",
    ]);
    for (p, observer) in observers.iter().enumerate() {
        let report = observer.report();
        let miss_rate = report.miss_rate() * 100.0;
        for (i, &region) in regions.iter().enumerate() {
            let r = report.region(region);
            let activity = r.hits
                + r.inserts
                + r.capacity_evictions
                + r.flush_evictions
                + r.unmap_evictions
                + r.discards
                + r.promotions_out;
            if activity == 0 {
                continue;
            }
            let label = if i == 0 {
                format!("{p} ({miss_rate:.1}% miss)")
            } else {
                String::new()
            };
            table.row([
                label,
                region.name().to_string(),
                r.hits.to_string(),
                r.inserts.to_string(),
                r.capacity_evictions.to_string(),
                r.flush_evictions.to_string(),
                r.unmap_evictions.to_string(),
                r.discards.to_string(),
                r.promotions_out.to_string(),
            ]);
        }
    }
    print!("{}", table.render());
}

fn render_timeline(report: &MetricsReport, regions: &[Region]) {
    if report.timeline.is_empty() {
        return;
    }
    println!("\nOccupancy timeline (resident bytes per region, run left→right):");
    for &region in regions {
        let series: Vec<u64> = report
            .timeline
            .iter()
            .map(|s| s.resident[region.index()])
            .collect();
        let peak = series.iter().copied().max().unwrap_or(0);
        if peak == 0 {
            continue;
        }
        println!(
            "  {:>10} {} peak {}",
            region.name(),
            sparkline(&series),
            fmt_bytes(peak)
        );
    }
    // Interval miss rates: differences of the cumulative sample counters.
    let mut rates = Vec::with_capacity(report.timeline.len());
    let mut prev = (0u64, 0u64);
    for s in &report.timeline {
        let accesses = (s.hits + s.misses).saturating_sub(prev.0 + prev.1);
        let misses = s.misses.saturating_sub(prev.1);
        // Sparkline buckets are coarse; per-mille keeps small rates visible.
        rates.push((misses * 1000).checked_div(accesses).unwrap_or(0));
        prev = (s.hits, s.misses);
    }
    println!("  {:>10} {} (per interval)", "miss rate", sparkline(&rates));
}

fn render_churn(report: &MetricsReport, top: usize) {
    let entries = &report.top_churn[..report.top_churn.len().min(top)];
    if entries.is_empty() {
        println!("\nNo evicted-then-remissed traces: the cache is not churning.");
        return;
    }
    println!("\nTop evicted-then-remissed traces (regeneration churn):");
    let max = entries.iter().map(|e| e.remisses).max().unwrap_or(1);
    let mut table = TextTable::new(["trace", "bytes", "evictions", "remisses", ""]);
    for e in entries {
        table.row([
            format!("t{}", e.trace),
            e.bytes.to_string(),
            e.evictions.to_string(),
            e.remisses.to_string(),
            bar(e.remisses as f64, max as f64, 30),
        ]);
    }
    print!("{}", table.render());
}

/// Prices the event stream through the Table 2 formulas and prints the
/// per-phase / per-region / per-cause attribution. The attributed total
/// is checked against the model's own ledger — same formulas charged in
/// the same order, so they must agree to the bit.
fn render_costs(
    profile: &WorkloadProfile,
    duration_us: u64,
    result: &ReplayResult,
    events: &[CacheEvent],
) {
    let mut observer = CostObserver::with_phases(profile.phases.max(1), duration_us);
    for event in events {
        observer.on_event(event);
    }
    let report = observer.into_report();
    let total = report.total.total();
    let reconciled = report.total == result.ledger;
    println!(
        "\nAttributed instruction overhead (Table 2 pricing): {:.2} Minstr{}",
        total / 1e6,
        if reconciled {
            " — reconciles exactly with the model ledger"
        } else {
            " — MISMATCH against the model ledger"
        },
    );
    for (name, instructions) in report.total.components() {
        if instructions == 0.0 {
            continue;
        }
        println!(
            "  {name:>16}: {:>10.2} Minstr ({:>4.1}%)",
            instructions / 1e6,
            100.0 * instructions / total.max(f64::MIN_POSITIVE),
        );
    }

    println!("\nPer-phase attributed overhead:");
    let peak = report
        .phases
        .iter()
        .map(|p| p.ledger.total())
        .fold(0.0, f64::max);
    let mut table = TextTable::new(["phase", "misses", "evicts", "promotes", "Minstr", ""]);
    for (p, phase) in report.phases.iter().enumerate() {
        let t = phase.ledger.total();
        if t == 0.0 {
            continue;
        }
        table.row([
            p.to_string(),
            phase.ledger.miss_events.to_string(),
            phase.ledger.eviction_events.to_string(),
            phase.ledger.promotion_events.to_string(),
            format!("{:.2}", t / 1e6),
            bar(t, peak, 30),
        ]);
    }
    print!("{}", table.render());

    let top = report.top_phases(5);
    if !top.is_empty() {
        let list: Vec<String> = top
            .iter()
            .map(|&(p, t)| format!("{p} ({:.2} Minstr)", t / 1e6))
            .collect();
        println!("Top phases by cost: {}", list.join(", "));
    }

    let attributed: f64 = report.regions.iter().map(|r| r.ledger.total()).sum();
    if attributed > 0.0 {
        println!("Per-region management overhead (evictions by cause + promotions in):");
        for region in Region::ALL {
            let rc = report.region(region);
            if rc.ledger.total() == 0.0 {
                continue;
            }
            let evict_total = rc.ledger.evictions.max(f64::MIN_POSITIVE);
            let causes: Vec<String> = rc
                .causes()
                .iter()
                .filter(|(_, c)| c.events > 0)
                .map(|(name, c)| format!("{name} {:.1}%", 100.0 * c.instructions / evict_total))
                .collect();
            println!(
                "  {:>10}: {:>8.2} Minstr ({} evict / {} promote events{}{})",
                region.name(),
                rc.ledger.total() / 1e6,
                rc.ledger.eviction_events,
                rc.ledger.promotion_events,
                if causes.is_empty() {
                    ""
                } else {
                    "; evictions: "
                },
                causes.join(", "),
            );
        }
    }
}

/// Replays the events through a bounded-memory sampling observer and
/// prints what it kept, plus reuse-interval quantiles from the raw-value
/// reservoir.
fn render_sampling(params: SamplingParams, sample_every: u64, events: &[CacheEvent]) {
    let mut observer = SamplingObserver::with_timeline(params, sample_every);
    for event in events {
        observer.on_event(event);
    }
    let report = observer.report();
    let s = &report.summary;
    println!(
        "\nSampling (1-in-{}, seed {}): kept {} / skipped {} histogram values, \
         timeline {} samples (stride {}), churn tracked {} / skipped {} traces",
        params.stride,
        params.seed,
        s.hist_recorded,
        s.hist_skipped,
        report.metrics.timeline.len(),
        s.timeline_stride,
        s.churn_tracked,
        s.churn_skipped,
    );
    let r = &report.reuse_sample;
    if !r.values.is_empty() {
        println!(
            "  reuse interval µs from a {}-value reservoir of {} hits: \
             p50 {} / p90 {} / p99 {}",
            r.values.len(),
            r.seen,
            r.quantile(0.5).unwrap_or(0),
            r.quantile(0.9).unwrap_or(0),
            r.quantile(0.99).unwrap_or(0),
        );
    }
}

/// Compact execution-distance formatting for narratives: "211", "4.1k",
/// "2.3M".
fn fmt_execs(n: u64) -> String {
    if n < 1_000 {
        n.to_string()
    } else if n < 1_000_000 {
        format!("{:.1}k", n as f64 / 1e3)
    } else {
        format!("{:.1}M", n as f64 / 1e6)
    }
}

/// Scores every eviction in the stream against the Belady alternative
/// and prints the decision-level account of the model's gap to the
/// oracle: the top regret contributors plus a trace-grounded narrative
/// of each one's single worst decision.
fn render_regret(
    profile: &WorkloadProfile,
    duration_us: u64,
    oracle: &OracleContext,
    result: &ReplayResult,
    events: &[CacheEvent],
    top: usize,
    contributor_cap: Option<usize>,
) {
    let mut observer = match contributor_cap {
        Some(cap) => {
            RegretObserver::with_top(&oracle.index, profile.phases.max(1), duration_us, cap)
        }
        None => RegretObserver::with_phases(&oracle.index, profile.phases.max(1), duration_us),
    };
    for event in events {
        observer.on_event(event);
    }
    let report = observer.report();
    let gap = result.metrics.misses.saturating_sub(oracle.result.misses);
    println!(
        "\nOracle regret: {} misses vs Belady floor {} — gap {}; {} of {} evictions \
         regretted, total regret {} executions, {} re-misses ({:.2} Minstr)",
        result.metrics.misses,
        oracle.result.misses,
        gap,
        report.total.regretful,
        report.total.evictions,
        report.total.regret_sum,
        report.total.remisses,
        report.total.remiss_instructions / 1e6,
    );
    if report.contributors.is_empty() {
        println!("  No regretful evictions: every victim was the furthest-reused resident.");
        return;
    }
    let entries = &report.contributors[..report.contributors.len().min(top)];
    let peak = entries
        .iter()
        .map(|c| c.regret_sum)
        .max()
        .unwrap_or(1)
        .max(1);
    let mut table = TextTable::new([
        "trace",
        "bytes",
        "evictions",
        "regret",
        "remisses",
        "Minstr",
        "",
    ]);
    for c in entries {
        table.row([
            format!("t{}", c.trace),
            c.bytes.to_string(),
            c.evictions.to_string(),
            c.regret_sum.to_string(),
            c.remisses.to_string(),
            format!("{:.2}", c.remiss_instructions / 1e6),
            bar(c.regret_sum as f64, peak as f64, 30),
        ]);
    }
    print!("{}", table.render());
    println!("Worst decisions:");
    for c in entries.iter().take(3.min(entries.len())) {
        let w = &c.worst;
        let reuse = if w.reused {
            format!("reused {} accesses later", fmt_execs(w.next_use))
        } else {
            "never reused again".to_string()
        };
        let alternative = if w.victim == c.trace {
            "no alternative victim existed".to_string()
        } else if w.victim_reused {
            format!("t{} was {} away", w.victim, fmt_execs(w.victim_next_use))
        } else {
            format!("t{} was never needed again", w.victim)
        };
        let share = if gap > 0 && c.remisses > 0 {
            format!(
                " — {:.0}% of the gap to oracle",
                100.0 * c.remisses as f64 / gap as f64
            )
        } else {
            String::new()
        };
        println!(
            "  phase {}, {}, {}: evicted t{} {reuse} while {alternative}{share}",
            w.phase, w.region, w.cause, c.trace,
        );
    }
}

/// The windowed time-series view: miss-rate / churn / occupancy
/// sparklines over the window series, a table of the drift-annotated
/// windows, and a one-line narrative per annotation. The report is the
/// same deterministic series `simulate --windows` embeds in the metrics
/// document, so a cliff diagnosed here is findable in any archived doc.
fn render_windows(sample_every: u64, events: &[CacheEvent]) {
    let mut observer = WindowObserver::new(sample_every);
    for event in events {
        observer.on_event(event);
    }
    let report: WindowReport = observer.report();
    if report.windows.is_empty() {
        return;
    }
    println!(
        "\nWindowed series ({} windows of {} accesses{}):",
        report.windows.len(),
        report.window_accesses,
        if report.doublings > 0 {
            format!(", width doubled {}x", report.doublings)
        } else {
            String::new()
        },
    );
    // Per-mille keeps small rates visible in coarse sparkline buckets.
    let rates: Vec<u64> = report
        .windows
        .iter()
        .map(|w| (w.miss_rate() * 1000.0) as u64)
        .collect();
    let churn: Vec<u64> = report.windows.iter().map(|w| w.remisses).collect();
    let resident: Vec<u64> = report.windows.iter().map(|w| w.resident_bytes).collect();
    println!("  {:>10} {} (per window)", "miss rate", sparkline(&rates));
    println!("  {:>10} {} (re-misses)", "churn", sparkline(&churn));
    println!(
        "  {:>10} {} peak {}",
        "occupancy",
        sparkline(&resident),
        fmt_bytes(resident.iter().copied().max().unwrap_or(0)),
    );
    if report.annotations.is_empty() {
        println!("  No drift detected: the windowed miss rate is stationary.");
        return;
    }
    let mut table = TextTable::new([
        "window", "drift", "miss%", "base%", "remiss", "cap-evt", "resident",
    ]);
    for a in &report.annotations {
        let w = &report.windows[a.window as usize];
        table.row([
            a.window.to_string(),
            a.kind.to_string(),
            format!("{:.1}", a.miss_rate * 100.0),
            format!("{:.1}", a.baseline * 100.0),
            w.remisses.to_string(),
            w.capacity_evictions.to_string(),
            fmt_bytes(w.resident_bytes),
        ]);
    }
    print!("{}", table.render());
    for a in &report.annotations {
        let w = &report.windows[a.window as usize];
        let detail = match a.kind {
            gencache_obs::DriftKind::ThrashOnset => format!(
                "{} of {} misses are re-misses of evicted traces with {} capacity \
                 evictions — regeneration churn, not new code",
                w.remisses, w.misses, w.capacity_evictions,
            ),
            gencache_obs::DriftKind::PhaseShift => format!(
                "{} inserts ({}) in the detection window — a working-set change",
                w.inserts,
                fmt_bytes(w.insert_bytes),
            ),
            gencache_obs::DriftKind::Recovery => {
                "the miss rate stepped back toward the earlier baseline".to_string()
            }
        };
        println!(
            "  window {}: {} — miss rate {:.1}% (baseline {:.1}%); {detail}",
            a.window,
            a.kind,
            a.miss_rate * 100.0,
            a.baseline * 100.0,
        );
    }
}

/// Narrates the adaptive policy controller's run: the epoch cadence,
/// the drift detections, and every probe/commit decision in epoch
/// order — the event-level account behind a `switches` section of the
/// metrics document.
fn render_switches(report: &SwitchReport) {
    println!(
        "\nAdaptive controller ({} epochs of {} accesses): {} drift detections, \
         {} probe installs, {} committed switches, {} temperature promotions",
        report.epochs,
        report.epoch_accesses,
        report.drifts,
        report.probes,
        report.switches,
        report.hot_promotions,
    );
    if report.records.is_empty() {
        println!("  No drift detected: the initial configuration served the whole run.");
        return;
    }
    for r in &report.records {
        match r.kind {
            SwitchKind::Probe => println!(
                "  epoch {:>4} @ {:>9}µs: probe  {} -> {} (miss rate {:.2}% vs baseline {:.2}%)",
                r.epoch,
                r.time_us,
                r.from,
                r.to,
                r.miss_rate * 100.0,
                r.baseline * 100.0,
            ),
            SwitchKind::Commit => println!(
                "  epoch {:>4} @ {:>9}µs: commit {} -> {} (winning audition miss rate {:.2}%)",
                r.epoch,
                r.time_us,
                r.from,
                r.to,
                r.miss_rate * 100.0,
            ),
        }
    }
}

fn render_histogram(label: &str, hist: &Log2Histogram) {
    if hist.is_empty() {
        return;
    }
    println!("\n{label} (log2 buckets, µs):");
    let peak = hist.counts().iter().copied().max().unwrap_or(1);
    for (b, &count) in hist.counts().iter().enumerate() {
        if count == 0 {
            continue;
        }
        let (lo, hi) = Log2Histogram::bucket_range(b);
        println!(
            "  [{lo:>10}, {hi:>10}] {count:>8} {}",
            bar(count as f64, peak as f64, 30)
        );
    }
}

/// Run-level inputs shared by every model's narrative: the workload,
/// its wall-clock span, the timeline sampling stride, and (with
/// `--oracle`) the clairvoyant context all models are scored against.
#[derive(Clone, Copy)]
struct RunContext<'a> {
    profile: &'a WorkloadProfile,
    duration_us: u64,
    sample_every: u64,
    oracle: Option<&'a OracleContext>,
}

fn explain_model(
    ctx: &RunContext<'_>,
    label: &str,
    result: &ReplayResult,
    events: &[CacheEvent],
    opts: &ExplainOptions,
) {
    let RunContext {
        profile,
        duration_us,
        sample_every,
        oracle,
    } = *ctx;
    let top = opts.top;
    let mut observer = MetricsObserver::with_timeline(sample_every);
    for event in events {
        observer.on_event(event);
    }
    let report = observer.report();

    println!("\n=== {label}: {} ===", result.model);
    println!(
        "{} accesses, {} hits, {} misses ({:.2}% miss rate), {} events",
        report.accesses,
        report.hits,
        report.misses,
        report.miss_rate() * 100.0,
        events.len(),
    );
    let regions: Vec<Region> = Region::ALL
        .into_iter()
        .filter(|r| {
            let m = report.region(*r);
            m.inserts + m.hits + m.promotions_in > 0
        })
        .collect();
    for &region in &regions {
        let r = report.region(region);
        println!(
            "  {:>10}: {} inserted / {} hits / {} cap + {} flush + {} unmap + {} discard \
             evictions / peak {}",
            region.name(),
            r.inserts,
            r.hits,
            r.capacity_evictions,
            r.flush_evictions,
            r.unmap_evictions,
            r.discards,
            fmt_bytes(r.peak_resident_bytes),
        );
    }

    render_phase_table(profile, duration_us, events, &regions);
    render_costs(profile, duration_us, result, events);
    if let Some(params) = opts.harness.sampling_params() {
        render_sampling(params, sample_every, events);
    }
    render_timeline(&report, &regions);
    if opts.windows {
        render_windows(opts.window_width.unwrap_or(sample_every), events);
    }
    render_churn(&report, top);
    if let Some(oracle) = oracle {
        render_regret(
            profile,
            duration_us,
            oracle,
            result,
            events,
            top,
            opts.regret_top,
        );
    }
    for &region in &regions {
        let r = report.region(region);
        render_histogram(
            &format!("{} trace lifetime at eviction", region.name()),
            &r.lifetime_us,
        );
    }
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => return cli::exit("explain", USAGE, e),
    };
    if let Some(path) = &opts.parse_events {
        return parse_events(path);
    }

    let extra_specs: Result<Vec<(String, SimSpec)>, String> = opts
        .specs
        .iter()
        .map(|label| Ok((label.clone(), parse_spec(label)?)))
        .collect();
    let extra_specs = match extra_specs {
        Ok(specs) => specs,
        Err(e) => return cli::exit("explain", USAGE, ArgError::Usage(e)),
    };
    let Some(mut profile) = benchmark(&opts.bench) else {
        let e = format!("unknown benchmark {:?}", opts.bench);
        return cli::exit("explain", USAGE, ArgError::Usage(e));
    };
    if opts.harness.scale > 1 {
        profile = profile.scaled_down(opts.harness.scale);
    }
    eprintln!("recording {} ...", profile.name);
    let run = record(&profile).expect("calibrated profiles always plan");
    let capacity = run.log.capacity();
    let duration_us = run.log.duration.as_micros();
    let sample_every = sample_interval(&run.log);

    println!(
        "explain {}: {} log records, {} accesses, budget {} (0.5 × maxCache {}), {} phases",
        profile.name,
        run.log.records.len(),
        run.log.access_count(),
        fmt_bytes(capacity),
        fmt_bytes(run.log.peak_trace_bytes),
        profile.phases,
    );

    // The clairvoyant side is model-independent: it reads the recorded
    // requests, so one next-use index and one Belady floor serve all
    // models.
    let oracle = opts.oracle.then(|| OracleContext {
        index: NextUseIndex::build(&run.log.records),
        result: oracle_replay(&run.log.records, capacity),
    });

    let ctx = RunContext {
        profile: &profile,
        duration_us,
        sample_every,
        oracle: oracle.as_ref(),
    };
    // Extra --spec models ride the same narrative path after the
    // exported ones; adaptive specs additionally get their controller's
    // decision log narrated, read from the same replay.
    let exported = export_specs().map(|(label, spec)| (label.to_string(), spec));
    for (label, spec) in exported.into_iter().chain(extra_specs) {
        let (result, buffer, switches) = replay_spec(&run.log, spec, capacity, EventBuffer::new());
        explain_model(&ctx, &label, &result, &buffer.events, &opts);
        if let Some(report) = switches {
            render_switches(&report);
        }
    }

    let runs = vec![(profile, run)];
    export_telemetry(&opts.harness, &runs).expect("telemetry export failed");
    ExitCode::SUCCESS
}
