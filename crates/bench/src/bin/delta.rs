//! `delta` — phase-by-phase comparison of two exported event streams.
//!
//! The first offline event-stream consumer beyond `explain`: it never
//! re-records or re-replays anything. Given one or two `--events-out`
//! JSONL exports it pairs up streams, slices each pair into equal time
//! phases, and reports per-phase deltas in event volume, miss rate,
//! occupancy and Table 2-attributed instruction overhead — ending with
//! the suite-level Equation 3 overhead ratio computed purely from the
//! streams.
//!
//! ```text
//! delta FILE.jsonl
//!     # diff the two exported models (unified vs gen-45-10-45@hit1)
//!     # benchmark by benchmark within one export
//! delta LEFT.jsonl RIGHT.jsonl
//!     # diff identical (benchmark, model) streams across two exports
//!     # (e.g. two proportion configs, or before/after a change)
//! delta LEFT.jsonl RIGHT.jsonl --left-model unified --right-model gen-45-10-45@hit1
//!     # explicit model pairing
//! delta FILE.jsonl --phases 12 --bench word
//! delta FILE.jsonl --regret
//!     # additionally diff the Belady-regret attribution of each pair
//! delta FILE.jsonl --windows
//!     # additionally diff the windowed miss-rate series and each
//!     # side's drift annotations (phase_shift / thrash_onset /
//!     # recovery), window by window
//! gencache-client fetch --addr HOST:PORT --bench word | delta -
//!     # `-` reads an export from stdin (at most one of the two inputs)
//! ```

use std::collections::BTreeMap;
use std::io::BufRead;
use std::process::ExitCode;

use gencache_bench::cli::{self, ensure, parse, value, ArgError};
use gencache_bench::export_specs;
use gencache_bench::ingest::open_lines;
use gencache_obs::{
    cost, overhead_ratio, parse_stream_line, phase_of, reconstruct_trace, CacheEvent, CostLedger,
    CostObserver, NextUseIndex, Observer, PhaseRegret, RegretCell, RegretObserver, StreamLine,
    Window, WindowObserver, WindowReport,
};
use gencache_sim::report::{bar, fmt_bytes, sparkline, TextTable};

struct DeltaOptions {
    left: String,
    right: Option<String>,
    left_model: Option<String>,
    right_model: Option<String>,
    bench: Option<String>,
    phases: u32,
    regret: bool,
    windows: bool,
}

const USAGE: &str = "usage:
  delta LEFT.jsonl [RIGHT.jsonl] [--left-model M] [--right-model M] [--bench NAME]
        [--phases N] [--regret] [--windows]
  (`-` reads one of the two exports from stdin)";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<DeltaOptions, ArgError> {
    let mut opts = DeltaOptions {
        left: String::new(),
        right: None,
        left_model: None,
        right_model: None,
        bench: None,
        phases: 8,
        regret: false,
        windows: false,
    };
    let mut files = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--left-model" => {
                opts.left_model = Some(value(&mut it, "--left-model needs a model label")?);
            }
            "--right-model" => {
                opts.right_model = Some(value(&mut it, "--right-model needs a model label")?);
            }
            "--bench" => {
                opts.bench = Some(value(&mut it, "--bench needs a benchmark name")?);
            }
            "--phases" => {
                let v = value(&mut it, "--phases needs a value")?;
                opts.phases = parse(&v, "--phases must be a positive integer")?;
                ensure(opts.phases > 0, "--phases must be positive")?;
            }
            "--regret" => opts.regret = true,
            "--windows" => opts.windows = true,
            "--help" | "-h" => return Err(ArgError::Help),
            flag if flag.starts_with("--") => {
                return Err(ArgError::Usage(format!(
                    "unknown argument {flag:?}; use LEFT.jsonl [RIGHT.jsonl] / --left-model M / \
                     --right-model M / --bench NAME / --phases N / --regret / --windows"
                )))
            }
            file => files.push(file.to_string()),
        }
    }
    match files.len() {
        1 => opts.left = files.remove(0),
        2 => {
            opts.right = Some(files.remove(1));
            opts.left = files.remove(0);
        }
        n => {
            return Err(ArgError::Usage(format!(
                "expected 1 or 2 JSONL files, got {n}"
            )))
        }
    }
    Ok(opts)
}

/// Event streams keyed by `(benchmark, model)` in deterministic order.
type Streams = BTreeMap<(String, String), Vec<CacheEvent>>;

fn load_streams(path: &str) -> Result<Streams, String> {
    let reader = open_lines(path).map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut streams: Streams = BTreeMap::new();
    let mut saw_header = false;
    let mut warned = false;
    for (i, line) in reader.lines().enumerate() {
        let line = line.map_err(|e| format!("{path}:{}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        match parse_stream_line(&line).map_err(|e| format!("{path}:{}: {e}", i + 1))? {
            StreamLine::Header(header) => {
                // Unknown schema versions are rejected rather than
                // silently misread as event deltas.
                header
                    .validate()
                    .map_err(|e| format!("{path}:{}: {e}", i + 1))?;
                saw_header = true;
            }
            StreamLine::Meta(_) => {}
            StreamLine::Event(record) => {
                if !saw_header && !warned {
                    eprintln!("warning: {path} has no schema header (pre-v2 export)");
                    warned = true;
                }
                streams
                    .entry((record.source, record.model))
                    .or_default()
                    .push(record.event);
            }
        }
    }
    Ok(streams)
}

/// Renders a stream map's keys for error messages.
fn stream_keys(streams: &Streams) -> String {
    if streams.is_empty() {
        return "none".to_string();
    }
    streams
        .keys()
        .map(|(b, m)| format!("({b}, {m})"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// One paired comparison: a display name plus the two streams.
struct Pair<'a> {
    name: String,
    left: &'a [CacheEvent],
    right: &'a [CacheEvent],
}

/// Pairs streams: with explicit model labels, benchmark-by-benchmark
/// across the two (possibly identical) files; otherwise identical
/// `(benchmark, model)` keys across two files.
fn pair_streams<'a>(opts: &DeltaOptions, left: &'a Streams, right: &'a Streams) -> Vec<Pair<'a>> {
    let mut pairs = Vec::new();
    if let (Some(lm), Some(rm)) = (&opts.left_model, &opts.right_model) {
        let benchmarks: Vec<&String> = left
            .keys()
            .filter(|(_, m)| m == lm)
            .map(|(b, _)| b)
            .collect();
        for b in benchmarks {
            if opts.bench.as_ref().is_some_and(|want| want != b) {
                continue;
            }
            let l = left.get(&(b.clone(), lm.clone()));
            let r = right.get(&(b.clone(), rm.clone()));
            if let (Some(l), Some(r)) = (l, r) {
                pairs.push(Pair {
                    name: b.clone(),
                    left: l,
                    right: r,
                });
            }
        }
    } else {
        for ((b, m), l) in left {
            if opts.bench.as_ref().is_some_and(|want| want != b) {
                continue;
            }
            if let Some(r) = right.get(&(b.clone(), m.clone())) {
                pairs.push(Pair {
                    name: format!("{b} [{m}]"),
                    left: l,
                    right: r,
                });
            }
        }
    }
    pairs
}

/// Phase-local aggregates of one stream side.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseSide {
    events: u64,
    hits: u64,
    misses: u64,
    peak_resident: u64,
}

impl PhaseSide {
    fn miss_pct(&self) -> f64 {
        let accesses = self.hits + self.misses;
        if accesses == 0 {
            0.0
        } else {
            100.0 * self.misses as f64 / accesses as f64
        }
    }
}

/// Aggregates one side into per-phase counters and a cost attribution.
/// Resident occupancy is reconstructed by integrating insert/evict/
/// promote byte flows across the whole hierarchy.
fn analyze(
    events: &[CacheEvent],
    duration_us: u64,
    phases: u32,
) -> (Vec<PhaseSide>, Vec<CostLedger>, CostLedger) {
    let mut sides = vec![PhaseSide::default(); phases as usize];
    let mut resident = 0i64;
    let mut cost_observer = CostObserver::with_phases(phases, duration_us);
    for event in events {
        cost_observer.on_event(event);
        let p = phase_of(event.time().as_micros(), duration_us, phases);
        let side = &mut sides[p];
        side.events += 1;
        match *event {
            CacheEvent::Hit { .. } => side.hits += 1,
            CacheEvent::Miss { .. } => side.misses += 1,
            CacheEvent::Insert { bytes, .. } => resident += i64::from(bytes),
            CacheEvent::Evict { bytes, .. } => resident -= i64::from(bytes),
            _ => {}
        }
        side.peak_resident = side.peak_resident.max(resident.max(0) as u64);
    }
    let report = cost_observer.into_report();
    let ledgers = report.phases.iter().map(|p| p.ledger).collect();
    (sides, ledgers, report.total)
}

/// Diffs the Belady-regret attribution of the two sides. Both streams
/// must invert to the *same* frontend trace (the export invariant) —
/// the shared next-use index is what makes their regrets comparable.
fn render_regret_pair(pair: &Pair<'_>, phases: u32, duration_us: u64) {
    let trace = match reconstruct_trace(pair.left) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("  regret skipped: left stream does not invert: {e}");
            return;
        }
    };
    match reconstruct_trace(pair.right) {
        Ok(t) if t == trace => {}
        Ok(_) => {
            eprintln!("  regret skipped: the two streams reconstruct different frontend traces");
            return;
        }
        Err(e) => {
            eprintln!("  regret skipped: right stream does not invert: {e}");
            return;
        }
    }
    let index = NextUseIndex::build(&trace);
    let score = |events: &[CacheEvent]| {
        let mut observer = RegretObserver::with_phases(&index, phases, duration_us);
        for event in events {
            observer.on_event(event);
        }
        observer.report()
    };
    let left = score(pair.left);
    let right = score(pair.right);
    let summarize = |c: &RegretCell| {
        format!(
            "{} execs regret ({}/{} evictions, {} re-misses, {:.2} Minstr)",
            c.regret_sum,
            c.regretful,
            c.evictions,
            c.remisses,
            c.remiss_instructions / 1e6,
        )
    };
    println!(
        "Belady regret: left {} vs right {}",
        summarize(&left.total),
        summarize(&right.total),
    );
    let cell = |r: &[PhaseRegret], p: usize| r.get(p).map(|x| x.total).unwrap_or_default();
    let peak = (0..phases as usize)
        .map(|p| {
            (cell(&right.phases, p).regret_sum as i64 - cell(&left.phases, p).regret_sum as i64)
                .unsigned_abs()
        })
        .max()
        .unwrap_or(0)
        .max(1);
    let mut table = TextTable::new([
        "phase", "regret L", "regret R", "Δregret", "remiss L", "remiss R", "",
    ]);
    for p in 0..phases as usize {
        let l = cell(&left.phases, p);
        let r = cell(&right.phases, p);
        if l.evictions == 0 && r.evictions == 0 {
            continue;
        }
        let delta = r.regret_sum as i64 - l.regret_sum as i64;
        table.row([
            p.to_string(),
            l.regret_sum.to_string(),
            r.regret_sum.to_string(),
            format!("{delta:+}"),
            l.remisses.to_string(),
            r.remisses.to_string(),
            bar(delta.unsigned_abs() as f64, peak as f64, 20),
        ]);
    }
    print!("{}", table.render());
}

/// Diffs the windowed time-series of the two sides: both streams fold
/// into windows of the *same* access width (from the larger side, so
/// window i covers the same access range on both), then per-window
/// miss-rate sparklines and a merged table of both sides' drift
/// annotations, each shown against the other side's rate at the same
/// window.
fn render_windows_pair(pair: &Pair<'_>) {
    let accesses = |events: &[CacheEvent]| {
        events
            .iter()
            .filter(|e| matches!(e, CacheEvent::Hit { .. } | CacheEvent::Miss { .. }))
            .count() as u64
    };
    let width = (accesses(pair.left).max(accesses(pair.right)) / 64).max(1);
    let report_of = |events: &[CacheEvent]| -> WindowReport {
        let mut observer = WindowObserver::new(width);
        for event in events {
            observer.on_event(event);
        }
        observer.report()
    };
    let left = report_of(pair.left);
    let right = report_of(pair.right);
    println!(
        "Windowed series ({} accesses/window): left {} windows, {} drift annotation(s); \
         right {} windows, {} annotation(s)",
        width,
        left.windows.len(),
        left.annotations.len(),
        right.windows.len(),
        right.annotations.len(),
    );
    let rates = |r: &WindowReport| -> Vec<u64> {
        r.windows
            .iter()
            .map(|w| (w.miss_rate() * 1000.0) as u64)
            .collect()
    };
    println!(
        "  {:>10} {} (per window)",
        "miss L",
        sparkline(&rates(&left))
    );
    println!(
        "  {:>10} {} (per window)",
        "miss R",
        sparkline(&rates(&right))
    );
    if left.annotations.is_empty() && right.annotations.is_empty() {
        println!("  Neither side drifts: both windowed miss rates are stationary.");
        return;
    }
    // Annotations from both sides interleave by window index, so a
    // cliff one side has and the other avoids reads as a lone row.
    let mut rows: Vec<(u64, &str, String, f64, Option<f64>)> = Vec::new();
    let other_rate = |r: &WindowReport, w: u64| r.windows.get(w as usize).map(Window::miss_rate);
    for a in &left.annotations {
        rows.push((
            a.window,
            "L",
            a.kind.to_string(),
            a.miss_rate,
            other_rate(&right, a.window),
        ));
    }
    for a in &right.annotations {
        rows.push((
            a.window,
            "R",
            a.kind.to_string(),
            a.miss_rate,
            other_rate(&left, a.window),
        ));
    }
    rows.sort_by(|a, b| (a.0, a.1).cmp(&(b.0, b.1)));
    let mut table = TextTable::new(["window", "side", "drift", "miss%", "other side%"]);
    for (window, side, kind, rate, other) in rows {
        table.row([
            window.to_string(),
            side.to_string(),
            kind,
            format!("{:.1}", rate * 100.0),
            other.map_or_else(|| "-".to_string(), |r| format!("{:.1}", r * 100.0)),
        ]);
    }
    print!("{}", table.render());
}

fn render_pair(pair: &Pair<'_>, opts: &DeltaOptions) -> (CostLedger, CostLedger) {
    let phases = opts.phases;
    // Shared phase boundaries: both sides are sliced over the same span.
    let duration_us = pair
        .left
        .iter()
        .chain(pair.right)
        .map(|e| e.time().as_micros())
        .max()
        .map_or(0, |t| t + 1);
    let (left, left_ledgers, left_total) = analyze(pair.left, duration_us, phases);
    let (right, right_ledgers, right_total) = analyze(pair.right, duration_us, phases);

    println!(
        "\n=== {}: {} vs {} events, {:.2} vs {:.2} Minstr attributed, ratio {:.3} ===",
        pair.name,
        pair.left.len(),
        pair.right.len(),
        left_total.total() / 1e6,
        right_total.total() / 1e6,
        overhead_ratio(&right_total, &left_total),
    );
    let peak_delta = left_ledgers
        .iter()
        .zip(&right_ledgers)
        .map(|(l, r)| (r.total() - l.total()).abs())
        .fold(0.0, f64::max);
    let mut table = TextTable::new([
        "phase", "Δevents", "miss% L", "miss% R", "peak L", "peak R", "Minstr L", "Minstr R",
        "ΔMinstr", "",
    ]);
    for (p, ((l, r), (ll, rl))) in left
        .iter()
        .zip(&right)
        .zip(left_ledgers.iter().zip(&right_ledgers))
        .enumerate()
    {
        if l.events == 0 && r.events == 0 {
            continue;
        }
        let delta = rl.total() - ll.total();
        table.row([
            p.to_string(),
            format!("{:+}", r.events as i64 - l.events as i64),
            format!("{:.1}", l.miss_pct()),
            format!("{:.1}", r.miss_pct()),
            fmt_bytes(l.peak_resident),
            fmt_bytes(r.peak_resident),
            format!("{:.2}", ll.total() / 1e6),
            format!("{:.2}", rl.total() / 1e6),
            format!("{:+.2}", delta / 1e6),
            bar(delta.abs(), peak_delta, 20),
        ]);
    }
    print!("{}", table.render());
    if opts.regret {
        render_regret_pair(pair, phases, duration_us);
    }
    if opts.windows {
        render_windows_pair(pair);
    }
    (left_total, right_total)
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => return cli::exit("delta", USAGE, e),
    };
    let left = match load_streams(&opts.left) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let right_streams;
    let right = match &opts.right {
        Some(path) => match load_streams(path) {
            Ok(s) => {
                right_streams = s;
                &right_streams
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        },
        None => &left,
    };

    // One file and no explicit models: diff the two standard exports.
    let mut opts = opts;
    if opts.right.is_none() && opts.left_model.is_none() && opts.right_model.is_none() {
        let [(l, _), (r, _)] = export_specs();
        opts.left_model = Some(l.to_string());
        opts.right_model = Some(r.to_string());
    }

    let pairs = pair_streams(&opts, &left, right);
    if pairs.is_empty() {
        eprintln!(
            "error: the two exports share no comparable (benchmark, model) stream pairs\n\
             left  ({}): {}\n\
             right ({}): {}",
            opts.left,
            stream_keys(&left),
            opts.right.as_deref().unwrap_or(&opts.left),
            stream_keys(right),
        );
        if let (Some(l), Some(r)) = (&opts.left_model, &opts.right_model) {
            eprintln!("pairing required model {l:?} on the left and {r:?} on the right");
        }
        return ExitCode::FAILURE;
    }

    println!(
        "delta: {} pair(s), {} phases{}",
        pairs.len(),
        opts.phases,
        match (&opts.left_model, &opts.right_model) {
            (Some(l), Some(r)) => format!(", {l} vs {r}"),
            _ => String::new(),
        },
    );
    let mut suite_left = CostLedger::new();
    let mut suite_right = CostLedger::new();
    for pair in &pairs {
        let (l, r) = render_pair(pair, &opts);
        suite_left.merge(&l);
        suite_right.merge(&r);
    }

    println!(
        "\nSuite totals: left {:.2} Minstr ({} misses, {} evictions, {} promotions), \
         right {:.2} Minstr ({} misses, {} evictions, {} promotions)",
        suite_left.total() / 1e6,
        suite_left.miss_events,
        suite_left.eviction_events,
        suite_left.promotion_events,
        suite_right.total() / 1e6,
        suite_right.miss_events,
        suite_right.eviction_events,
        suite_right.promotion_events,
    );
    println!(
        "Equation 3 overhead ratio (right/left): {:.3}  \
         [miss service ≈ {:.0} instructions for a median 242 B trace]",
        overhead_ratio(&suite_right, &suite_left),
        cost::miss_service(242),
    );
    ExitCode::SUCCESS
}
