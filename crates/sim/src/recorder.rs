//! Recording a benchmark: run the workload through the DBT frontend with
//! an unbounded trace cache and capture the verbose access log.

use std::collections::VecDeque;

use gencache_cache::{LogRecord, TraceId};
use gencache_core::{LifetimeHistogram, LifetimeTracker};
use gencache_frontend::{Engine, FrontendEvent, FrontendStats};
use gencache_workloads::{
    ExecutionPlan, PlanError, Run, TimedEvent, WorkloadEvent, WorkloadProfile,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::log::AccessLog;

/// Per-benchmark characterization numbers, feeding Figures 1–4 and 6.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunSummary {
    /// Benchmark name.
    pub name: String,
    /// Run duration in seconds.
    pub duration_secs: f64,
    /// Unique static code executed (application footprint).
    pub footprint_bytes: u64,
    /// Peak unbounded code cache size (basic blocks + traces): Figure 1.
    pub max_cache_bytes: u64,
    /// Peak unbounded *trace cache* size: `maxCache` for Section 6 sizing.
    pub peak_trace_bytes: u64,
    /// Equation 1: `maxCacheBytes / footprintBytes` − expressed as the
    /// paper's percentage (500% ≈ cache is 5× the original code): Fig. 2.
    pub code_expansion_pct: f64,
    /// Trace insertion rate in KB/s: Figure 3.
    pub insertion_rate_kbps: f64,
    /// Fraction of trace bytes deleted due to unmapped memory: Figure 4.
    pub unmapped_frac: f64,
    /// Traces created.
    pub traces_created: u64,
    /// Trace executions recorded.
    pub trace_accesses: u64,
    /// Median trace size in bytes.
    pub median_trace_bytes: u32,
    /// The Figure 6 lifetime histogram.
    pub lifetimes: LifetimeHistogram,
}

/// A recorded benchmark: the replayable log plus its characterization.
#[derive(Debug)]
pub struct RecordedRun {
    /// The verbose access log.
    pub log: AccessLog,
    /// Frontend counters from the unbounded run.
    pub frontend: FrontendStats,
    /// Derived characterization.
    pub summary: RunSummary,
}

/// Options controlling a recording.
#[derive(Debug, Clone, Copy)]
pub struct RecorderOptions {
    /// Probability per trace access that an exception fires inside the
    /// trace, pinning it (undeletable) for `pin_window` records.
    pub exception_rate: f64,
    /// How many subsequent records a pinned trace stays pinned.
    pub pin_window: u32,
}

impl Default for RecorderOptions {
    fn default() -> Self {
        RecorderOptions {
            // Exceptions are rare; a small rate still exercises the
            // pseudo-circular pointer-reset machinery thousands of times
            // on large benchmarks.
            exception_rate: 2e-4,
            pin_window: 64,
        }
    }
}

/// Records `profile` with default options.
///
/// # Errors
///
/// Returns [`PlanError`] if the workload cannot be planned.
pub fn record(profile: &WorkloadProfile) -> Result<RecordedRun, PlanError> {
    record_with(profile, RecorderOptions::default())
}

/// The run facts a streaming recording accumulates while records flow
/// through the emit callback: everything [`RunSummary`] and capacity
/// sizing need, *without* the records themselves. Memory is bounded by
/// the live trace set (sizes, lifetimes), never by stream length.
#[derive(Debug, Clone)]
pub struct RecordFacts {
    /// Aggregated frontend counters (peak trace bytes included).
    pub frontend: FrontendStats,
    /// Wall-clock span of the planned run.
    pub duration: gencache_program::Time,
    /// Total log records emitted.
    pub records: u64,
    /// Executions emitted (creations + accesses) — the materialized
    /// log's `access_count()`.
    pub accesses: u64,
    /// The Figure 6 lifetime histogram.
    pub lifetimes: LifetimeHistogram,
    /// Median created-trace size in bytes.
    pub median_trace_bytes: u32,
}

impl RecordFacts {
    /// The paper's standard bounded-cache budget for this recording:
    /// [`standard_capacity`](crate::standard_capacity) of the unbounded
    /// peak.
    pub fn capacity(&self) -> u64 {
        crate::recording::standard_capacity(self.frontend.peak_trace_bytes)
    }

    /// Builds the same [`RunSummary`] the materialized path derives from
    /// its [`AccessLog`].
    pub fn summary(&self, profile: &WorkloadProfile) -> RunSummary {
        let stats = &self.frontend;
        let expansion_pct = if stats.footprint_bytes > 0 {
            stats.peak_cache_bytes as f64 / stats.footprint_bytes as f64 * 100.0
        } else {
            0.0
        };
        let insertion_rate_kbps =
            stats.trace_bytes_created as f64 / 1024.0 / self.duration.as_secs_f64();
        let unmapped_frac = if stats.trace_bytes_created > 0 {
            stats.trace_bytes_invalidated as f64 / stats.trace_bytes_created as f64
        } else {
            0.0
        };
        RunSummary {
            name: profile.name.clone(),
            duration_secs: profile.duration_secs,
            footprint_bytes: stats.footprint_bytes,
            max_cache_bytes: stats.peak_cache_bytes,
            peak_trace_bytes: stats.peak_trace_bytes,
            code_expansion_pct: expansion_pct,
            insertion_rate_kbps,
            unmapped_frac,
            traces_created: stats.traces_created,
            trace_accesses: stats.trace_accesses + stats.traces_created,
            median_trace_bytes: self.median_trace_bytes,
            lifetimes: self.lifetimes,
        }
    }
}

/// Runs the recording and hands every [`LogRecord`] to `emit` the moment
/// it is produced, instead of materializing a log. Recording is fully
/// deterministic, so two invocations emit byte-identical record streams
/// — which is what lets a streamed pipeline probe the run facts in one
/// pass and replay in a second without ever holding the log.
///
/// # Errors
///
/// Returns [`PlanError`] if the workload cannot be planned.
pub fn record_stream_with(
    profile: &WorkloadProfile,
    options: RecorderOptions,
    emit: &mut dyn FnMut(LogRecord),
) -> Result<RecordFacts, PlanError> {
    let plan = ExecutionPlan::from_profile(profile)?;
    // One frontend per guest thread — DynamoRIO's caches are
    // thread-private, so each thread independently discovers trace heads
    // and builds its own (possibly duplicated) traces for shared code.
    let threads = profile.threads.max(1);
    let mut engines: Vec<Engine> = (0..threads)
        .map(|_| Engine::new(plan.image().clone()))
        .collect();
    let mut log = LogWriter {
        emit,
        options,
        rng: StdRng::seed_from_u64(profile.seed ^ 0x9e37_79b9_7f4a_7c15),
        lifetimes: LifetimeTracker::new(),
        pinned: VecDeque::new(),
        emitted: 0,
        accesses: 0,
        trace_sizes: Vec::new(),
    };
    // Peak of summed live trace bytes across engines. Live bytes only
    // fall at unloads, so the peak after each run is the peak overall.
    let mut peak_trace_bytes = 0u64;

    let mut stream = plan.stream();
    while let Some(run) = stream.next_run() {
        match run {
            // Module unloads affect every thread's caches.
            Run::Unload { time, module } => {
                let ev = TimedEvent::new(time, WorkloadEvent::Unload { module });
                for (t, engine) in engines.iter_mut().enumerate() {
                    engine.on_event(ev, &mut |fe| log.frontend_event(t as u32, fe));
                }
            }
            Run::Blocks {
                thread,
                first,
                addrs,
            } => {
                let t = thread.min(threads - 1);
                // Pin windows expire after each block's records, as if
                // the check ran after every block.
                let mut block = first;
                let clock = |k| plan.exec_time(k);
                engines[t as usize].on_blocks(addrs, first, clock, &mut |k, fe| {
                    if k != block {
                        log.expire_pins();
                        block = k;
                    }
                    log.frontend_event(t, fe);
                });
            }
        }
        let live: u64 = engines.iter().map(|e| e.stats().live_trace_bytes).sum();
        peak_trace_bytes = peak_trace_bytes.max(live);
        log.expire_pins();
    }
    // Unpin anything still pinned at exit.
    for (id, _) in std::mem::take(&mut log.pinned) {
        log.push(LogRecord::Unpin { id });
    }

    // Aggregate frontend stats across threads.
    let mut stats = FrontendStats::default();
    for engine in &engines {
        let s = engine.stats();
        stats.exec_events += s.exec_events;
        stats.bb_blocks += s.bb_blocks;
        stats.bb_bytes += s.bb_bytes;
        stats.traces_created += s.traces_created;
        stats.trace_bytes_created += s.trace_bytes_created;
        stats.live_trace_bytes += s.live_trace_bytes;
        stats.trace_accesses += s.trace_accesses;
        stats.traces_invalidated += s.traces_invalidated;
        stats.trace_bytes_invalidated += s.trace_bytes_invalidated;
        stats.trace_exits += s.trace_exits;
        stats.context_switches += s.context_switches;
        // The *footprint* is shared program code: take the maximum over
        // threads rather than summing duplicate executions (a lower
        // bound on the process-wide unique code; exact union tracking
        // is not worth the per-event cost, and the paper's figures all
        // use single-threaded recordings).
        stats.footprint_bytes = stats.footprint_bytes.max(s.footprint_bytes);
        stats.peak_cache_bytes += s.peak_cache_bytes;
    }
    stats.peak_trace_bytes = peak_trace_bytes;

    let duration = plan.duration();
    // Same median as `AccessLog::median_trace_bytes` on the full log.
    let mut trace_sizes = log.trace_sizes;
    let median_trace_bytes = if trace_sizes.is_empty() {
        0
    } else {
        trace_sizes.sort_unstable();
        trace_sizes[trace_sizes.len() / 2]
    };

    Ok(RecordFacts {
        frontend: stats,
        duration,
        records: log.emitted as u64,
        accesses: log.accesses,
        lifetimes: log.lifetimes.histogram(duration),
        median_trace_bytes,
    })
}

/// The log side of a recording: turns frontend events into
/// [`LogRecord`]s and keeps the streaming replacements for the
/// materialized log's derived views — a record counter standing in for
/// `records.len()` and the created sizes feeding the median
/// (O(traces created), not O(records)).
struct LogWriter<'e> {
    emit: &'e mut dyn FnMut(LogRecord),
    options: RecorderOptions,
    rng: StdRng,
    lifetimes: LifetimeTracker,
    /// (trace, emitted-record index at which to unpin)
    pinned: VecDeque<(TraceId, usize)>,
    emitted: usize,
    accesses: u64,
    trace_sizes: Vec<u32>,
}

impl LogWriter<'_> {
    fn push(&mut self, record: LogRecord) {
        self.emitted += 1;
        (self.emit)(record);
    }

    /// Logs one event of thread `t`'s frontend. Trace ids are namespaced
    /// per thread so the merged log stays unique.
    fn frontend_event(&mut self, t: u32, fe: FrontendEvent) {
        let remap = |id: TraceId| TraceId::new((u64::from(t) << 48) | id.as_u64());
        match fe {
            FrontendEvent::TraceCreated { trace } => {
                let id = remap(trace.id());
                self.lifetimes.record(id, trace.created());
                let mut rec = trace.record();
                rec.id = id;
                self.trace_sizes.push(rec.size_bytes);
                self.accesses += 1;
                self.push(LogRecord::Create {
                    record: rec,
                    time: trace.created(),
                });
            }
            FrontendEvent::TraceAccess { id, time } => {
                let id = remap(id);
                self.lifetimes.record(id, time);
                self.accesses += 1;
                self.push(LogRecord::Access { id, time });
                let rate = self.options.exception_rate;
                if rate > 0.0 && self.rng.gen_bool(rate) {
                    self.push(LogRecord::Pin { id });
                    let deadline = self.emitted + self.options.pin_window as usize;
                    self.pinned.push_back((id, deadline));
                }
            }
            FrontendEvent::TracesInvalidated { ids, time } => {
                for id in ids {
                    self.push(LogRecord::Invalidate {
                        id: remap(id),
                        time,
                    });
                }
            }
        }
    }

    /// Unpins every trace whose pin window has run out.
    fn expire_pins(&mut self) {
        while let Some(&(id, deadline)) = self.pinned.front() {
            if self.emitted < deadline {
                break;
            }
            self.pinned.pop_front();
            self.push(LogRecord::Unpin { id });
        }
    }
}

/// Records `profile` with explicit options, materializing the full
/// [`AccessLog`]. This is a thin collector over [`record_stream_with`],
/// so the two paths cannot drift.
///
/// # Errors
///
/// Returns [`PlanError`] if the workload cannot be planned.
pub fn record_with(
    profile: &WorkloadProfile,
    options: RecorderOptions,
) -> Result<RecordedRun, PlanError> {
    let mut records: Vec<LogRecord> = Vec::new();
    let facts = record_stream_with(profile, options, &mut |record| records.push(record))?;
    let log = AccessLog {
        benchmark: profile.name.clone(),
        records,
        duration: facts.duration,
        peak_trace_bytes: facts.frontend.peak_trace_bytes,
    };
    let summary = facts.summary(profile);
    Ok(RecordedRun {
        log,
        frontend: facts.frontend,
        summary,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_workloads::{Suite, WorkloadProfile};

    fn profile() -> WorkloadProfile {
        WorkloadProfile::builder("rectest", Suite::Interactive)
            .footprint_kb(48)
            .phases(4)
            .dlls(3, 0.7)
            .duration_secs(10.0)
            .build()
    }

    #[test]
    fn recording_produces_traces_and_accesses() {
        let run = record(&profile()).unwrap();
        assert!(run.summary.traces_created > 10);
        assert!(run.log.access_count() > run.summary.traces_created);
        assert!(run.summary.peak_trace_bytes > 0);
        assert!(run.summary.max_cache_bytes >= run.summary.peak_trace_bytes);
    }

    #[test]
    fn recording_is_deterministic() {
        let a = record(&profile()).unwrap();
        let b = record(&profile()).unwrap();
        assert_eq!(a.log.records.len(), b.log.records.len());
        assert_eq!(a.summary.max_cache_bytes, b.summary.max_cache_bytes);
    }

    #[test]
    fn dll_churn_shows_up_as_invalidations() {
        let run = record(&profile()).unwrap();
        assert!(
            run.summary.unmapped_frac > 0.0,
            "70% DLL unload should invalidate some traces"
        );
        assert!(run.log.invalidated_bytes() > 0);
    }

    #[test]
    fn expansion_is_substantial() {
        let run = record(&profile()).unwrap();
        // Helper inlining should expand code well past 150%.
        assert!(
            run.summary.code_expansion_pct > 150.0,
            "expansion {:.0}% too small",
            run.summary.code_expansion_pct
        );
    }

    #[test]
    fn pins_are_balanced_by_unpins() {
        let opts = RecorderOptions {
            exception_rate: 0.05,
            pin_window: 10,
        };
        let run = record_with(&profile(), opts).unwrap();
        let pins = run
            .log
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Pin { .. }))
            .count();
        let unpins = run
            .log
            .records
            .iter()
            .filter(|r| matches!(r, LogRecord::Unpin { .. }))
            .count();
        assert!(pins > 0, "high exception rate must pin traces");
        assert_eq!(pins, unpins);
    }

    #[test]
    fn multithreaded_recording_duplicates_shared_traces() {
        // Duplication requires each thread to be individually hot on the
        // shared code: a thread only builds its own trace after crossing
        // the 50-execution threshold by itself. Give the shared regions
        // enough revisits that every thread qualifies.
        let hot = WorkloadProfile::builder("rectest-mt", Suite::Interactive)
            .footprint_kb(48)
            .phases(6)
            .dlls(3, 0.7)
            .hot_revisits(14)
            .duration_secs(10.0)
            .build();
        let single = record(&hot).unwrap();
        let mut mt = hot.clone();
        mt.threads = 4;
        let multi = record(&mt).unwrap();
        // Thread-private frontends each build their own copy of the
        // shared (persistent) hot code, so more traces and bytes exist.
        assert!(
            multi.summary.traces_created > single.summary.traces_created,
            "expected duplication: {} vs {}",
            multi.summary.traces_created,
            single.summary.traces_created
        );
        assert!(multi.frontend.trace_bytes_created > single.frontend.trace_bytes_created);
        // The shared program footprint does not multiply: the aggregate
        // is the largest per-thread footprint, a lower bound on the
        // process-wide unique code (threads split the phase-local code).
        assert!(multi.summary.footprint_bytes <= single.summary.footprint_bytes);
        // Trace ids are namespaced per thread: all unique.
        use std::collections::HashSet;
        let mut seen = HashSet::new();
        for r in &multi.log.records {
            if let LogRecord::Create { record, .. } = r {
                assert!(seen.insert(record.id), "duplicate trace id {}", record.id);
            }
        }
    }

    #[test]
    fn multithreaded_recording_is_deterministic_and_replayable() {
        let mut p = profile();
        p.threads = 3;
        let a = record(&p).unwrap();
        let b = record(&p).unwrap();
        assert_eq!(a.log.records.len(), b.log.records.len());
        assert_eq!(a.summary.peak_trace_bytes, b.summary.peak_trace_bytes);
        // The merged log replays cleanly into the standard comparison.
        let c = crate::compare_figure9(&a.log);
        assert_eq!(c.unified.metrics.accesses, a.log.access_count());
    }

    #[test]
    fn unloads_invalidate_across_threads() {
        let mut p = profile(); // dlls(3, 0.7): DLL churn present
        p.threads = 2;
        let run = record(&p).unwrap();
        assert!(
            run.summary.unmapped_frac > 0.0,
            "unload must reach the owning thread's engine"
        );
    }

    #[test]
    fn lifetimes_are_u_shaped() {
        let run = record(&profile()).unwrap();
        let h = run.summary.lifetimes;
        assert!(h.total() > 0);
        assert!(
            h.is_u_shaped(),
            "lifetime histogram should be U-shaped: {:?}",
            h.fractions()
        );
    }
}
