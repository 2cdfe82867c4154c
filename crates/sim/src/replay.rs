//! Replaying a recorded log into bounded cache models, and the standard
//! unified-vs-generational comparison of Section 6.

use gencache_cache::{TraceId, TraceMap, TraceRecord};
use gencache_program::Time;
use gencache_core::{
    overhead_ratio, CacheModel, CostLedger, GenerationalConfig, GenerationalModel, ModelMetrics,
    UnifiedModel,
};
use serde::{Deserialize, Serialize};

use crate::log::{AccessLog, LogRecord};
use crate::progress::{ProgressMeter, PROGRESS_BATCH};

/// Per-stream replay state: the trace catalog (sizes and head addresses
/// resolved from creation records) and the standing clock for untimed
/// pin records.
///
/// One cursor [`step`](ReplayCursor::step)s through a record stream
/// exactly once, and the resolved [`ReplayStep`] can then
/// [`drive`](ReplayStep::drive) *any number of models* — this is what
/// lets the streamed record path feed one bounded-channel pass into the
/// whole Figure 9 model set without materializing the log, while
/// [`replay_into`] stays a thin loop over the same logic.
#[derive(Debug, Default)]
pub struct ReplayCursor {
    catalog: TraceMap<TraceId, TraceRecord>,
    // Pin records carry no timestamp; the clock of the most recent timed
    // record stands in for them.
    now: Time,
}

/// One log record resolved against the [`ReplayCursor`] catalog and
/// clock, ready to drive a model.
#[derive(Debug, Clone, Copy)]
pub enum ReplayStep {
    /// Present the trace for execution (creations and accesses alike: a
    /// trace is executed as soon as it is generated).
    Access(TraceRecord, Time),
    /// Force deletion of an unmapped trace.
    Unmap(TraceId, Time),
    /// Toggle the trace's undeletable window.
    Pin(TraceId, bool, Time),
}

impl ReplayCursor {
    /// A fresh cursor at time zero with an empty catalog.
    pub fn new() -> Self {
        ReplayCursor::default()
    }

    /// Resolves the next `record` of the stream into a driveable step,
    /// updating the catalog and the standing clock.
    pub fn step(&mut self, record: &LogRecord) -> ReplayStep {
        match *record {
            LogRecord::Create { record, time } => {
                self.catalog.insert(record.id, record);
                self.now = time;
                ReplayStep::Access(record, time)
            }
            LogRecord::Access { id, time } => {
                let rec = self
                    .catalog
                    .get(id)
                    .expect("access to a trace never created; corrupt log");
                self.now = time;
                ReplayStep::Access(*rec, time)
            }
            LogRecord::Invalidate { id, time } => {
                self.now = time;
                ReplayStep::Unmap(id, time)
            }
            LogRecord::Pin { id } => ReplayStep::Pin(id, true, self.now),
            LogRecord::Unpin { id } => ReplayStep::Pin(id, false, self.now),
        }
    }
}

impl ReplayStep {
    /// Applies this step to one model. A step may drive any number of
    /// models; they all observe the identical frontend request.
    pub fn drive(&self, model: &mut dyn CacheModel) {
        match *self {
            ReplayStep::Access(record, time) => {
                model.on_access(record, time);
            }
            ReplayStep::Unmap(id, time) => {
                model.on_unmap(id, time);
            }
            ReplayStep::Pin(id, pinned, now) => {
                model.on_pin(id, pinned, now);
            }
        }
    }
}

/// Replays `log` into `model`, returning nothing; inspect the model's
/// metrics and ledger afterwards.
///
/// Creations and accesses both present the trace for execution (a trace
/// is executed as soon as it is generated); invalidations force deletion;
/// pin/unpin windows mark traces undeletable.
pub fn replay_into(log: &AccessLog, model: &mut dyn CacheModel) {
    let mut cursor = ReplayCursor::new();
    for record in &log.records {
        cursor.step(record).drive(model);
    }
}

/// [`replay_into`] with a shared [`ProgressMeter`] heartbeat.
///
/// Progress is flushed into the meter every [`PROGRESS_BATCH`] records
/// (and once at the end), so the shared-atomic traffic stays negligible
/// even with many workers replaying concurrently.
pub fn replay_into_metered(log: &AccessLog, model: &mut dyn CacheModel, meter: &ProgressMeter) {
    let mut cursor = ReplayCursor::new();
    let mut pending = 0u64;
    for record in &log.records {
        cursor.step(record).drive(model);
        pending += 1;
        if pending == PROGRESS_BATCH {
            meter.add(pending);
            pending = 0;
        }
    }
    if pending > 0 {
        meter.add(pending);
    }
}

/// The result of replaying one log into one model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ReplayResult {
    /// Model description.
    pub model: String,
    /// Hit/miss counters.
    pub metrics: ModelMetrics,
    /// Management-instruction costs.
    pub ledger: CostLedger,
}

impl ReplayResult {
    /// Reads a replayed model's description, counters and ledger.
    pub fn of(model: &dyn CacheModel) -> Self {
        ReplayResult {
            model: model.name(),
            metrics: *model.metrics(),
            ledger: *model.ledger(),
        }
    }

    /// Miss rate of this replay.
    pub fn miss_rate(&self) -> f64 {
        self.metrics.miss_rate()
    }
}

/// The Section 6 comparison: a unified pseudo-circular cache sized at
/// `0.5 × maxCache` versus generational layouts of identical total size.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Comparison {
    /// Benchmark name.
    pub benchmark: String,
    /// Total cache budget in bytes (`0.5 × maxCache`).
    pub capacity: u64,
    /// The unified baseline result.
    pub unified: ReplayResult,
    /// One result per generational configuration, in input order.
    pub generational: Vec<ReplayResult>,
}

impl Comparison {
    /// Miss-rate reduction of generational configuration `i` relative to
    /// the unified baseline (Figure 9): positive is better.
    pub fn miss_rate_reduction(&self, i: usize) -> f64 {
        let u = self.unified.miss_rate();
        if u == 0.0 {
            0.0
        } else {
            (u - self.generational[i].miss_rate()) / u
        }
    }

    /// Absolute misses eliminated by configuration `i` (Figure 10); may
    /// be negative if the generational scheme missed more.
    pub fn misses_eliminated(&self, i: usize) -> i64 {
        self.unified.metrics.misses as i64 - self.generational[i].metrics.misses as i64
    }

    /// Equation 3 overhead ratio for configuration `i` (Figure 11);
    /// below 1.0 means the generational scheme is cheaper.
    pub fn overhead_ratio(&self, i: usize) -> f64 {
        overhead_ratio(&self.generational[i].ledger, &self.unified.ledger)
    }
}

/// Replays `log` against the unified baseline and each generational
/// configuration, all sharing the same total capacity.
///
/// Capacity follows the paper: half the cache size the benchmark needed
/// to avoid management entirely.
pub fn compare(log: &AccessLog, configs: &[GenerationalConfig]) -> Comparison {
    let meter = ProgressMeter::disabled("replay", 0);
    compare_metered(log, configs, &meter)
}

/// [`compare`] with a shared [`ProgressMeter`]: each of the
/// `1 + configs.len()` model replays reports per-record progress, so a
/// suite driver can show a live heartbeat across its whole fan-out.
pub fn compare_metered(
    log: &AccessLog,
    configs: &[GenerationalConfig],
    meter: &ProgressMeter,
) -> Comparison {
    let capacity = (log.peak_trace_bytes / 2).max(1);

    let mut unified = UnifiedModel::new(capacity);
    replay_into_metered(log, &mut unified, meter);
    let unified_result = ReplayResult::of(&unified);

    let mut generational = Vec::with_capacity(configs.len());
    for config in configs {
        debug_assert_eq!(
            config.total_bytes(),
            capacity,
            "configs must share the budget"
        );
        let mut model = GenerationalModel::new(*config);
        replay_into_metered(log, &mut model, meter);
        generational.push(ReplayResult::of(&model));
    }

    Comparison {
        benchmark: log.benchmark.clone(),
        capacity,
        unified: unified_result,
        generational,
    }
}

/// Convenience: the three Figure 9 configurations over the log's standard
/// capacity.
pub fn compare_figure9(log: &AccessLog) -> Comparison {
    let meter = ProgressMeter::disabled("replay", 0);
    compare_figure9_metered(log, &meter)
}

/// [`compare_figure9`] with a shared [`ProgressMeter`] heartbeat.
pub fn compare_figure9_metered(log: &AccessLog, meter: &ProgressMeter) -> Comparison {
    let capacity = (log.peak_trace_bytes / 2).max(1);
    compare_metered(log, &GenerationalConfig::figure9_configs(capacity), meter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::{Addr, Time};

    /// A synthetic log with heavy churn over long-lived traces: the
    /// textbook case where generational management wins.
    fn u_shaped_log() -> AccessLog {
        let mut records = Vec::new();
        let rec =
            |id: u64, size: u32| TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id));
        let mut t = 0u64;
        let mut now = move || {
            t += 1;
            Time::from_micros(t)
        };

        // 60 long-lived traces created up front (roughly the long-lived
        // share Figure 6 reports).
        for id in 0..60 {
            records.push(LogRecord::Create {
                record: rec(id, 200),
                time: now(),
            });
        }
        // 10 phases of 4 rounds each: every round creates a handful of
        // short-lived traces (one access each) and then re-executes the
        // long-lived set — interleaved, the way an event loop's dispatch
        // code keeps re-running between bursts of fresh code. The
        // interleaving matters: a long-lived trace evicted into the small
        // probation cache must be re-executed before short-trace churn
        // pushes it out again.
        let mut next_short = 1000u64;
        for _phase in 0..10u64 {
            for _round in 0..4 {
                for _ in 0..8 {
                    let id = next_short;
                    next_short += 1;
                    records.push(LogRecord::Create {
                        record: rec(id, 200),
                        time: now(),
                    });
                    records.push(LogRecord::Access {
                        id: TraceId::new(id),
                        time: now(),
                    });
                }
                for id in 0..60 {
                    records.push(LogRecord::Access {
                        id: TraceId::new(id),
                        time: now(),
                    });
                }
            }
        }

        let peak = (60 + 320) * 200; // all traces live at once (unbounded)
        AccessLog {
            benchmark: "synthetic-u".into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: peak,
        }
    }

    #[test]
    fn generational_beats_unified_on_u_shaped_churn() {
        let log = u_shaped_log();
        let comparison = compare_figure9(&log);
        let best = comparison.miss_rate_reduction(1); // 45-10-45 on-hit(1)
        assert!(
            best > 0.05,
            "expected a clear miss-rate win, got {best:.3} \
             (unified {:.3} vs gen {:.3})",
            comparison.unified.miss_rate(),
            comparison.generational[1].miss_rate()
        );
        assert!(comparison.misses_eliminated(1) > 0);
        assert!(comparison.overhead_ratio(1) < 1.0);
    }

    #[test]
    fn replay_is_deterministic() {
        let log = u_shaped_log();
        let a = compare_figure9(&log);
        let b = compare_figure9(&log);
        assert_eq!(a.unified.metrics, b.unified.metrics);
        assert_eq!(a.generational[0].metrics, b.generational[0].metrics);
    }

    #[test]
    fn all_models_see_identical_access_streams() {
        let log = u_shaped_log();
        let c = compare_figure9(&log);
        assert_eq!(c.unified.metrics.accesses, log.access_count());
        for g in &c.generational {
            assert_eq!(g.metrics.accesses, log.access_count());
        }
    }

    #[test]
    fn invalidations_apply_to_all_models() {
        let mut log = u_shaped_log();
        // Invalidate the long-lived traces midway.
        log.records.push(LogRecord::Invalidate {
            id: TraceId::new(0),
            time: Time::from_secs_f64(0.9),
        });
        let c = compare_figure9(&log);
        assert!(c.unified.metrics.unmap_deletions <= 1);
        for g in &c.generational {
            assert!(g.metrics.unmap_deletions <= 1);
        }
    }

    #[test]
    #[should_panic(expected = "never created")]
    fn corrupt_log_panics() {
        let log = AccessLog {
            benchmark: "bad".into(),
            records: vec![LogRecord::Access {
                id: TraceId::new(9),
                time: Time::ZERO,
            }],
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 100,
        };
        let mut model = UnifiedModel::new(50);
        replay_into(&log, &mut model);
    }
}
