//! Thread-private versus thread-shared code caches (extension).
//!
//! DynamoRIO gives every thread its own basic-block and trace caches —
//! the paper builds on this ("DynamoRIO already supports multiple code
//! caches per thread") and proposes multiple *generational* trace caches
//! per thread. Thread privacy buys lock-free cache access but fragments
//! the capacity budget: a thread with a large working set cannot borrow
//! space from an idle sibling.
//!
//! This module models the trade-off on a recorded log: traces are
//! assigned to threads by the module that produced them (a decent proxy —
//! worker threads run worker-library code), the log is split into
//! per-thread access streams, and each thread gets `1/T` of the capacity
//! budget. Comparing the summed per-thread miss behaviour against one
//! shared cache of the full budget quantifies the fragmentation penalty.

use std::collections::HashMap;

use gencache_cache::LogRecord;
use gencache_core::{CacheModel, GenerationalConfig, GenerationalModel, UnifiedModel};
use gencache_program::Addr;
use serde::{Deserialize, Serialize};

use crate::log::AccessLog;
use crate::replay::replay_into;

/// Splits `log` into `threads` per-thread logs. Every trace is owned by
/// exactly one thread, chosen by hashing the 16 MB-aligned region of its
/// head address (so a module's traces stay together, approximating
/// threads running distinct libraries). Pin/unpin/invalidate records
/// follow their trace; timestamps and relative order are preserved.
///
/// # Panics
///
/// Panics if `threads` is zero.
pub fn partition_by_module(log: &AccessLog, threads: u32) -> Vec<AccessLog> {
    assert!(threads > 0, "at least one thread required");
    let assign = |head: Addr| -> usize {
        // 16 MB-aligned region index; the workload planner bases each
        // module at a distinct 16 MB boundary.
        let region = head.as_u64() >> 24;
        (region % u64::from(threads)) as usize
    };

    let mut owner: HashMap<gencache_cache::TraceId, usize> = HashMap::new();
    let mut logs: Vec<AccessLog> = (0..threads)
        .map(|t| AccessLog {
            benchmark: format!("{}/thread{}", log.benchmark, t),
            records: Vec::new(),
            duration: log.duration,
            peak_trace_bytes: 0,
        })
        .collect();

    for record in &log.records {
        let thread = match record {
            LogRecord::Create { record, .. } => {
                let t = assign(record.head);
                owner.insert(record.id, t);
                t
            }
            LogRecord::Access { id, .. }
            | LogRecord::Invalidate { id, .. }
            | LogRecord::Pin { id }
            | LogRecord::Unpin { id } => match owner.get(id) {
                Some(&t) => t,
                None => continue, // record for a never-created trace
            },
        };
        logs[thread].records.push(*record);
    }

    // Per-thread peaks: live bytes high-water mark within each log.
    for thread_log in &mut logs {
        let mut live = 0u64;
        let mut peak = 0u64;
        let mut sizes: HashMap<gencache_cache::TraceId, u64> = HashMap::new();
        for record in &thread_log.records {
            match record {
                LogRecord::Create { record, .. } => {
                    sizes.insert(record.id, u64::from(record.size_bytes));
                    live += u64::from(record.size_bytes);
                    peak = peak.max(live);
                }
                LogRecord::Invalidate { id, .. } => {
                    live -= sizes.get(id).copied().unwrap_or(0);
                }
                _ => {}
            }
        }
        thread_log.peak_trace_bytes = peak;
    }
    logs
}

/// Aggregate outcome of one thread-organization replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ThreadedOutcome {
    /// Threads simulated.
    pub threads: u32,
    /// Total accesses across threads.
    pub accesses: u64,
    /// Total misses across threads.
    pub misses: u64,
    /// Total management instructions across threads.
    pub overhead_instructions: f64,
}

impl ThreadedOutcome {
    /// Aggregate miss rate.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// Which cache organization each thread uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ThreadCacheKind {
    /// One pseudo-circular cache per thread.
    Unified,
    /// One generational (45-10-45, promote-on-hit-1) hierarchy per thread.
    Generational,
}

/// How the shared capacity budget is divided among thread-private caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetSplit {
    /// Every thread receives `total / threads` — the naive static split.
    Equal,
    /// Each thread receives capacity proportional to its own unbounded
    /// peak — the split an adaptive runtime would converge to.
    PeakProportional,
}

/// Replays `log` under thread-private caches: the log is partitioned
/// across `threads`, and the capacity budget is divided per `split`.
pub fn replay_thread_private(
    log: &AccessLog,
    threads: u32,
    total_capacity: u64,
    kind: ThreadCacheKind,
    split: BudgetSplit,
) -> ThreadedOutcome {
    let logs = partition_by_module(log, threads);
    let peak_sum: u64 = logs.iter().map(|l| l.peak_trace_bytes).sum();
    let mut outcome = ThreadedOutcome {
        threads,
        ..ThreadedOutcome::default()
    };
    for thread_log in &logs {
        let per_thread = match split {
            BudgetSplit::Equal => total_capacity / u64::from(threads),
            BudgetSplit::PeakProportional if peak_sum > 0 => {
                (total_capacity as u128 * u128::from(thread_log.peak_trace_bytes)
                    / u128::from(peak_sum)) as u64
            }
            BudgetSplit::PeakProportional => total_capacity / u64::from(threads),
        }
        .max(1);
        let mut model: Box<dyn CacheModel> = match kind {
            ThreadCacheKind::Unified => Box::new(UnifiedModel::new(per_thread)),
            ThreadCacheKind::Generational => Box::new(GenerationalModel::new(
                GenerationalConfig::figure9_configs(per_thread)[1],
            )),
        };
        replay_into(thread_log, model.as_mut());
        outcome.accesses += model.metrics().accesses;
        outcome.misses += model.metrics().misses;
        outcome.overhead_instructions += model.ledger().total();
    }
    outcome
}

/// Replays `log` under one shared cache of the full budget (the
/// single-threaded baseline, restated in [`ThreadedOutcome`] form).
pub fn replay_thread_shared(
    log: &AccessLog,
    total_capacity: u64,
    kind: ThreadCacheKind,
) -> ThreadedOutcome {
    let mut model: Box<dyn CacheModel> = match kind {
        ThreadCacheKind::Unified => Box::new(UnifiedModel::new(total_capacity)),
        ThreadCacheKind::Generational => Box::new(GenerationalModel::new(
            GenerationalConfig::figure9_configs(total_capacity)[1],
        )),
    };
    replay_into(log, model.as_mut());
    ThreadedOutcome {
        threads: 1,
        accesses: model.metrics().accesses,
        misses: model.metrics().misses,
        overhead_instructions: model.ledger().total(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::{TraceId, TraceRecord};
    use gencache_program::Time;

    /// Traces in two distinct 16 MB regions, interleaved.
    fn two_module_log() -> AccessLog {
        let rec = |id: u64, region: u64| {
            TraceRecord::new(
                TraceId::new(id),
                100,
                Addr::new(region << 24 | (id & 0xffff)),
            )
        };
        let mut records = Vec::new();
        for id in 0..8 {
            records.push(LogRecord::Create {
                record: rec(id, id % 2),
                time: Time::from_micros(id),
            });
        }
        for round in 0..20u64 {
            for id in 0..8 {
                records.push(LogRecord::Access {
                    id: TraceId::new(id),
                    time: Time::from_micros(100 + round * 8 + id),
                });
            }
        }
        records.push(LogRecord::Pin {
            id: TraceId::new(0),
        });
        records.push(LogRecord::Unpin {
            id: TraceId::new(0),
        });
        records.push(LogRecord::Invalidate {
            id: TraceId::new(1),
            time: Time::from_micros(999),
        });
        AccessLog {
            benchmark: "threads".into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 800,
        }
    }

    #[test]
    fn partition_preserves_every_owned_record() {
        let log = two_module_log();
        let parts = partition_by_module(&log, 2);
        assert_eq!(parts.len(), 2);
        let total: usize = parts.iter().map(|p| p.records.len()).sum();
        assert_eq!(total, log.records.len());
        // Both threads own traces (even/odd regions).
        assert!(parts.iter().all(|p| p.trace_count() == 4));
        // Per-thread peaks sum to the whole (no invalidation before peak).
        assert_eq!(
            parts.iter().map(|p| p.peak_trace_bytes).sum::<u64>(),
            log.peak_trace_bytes
        );
    }

    #[test]
    fn partition_keeps_trace_records_together() {
        let log = two_module_log();
        for part in partition_by_module(&log, 2) {
            // Every access in a part refers to a trace created in it.
            let mut created = std::collections::HashSet::new();
            for r in &part.records {
                match r {
                    LogRecord::Create { record, .. } => {
                        created.insert(record.id);
                    }
                    LogRecord::Access { id, .. }
                    | LogRecord::Invalidate { id, .. }
                    | LogRecord::Pin { id }
                    | LogRecord::Unpin { id } => {
                        assert!(created.contains(id));
                    }
                }
            }
        }
    }

    #[test]
    fn single_thread_partition_is_identity() {
        let log = two_module_log();
        let parts = partition_by_module(&log, 1);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].records, log.records);
        assert_eq!(parts[0].peak_trace_bytes, log.peak_trace_bytes);
    }

    #[test]
    fn private_caches_never_beat_shared_on_balanced_load() {
        let log = two_module_log();
        let capacity = 500; // forces some eviction pressure
        let shared = replay_thread_shared(&log, capacity, ThreadCacheKind::Unified);
        let private = replay_thread_private(
            &log,
            2,
            capacity,
            ThreadCacheKind::Unified,
            BudgetSplit::Equal,
        );
        assert_eq!(shared.accesses, private.accesses);
        // With a balanced split, halved private caches can at best match
        // the shared cache.
        assert!(private.misses >= shared.misses);
        assert!(private.miss_rate() >= shared.miss_rate());
    }

    #[test]
    fn generational_kind_runs() {
        let log = two_module_log();
        let out = replay_thread_private(
            &log,
            2,
            2000,
            ThreadCacheKind::Generational,
            BudgetSplit::PeakProportional,
        );
        assert_eq!(out.threads, 2);
        assert!(out.accesses > 0);
        assert!(out.overhead_instructions > 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        let _ = partition_by_module(&AccessLog::default(), 0);
    }
}
