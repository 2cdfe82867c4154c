//! Reuse-distance analysis of recorded trace-access logs (extension).
//!
//! The *byte-weighted stack distance* of an access is the total size of
//! the distinct traces executed since the previous access to the same
//! trace. Under a fully-associative LRU cache of capacity `C`, an access
//! hits exactly when its stack distance is ≤ `C` (Mattson et al., 1970) —
//! so a single pass over the log yields the whole miss-rate-versus-
//! capacity curve. This is the analytical backbone behind the paper's
//! empirical observations: U-shaped lifetimes produce a reuse-distance
//! distribution with a heavy near tail (nursery hits), a hole in the
//! middle, and a far spike at the long-lived working set — which is why
//! splitting the cache by generation beats any single-pool policy.
//!
//! Distances are computed in O(n log n) with a Fenwick tree over access
//! positions.

use std::collections::HashMap;

use gencache_cache::{LogRecord, ReplayCursor, TraceId};
use gencache_core::apply_step;
use serde::{Deserialize, Serialize};

use crate::log::AccessLog;
use crate::recording::Recording;

/// A Fenwick (binary indexed) tree over byte weights.
#[derive(Debug)]
struct Fenwick {
    tree: Vec<u64>,
}

impl Fenwick {
    fn new(n: usize) -> Self {
        Fenwick {
            tree: vec![0; n + 1],
        }
    }

    /// Adds `delta` at 1-based position `i`.
    fn add(&mut self, mut i: usize, delta: i64) {
        while i < self.tree.len() {
            self.tree[i] = self.tree[i].wrapping_add(delta as u64);
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of positions `1..=i`.
    fn prefix(&self, mut i: usize) -> u64 {
        let mut sum = 0u64;
        while i > 0 {
            sum = sum.wrapping_add(self.tree[i]);
            i -= i & i.wrapping_neg();
        }
        sum
    }
}

/// The byte-weighted reuse-distance profile of one log.
///
/// # Examples
///
/// ```
/// use gencache_cache::{TraceId, TraceRecord};
/// use gencache_program::{Addr, Time};
/// use gencache_sim::{reuse_profile, AccessLog, LogRecord};
///
/// let rec = TraceRecord::new(TraceId::new(1), 100, Addr::new(0x1000));
/// let log = AccessLog {
///     benchmark: "demo".into(),
///     records: vec![
///         LogRecord::Create { record: rec, time: Time::ZERO },
///         LogRecord::Access { id: rec.id, time: Time::from_micros(1) },
///     ],
///     duration: Time::from_secs_f64(1.0),
///     peak_trace_bytes: 100,
/// };
/// let profile = reuse_profile(&log);
/// // The re-access has distance 0 (nothing ran in between): it hits in
/// // any cache large enough to hold the trace itself.
/// assert_eq!(profile.miss_rate_at(100), 0.5); // only the cold miss
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ReuseProfile {
    /// Byte-weighted stack distance per warm access, ascending.
    distances: Vec<u64>,
    /// Cold (first-ever) accesses.
    cold: u64,
    /// Total accesses (cold + warm).
    total: u64,
}

impl ReuseProfile {
    /// Number of accesses profiled.
    pub fn total_accesses(&self) -> u64 {
        self.total
    }

    /// Number of compulsory (cold) accesses.
    pub fn cold_accesses(&self) -> u64 {
        self.cold
    }

    /// The miss rate a fully-associative LRU cache of `capacity` bytes
    /// would incur on this log: cold misses plus warm accesses whose
    /// stack distance exceeds the capacity.
    pub fn miss_rate_at(&self, capacity: u64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let hits = self.distances.partition_point(|&d| d <= capacity) as u64;
        (self.total - hits) as f64 / self.total as f64
    }

    /// The miss-rate curve at the given capacities.
    pub fn curve(&self, capacities: &[u64]) -> Vec<(u64, f64)> {
        capacities
            .iter()
            .map(|&c| (c, self.miss_rate_at(c)))
            .collect()
    }

    /// The median warm-access stack distance, or `None` with no warm
    /// accesses.
    pub fn median_distance(&self) -> Option<u64> {
        if self.distances.is_empty() {
            None
        } else {
            Some(self.distances[self.distances.len() / 2])
        }
    }

    /// The given percentile (0–100) of warm-access stack distances.
    ///
    /// # Panics
    ///
    /// Panics if `pct` exceeds 100.
    pub fn percentile(&self, pct: u8) -> Option<u64> {
        assert!(pct <= 100, "percentile out of range");
        if self.distances.is_empty() {
            return None;
        }
        let idx = (self.distances.len() - 1) * usize::from(pct) / 100;
        Some(self.distances[idx])
    }
}

/// Computes the byte-weighted reuse-distance profile of `log`.
///
/// Unmap invalidations end a trace's reuse chain: its next execution is
/// compulsory (the code was regenerated), matching how every cache model
/// treats it.
pub fn reuse_profile(log: &AccessLog) -> ReuseProfile {
    let n = log.records.len();
    let mut fenwick = Fenwick::new(n);
    // Trace → (1-based position of last access, size).
    let mut last: HashMap<TraceId, (usize, u32)> = HashMap::new();
    let mut sizes: HashMap<TraceId, u32> = HashMap::new();
    let mut profile = ReuseProfile::default();

    for (idx0, record) in log.records.iter().enumerate() {
        let pos = idx0 + 1;
        match *record {
            LogRecord::Create { record, .. } => {
                sizes.insert(record.id, record.size_bytes);
                profile.total += 1;
                profile.cold += 1;
                fenwick.add(pos, i64::from(record.size_bytes));
                last.insert(record.id, (pos, record.size_bytes));
            }
            LogRecord::Access { id, .. } => {
                profile.total += 1;
                let size = sizes.get(&id).copied().unwrap_or(0);
                match last.get(&id).copied() {
                    Some((prev, prev_size)) => {
                        // Bytes of distinct traces touched strictly
                        // between the two accesses, plus this trace's own
                        // size (it must fit too).
                        let between = fenwick.prefix(pos - 1) - fenwick.prefix(prev);
                        profile.distances.push(between + u64::from(size));
                        fenwick.add(prev, -i64::from(prev_size));
                    }
                    None => {
                        // Chain was cut by an invalidation.
                        profile.cold += 1;
                    }
                }
                fenwick.add(pos, i64::from(size));
                last.insert(id, (pos, size));
            }
            LogRecord::Invalidate { id, .. } => {
                if let Some((prev, prev_size)) = last.remove(&id) {
                    fenwick.add(prev, -i64::from(prev_size));
                }
            }
            LogRecord::Pin { .. } | LogRecord::Unpin { .. } => {}
        }
    }
    profile.distances.sort_unstable();
    profile
}

/// Replays `rec` into `model`, sampling resident bytes at `samples`
/// evenly spaced points — the cache-occupancy timeline (rendered with
/// [`crate::report::sparkline`]).
///
/// Returns exactly `samples` values (or fewer for very short logs).
pub fn occupancy_series<R: Recording>(
    rec: &R,
    model: &mut dyn gencache_core::CacheModel,
    samples: usize,
) -> Vec<u64> {
    let n = rec.record_count() as usize;
    if n == 0 || samples == 0 {
        return Vec::new();
    }
    let stride = (n / samples).max(1);
    let mut series = Vec::with_capacity(samples);
    let mut cursor = ReplayCursor::new();
    let mut replayed = 0;
    rec.for_each_record(|record| {
        apply_step(model, cursor.step(record));
        replayed += 1;
        if replayed % stride == 0 && series.len() < samples {
            series.push(model.resident_bytes());
        }
    });
    series
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::TraceRecord;
    use gencache_program::{Addr, Time};

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id))
    }

    fn log_of(records: Vec<LogRecord>) -> AccessLog {
        AccessLog {
            benchmark: "analysis".into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 10_000,
        }
    }

    #[test]
    fn immediate_reaccess_has_own_size_distance() {
        let log = log_of(vec![
            LogRecord::Create {
                record: rec(1, 100),
                time: Time::ZERO,
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(1),
            },
        ]);
        let p = reuse_profile(&log);
        assert_eq!(p.total_accesses(), 2);
        assert_eq!(p.cold_accesses(), 1);
        // Distance = its own 100 bytes: hits in any cache ≥ 100 B.
        assert_eq!(p.miss_rate_at(99), 1.0);
        assert_eq!(p.miss_rate_at(100), 0.5);
    }

    #[test]
    fn interleaved_access_counts_distinct_bytes() {
        // A B C A: the re-access of A must skip over B (200) + C (300)
        // plus A itself (100) → distance 600.
        let log = log_of(vec![
            LogRecord::Create {
                record: rec(1, 100),
                time: Time::ZERO,
            },
            LogRecord::Create {
                record: rec(2, 200),
                time: Time::ZERO,
            },
            LogRecord::Create {
                record: rec(3, 300),
                time: Time::ZERO,
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(1),
            },
        ]);
        let p = reuse_profile(&log);
        assert_eq!(p.median_distance(), Some(600));
        assert_eq!(p.miss_rate_at(599), 1.0);
        assert!((p.miss_rate_at(600) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn repeated_interleaving_counts_traces_once() {
        // A B B B A: B's bytes count once, not three times.
        let log = log_of(vec![
            LogRecord::Create {
                record: rec(1, 100),
                time: Time::ZERO,
            },
            LogRecord::Create {
                record: rec(2, 200),
                time: Time::ZERO,
            },
            LogRecord::Access {
                id: TraceId::new(2),
                time: Time::from_micros(1),
            },
            LogRecord::Access {
                id: TraceId::new(2),
                time: Time::from_micros(2),
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(3),
            },
        ]);
        let p = reuse_profile(&log);
        // A's re-access distance: B (200) + A (100) = 300.
        let max = *p.distances.last().unwrap();
        assert_eq!(max, 300);
    }

    #[test]
    fn invalidation_cuts_the_chain() {
        let log = log_of(vec![
            LogRecord::Create {
                record: rec(1, 100),
                time: Time::ZERO,
            },
            LogRecord::Invalidate {
                id: TraceId::new(1),
                time: Time::from_micros(1),
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(2),
            },
        ]);
        let p = reuse_profile(&log);
        assert_eq!(p.cold_accesses(), 2, "post-unmap access is compulsory");
        assert_eq!(p.miss_rate_at(u64::MAX), 1.0);
    }

    #[test]
    fn curve_is_monotone_nonincreasing() {
        let mut records = Vec::new();
        for id in 0..20u64 {
            records.push(LogRecord::Create {
                record: rec(id, 50 + id as u32),
                time: Time::ZERO,
            });
        }
        for round in 0..5u64 {
            for id in 0..20 {
                records.push(LogRecord::Access {
                    id: TraceId::new(id),
                    time: Time::from_micros(round * 20 + id),
                });
            }
        }
        let p = reuse_profile(&log_of(records));
        let caps: Vec<u64> = (0..30).map(|i| i * 100).collect();
        let curve = p.curve(&caps);
        for w in curve.windows(2) {
            assert!(w[0].1 >= w[1].1, "miss rate must not rise with capacity");
        }
        // At infinite capacity only cold misses remain.
        assert!(
            (p.miss_rate_at(u64::MAX) - p.cold_accesses() as f64 / p.total_accesses() as f64).abs()
                < 1e-12
        );
    }

    #[test]
    fn percentiles_and_empty_profile() {
        let p = reuse_profile(&log_of(Vec::new()));
        assert_eq!(p.median_distance(), None);
        assert_eq!(p.percentile(90), None);
        assert_eq!(p.miss_rate_at(0), 0.0);
    }

    /// Cross-validation: the analytic LRU prediction must track a real
    /// LRU cache simulation on the same log (the simulator adds placement
    /// constraints, so allow a coarse tolerance).
    #[test]
    fn prediction_tracks_simulated_lru() {
        use gencache_cache::{CodeCache, LruCache};
        let mut records = Vec::new();
        for id in 0..30u64 {
            records.push(LogRecord::Create {
                record: rec(id, 100),
                time: Time::ZERO,
            });
        }
        for round in 0..20u64 {
            for id in 0..30 {
                records.push(LogRecord::Access {
                    id: TraceId::new(id),
                    time: Time::from_micros(round * 30 + id),
                });
            }
        }
        let log = log_of(records);
        let p = reuse_profile(&log);

        for capacity in [1500u64, 2500, 3500] {
            let predicted = p.miss_rate_at(capacity);
            // Simulate.
            let mut cache = LruCache::new(capacity);
            let mut misses = 0u64;
            let mut total = 0u64;
            for r in &log.records {
                match *r {
                    LogRecord::Create { record, .. } => {
                        total += 1;
                        misses += 1;
                        let _ = cache.insert(record, Time::ZERO);
                    }
                    LogRecord::Access { id, .. } => {
                        total += 1;
                        if !cache.touch(id, Time::ZERO) {
                            misses += 1;
                            let _ = cache.insert(rec(id.as_u64(), 100), Time::ZERO);
                        }
                    }
                    _ => {}
                }
            }
            let simulated = misses as f64 / total as f64;
            assert!(
                (predicted - simulated).abs() < 0.1,
                "capacity {capacity}: predicted {predicted:.3} vs simulated {simulated:.3}"
            );
        }
    }
}
