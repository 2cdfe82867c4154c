//! Configuration-space sweeps (Section 6): cache proportions versus
//! promotion thresholds.
//!
//! The paper swept generational cache sizes and observed (1) no
//! consistent advantage to unbalanced nursery/persistent sizing, and
//! (2) an "undeniable link" between probation-cache size and promotion
//! threshold — small probation caches need low thresholds or long-lived
//! traces are evicted before qualifying.

use gencache_core::{GenerationalConfig, PromotionPolicy, Proportions};
use serde::{Deserialize, Serialize};

use crate::recording::Recording;
use crate::replay::{compare, Comparison};

/// One sweep sample: a configuration and its outcome versus unified.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Nursery fraction of the total budget.
    pub nursery: f64,
    /// Probation fraction.
    pub probation: f64,
    /// Persistent fraction.
    pub persistent: f64,
    /// The promotion policy used.
    pub promotion: PromotionPolicy,
    /// Miss-rate reduction versus the unified baseline (positive = win).
    pub miss_rate_reduction: f64,
    /// Overhead ratio versus unified (Equation 3; < 1 = win).
    pub overhead_ratio: f64,
}

/// The proportion grid the sweep explores (each sums to 1).
pub fn proportion_grid() -> Vec<Proportions> {
    vec![
        Proportions::new(0.25, 0.50, 0.25),
        Proportions::new(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0),
        Proportions::new(0.40, 0.20, 0.40),
        Proportions::new(0.45, 0.10, 0.45),
        Proportions::new(0.30, 0.10, 0.60),
        Proportions::new(0.60, 0.10, 0.30),
    ]
}

/// The promotion policies the sweep explores.
pub fn policy_grid() -> Vec<PromotionPolicy> {
    vec![
        PromotionPolicy::OnHit { hits: 1 },
        PromotionPolicy::OnEviction { threshold: 1 },
        PromotionPolicy::OnEviction { threshold: 5 },
        PromotionPolicy::OnEviction { threshold: 10 },
        PromotionPolicy::OnEviction { threshold: 25 },
    ]
}

/// Sweeps the full proportion × policy grid over one benchmark recording,
/// fanning the grid points across [`effective_jobs`](crate::par::effective_jobs)
/// worker threads (override with `GENCACHE_JOBS`).
pub fn sweep<R: Recording + Sync>(rec: &R) -> Vec<SweepPoint> {
    sweep_with_jobs(rec, crate::par::effective_jobs(None))
}

/// [`sweep`] with an explicit worker count. Each grid point replays the
/// shared read-only recording against its own cache models; the results are
/// reassembled in grid order, so the output is bit-identical for every
/// `jobs` value (enforced by `tests/par_determinism.rs`).
pub fn sweep_with_jobs<R: Recording + Sync>(rec: &R, jobs: usize) -> Vec<SweepPoint> {
    let capacity = rec.capacity();
    let grid: Vec<(Proportions, PromotionPolicy)> = proportion_grid()
        .into_iter()
        .flat_map(|proportions| policy_grid().into_iter().map(move |p| (proportions, p)))
        .collect();
    crate::par::par_map(&grid, jobs, |&(proportions, policy)| {
        let config = GenerationalConfig::new(capacity, proportions, policy);
        let comparison: Comparison = compare(rec, &[config]);
        SweepPoint {
            nursery: proportions.nursery,
            probation: proportions.probation,
            persistent: proportions.persistent,
            promotion: policy,
            miss_rate_reduction: comparison.miss_rate_reduction(0),
            overhead_ratio: comparison.overhead_ratio(0),
        }
    })
}

/// The best point of a sweep by miss-rate reduction.
///
/// A log with no accesses yields NaN reductions (0/0 miss rates); NaN
/// ranks below every real number here, so such points are never chosen
/// over a finite one and the function never panics.
pub fn best_point(points: &[SweepPoint]) -> Option<&SweepPoint> {
    fn rank(p: &SweepPoint) -> f64 {
        if p.miss_rate_reduction.is_nan() {
            f64::NEG_INFINITY
        } else {
            p.miss_rate_reduction
        }
    }
    points.iter().max_by(|a, b| rank(a).total_cmp(&rank(b)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::AccessLog;
    use gencache_cache::LogRecord;
    use gencache_cache::{TraceId, TraceRecord};
    use gencache_program::{Addr, Time};

    fn tiny_log() -> AccessLog {
        let rec = |id: u64| TraceRecord::new(TraceId::new(id), 100, Addr::new(0x1000 + id));
        let mut records = Vec::new();
        for id in 0..8 {
            records.push(LogRecord::Create {
                record: rec(id),
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
        AccessLog {
            benchmark: "tiny".into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 800,
        }
    }

    #[test]
    fn sweep_covers_full_grid() {
        let points = sweep(&tiny_log());
        assert_eq!(points.len(), proportion_grid().len() * policy_grid().len());
        for p in &points {
            assert!((p.nursery + p.probation + p.persistent - 1.0).abs() < 1e-6);
            assert!(p.overhead_ratio.is_finite());
        }
    }

    #[test]
    fn best_point_is_maximal() {
        let points = sweep(&tiny_log());
        let best = best_point(&points).unwrap();
        for p in &points {
            assert!(best.miss_rate_reduction >= p.miss_rate_reduction);
        }
    }

    #[test]
    fn empty_sweep_has_no_best() {
        assert!(best_point(&[]).is_none());
    }

    #[test]
    fn zero_access_log_does_not_panic() {
        // No accesses at all: both miss rates are 0/0 = NaN. The sweep
        // must still cover the grid and best_point must not panic.
        let log = AccessLog {
            benchmark: "empty".into(),
            records: Vec::new(),
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 800,
        };
        let points = sweep(&log);
        assert_eq!(points.len(), proportion_grid().len() * policy_grid().len());
        assert!(best_point(&points).is_some());
    }

    #[test]
    fn nan_points_never_beat_finite_ones() {
        let mut points = sweep(&tiny_log());
        let finite_best = best_point(&points).unwrap().miss_rate_reduction;
        points.push(SweepPoint {
            nursery: 0.3,
            probation: 0.4,
            persistent: 0.3,
            promotion: PromotionPolicy::OnHit { hits: 1 },
            miss_rate_reduction: f64::NAN,
            overhead_ratio: f64::NAN,
        });
        let best = best_point(&points).unwrap();
        assert_eq!(best.miss_rate_reduction, finite_best);
    }
}
