//! Trace lifetime measurement (Section 5.1, Equation 2, Figure 6).
//!
//! A trace's lifetime is the span between its first and last execution,
//! normalized by total application execution time:
//!
//! ```text
//! lifetime_i = (lastExecution_i − firstExecution_i) / totalExecutionTime
//! ```
//!
//! The paper's motivating observation is that lifetimes are *U-shaped*:
//! most traces are either short-lived (< 20% of execution) or long-lived
//! (> 80%), with few in between — which is what makes a nursery/persistent
//! split effective.

use gencache_cache::{TraceId, TraceMap};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

/// Records first/last execution times of every trace during a run.
///
/// # Examples
///
/// ```
/// use gencache_cache::TraceId;
/// use gencache_core::LifetimeTracker;
/// use gencache_program::Time;
///
/// let mut tracker = LifetimeTracker::new();
/// tracker.record(TraceId::new(1), Time::from_secs_f64(0.0));
/// tracker.record(TraceId::new(1), Time::from_secs_f64(9.0));
/// let hist = tracker.histogram(Time::from_secs_f64(10.0));
/// assert_eq!(hist.buckets()[4], 1); // 90% lifetime → the 80–100% bucket
/// ```
#[derive(Debug, Clone, Default)]
pub struct LifetimeTracker {
    spans: TraceMap<TraceId, (Time, Time)>,
}

impl LifetimeTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        LifetimeTracker::default()
    }

    /// Records one execution of `id` at `now`.
    pub fn record(&mut self, id: TraceId, now: Time) {
        let (first, last) = self.spans.get_or_insert_with(id, || (now, now));
        if now < *first {
            *first = now;
        }
        if now > *last {
            *last = now;
        }
    }

    /// Number of distinct traces observed.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Returns `true` if no executions were recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The normalized lifetime of one trace (Equation 2), or `None` if the
    /// trace was never recorded. A trace executed once has lifetime 0.
    pub fn lifetime_of(&self, id: TraceId, total: Time) -> Option<f64> {
        let (first, last) = self.spans.get(id)?;
        if total.as_micros() == 0 {
            return Some(0.0);
        }
        Some(last.saturating_micros_since(*first) as f64 / total.as_micros() as f64)
    }

    /// Builds the Figure 6 histogram: the unweighted (static) fraction of
    /// traces in each of five 20%-wide lifetime buckets.
    pub fn histogram(&self, total: Time) -> LifetimeHistogram {
        let mut buckets = [0u64; 5];
        for id in self.spans.keys() {
            let lifetime = self
                .lifetime_of(id, total)
                .expect("key exists")
                .clamp(0.0, 1.0);
            // 1.0 falls in the last bucket.
            let idx = ((lifetime * 5.0) as usize).min(4);
            buckets[idx] += 1;
        }
        LifetimeHistogram { buckets }
    }
}

/// A five-bucket trace-lifetime histogram: `<20%`, `20–40%`, `40–60%`,
/// `60–80%`, `>80%` of total execution time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LifetimeHistogram {
    buckets: [u64; 5],
}

impl LifetimeHistogram {
    /// Raw trace counts per bucket.
    pub fn buckets(&self) -> &[u64; 5] {
        &self.buckets
    }

    /// Total traces across buckets.
    pub fn total(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Per-bucket fractions (each in `[0, 1]`); all zeros when empty.
    pub fn fractions(&self) -> [f64; 5] {
        let total = self.total();
        if total == 0 {
            return [0.0; 5];
        }
        let mut out = [0.0; 5];
        for (o, b) in out.iter_mut().zip(self.buckets) {
            *o = b as f64 / total as f64;
        }
        out
    }

    /// Fraction of short-lived traces (< 20% lifetime).
    pub fn short_lived_fraction(&self) -> f64 {
        self.fractions()[0]
    }

    /// Fraction of long-lived traces (> 80% lifetime).
    pub fn long_lived_fraction(&self) -> f64 {
        self.fractions()[4]
    }

    /// The paper's U-shape criterion: the two extreme buckets together
    /// dominate the three middle buckets.
    pub fn is_u_shaped(&self) -> bool {
        let f = self.fractions();
        f[0] + f[4] > f[1] + f[2] + f[3]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: f64) -> Time {
        Time::from_secs_f64(secs)
    }

    #[test]
    fn single_execution_has_zero_lifetime() {
        let mut tr = LifetimeTracker::new();
        tr.record(TraceId::new(1), t(5.0));
        assert_eq!(tr.lifetime_of(TraceId::new(1), t(10.0)), Some(0.0));
        assert_eq!(tr.lifetime_of(TraceId::new(2), t(10.0)), None);
    }

    #[test]
    fn lifetime_is_span_over_total() {
        let mut tr = LifetimeTracker::new();
        tr.record(TraceId::new(1), t(2.0));
        tr.record(TraceId::new(1), t(4.5));
        tr.record(TraceId::new(1), t(7.0));
        assert!((tr.lifetime_of(TraceId::new(1), t(10.0)).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn out_of_order_records_handled() {
        let mut tr = LifetimeTracker::new();
        tr.record(TraceId::new(1), t(7.0));
        tr.record(TraceId::new(1), t(2.0));
        assert!((tr.lifetime_of(TraceId::new(1), t(10.0)).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn histogram_buckets() {
        let mut tr = LifetimeTracker::new();
        // Lifetime 0.1 → bucket 0.
        tr.record(TraceId::new(1), t(0.0));
        tr.record(TraceId::new(1), t(1.0));
        // Lifetime 0.5 → bucket 2.
        tr.record(TraceId::new(2), t(2.0));
        tr.record(TraceId::new(2), t(7.0));
        // Lifetime 1.0 → clamped into bucket 4.
        tr.record(TraceId::new(3), t(0.0));
        tr.record(TraceId::new(3), t(10.0));
        let h = tr.histogram(t(10.0));
        assert_eq!(*h.buckets(), [1, 0, 1, 0, 1]);
        assert_eq!(h.total(), 3);
    }

    #[test]
    fn middle_heavy_distribution_is_not_u_shaped() {
        let mut tr = LifetimeTracker::new();
        // Three middle-lifetime traces (~50%), one short-lived.
        for i in 0..3 {
            tr.record(TraceId::new(i), t(2.0));
            tr.record(TraceId::new(i), t(7.0));
        }
        tr.record(TraceId::new(3), t(1.0));
        tr.record(TraceId::new(3), t(1.5));
        assert!(!tr.histogram(t(10.0)).is_u_shaped());
    }

    #[test]
    fn u_shape_detection() {
        let mut tr = LifetimeTracker::new();
        // Three short-lived, two long-lived, one middle.
        for i in 0..3 {
            tr.record(TraceId::new(i), t(1.0));
            tr.record(TraceId::new(i), t(1.5));
        }
        for i in 3..5 {
            tr.record(TraceId::new(i), t(0.5));
            tr.record(TraceId::new(i), t(9.5));
        }
        tr.record(TraceId::new(5), t(2.0));
        tr.record(TraceId::new(5), t(7.0));
        let h = tr.histogram(t(10.0));
        assert!(h.is_u_shaped());
        assert!((h.short_lived_fraction() - 0.5).abs() < 1e-9);
        assert!((h.long_lived_fraction() - 2.0 / 6.0).abs() < 1e-9);
    }

    #[test]
    fn zero_total_time_is_safe() {
        let mut tr = LifetimeTracker::new();
        tr.record(TraceId::new(1), t(0.0));
        assert_eq!(tr.lifetime_of(TraceId::new(1), Time::ZERO), Some(0.0));
        let h = tr.histogram(Time::ZERO);
        assert_eq!(h.total(), 1);
    }

    #[test]
    fn empty_histogram_fractions() {
        let h = LifetimeTracker::new().histogram(t(10.0));
        assert_eq!(h.fractions(), [0.0; 5]);
        assert_eq!(h.total(), 0);
    }
}
