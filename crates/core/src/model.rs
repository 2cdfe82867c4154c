//! The [`CacheModel`] trait: the interface the trace-driven evaluation
//! harness uses to compare unified and generational cache organizations.

use std::fmt;

use gencache_cache::{ReplayStep, TraceId, TraceRecord};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::cost::CostLedger;

/// Which cache in the hierarchy satisfied an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Generation {
    /// The single cache of a unified organization.
    Unified,
    /// The nursery cache (new traces).
    Nursery,
    /// The probation cache (nursery evictees awaiting judgment).
    Probation,
    /// The persistent cache (long-lived traces).
    Persistent,
}

impl fmt::Display for Generation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Generation::Unified => "unified",
            Generation::Nursery => "nursery",
            Generation::Probation => "probation",
            Generation::Persistent => "persistent",
        };
        f.write_str(s)
    }
}

/// The result of presenting one trace execution to a cache model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessOutcome {
    /// The trace was resident; execution stayed in the code cache.
    Hit(Generation),
    /// The trace was absent and had to be regenerated — a conflict miss
    /// costing two context switches, a trace regeneration, and a copy.
    Miss,
}

impl AccessOutcome {
    /// Returns `true` for a hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, AccessOutcome::Hit(_))
    }
}

/// Hit/miss and promotion counters for one model run.
///
/// # Examples
///
/// ```
/// use gencache_cache::{TraceId, TraceRecord};
/// use gencache_core::{CacheModel, UnifiedModel};
/// use gencache_program::{Addr, Time};
///
/// let mut model = UnifiedModel::new(1024);
/// let rec = TraceRecord::new(TraceId::new(1), 200, Addr::new(1));
/// model.on_access(rec, Time::ZERO);                 // cold miss
/// model.on_access(rec, Time::from_micros(1));       // hit
/// assert_eq!(model.metrics().miss_rate(), 0.5);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelMetrics {
    /// Trace executions presented to the model.
    pub accesses: u64,
    /// Accesses that found their trace resident.
    pub hits: u64,
    /// Accesses that required regeneration.
    pub misses: u64,
    /// Traces deleted because their source memory was unmapped.
    pub unmap_deletions: u64,
    /// Nursery→probation promotions.
    pub promotions_to_probation: u64,
    /// Probation→persistent promotions.
    pub promotions_to_persistent: u64,
    /// Probation evictees deleted for failing the promotion test.
    pub probation_discards: u64,
    /// Traces too large to cache at all (executed unlinked every time).
    pub uncachable: u64,
}

impl ModelMetrics {
    /// Miss rate: `misses / accesses`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// A bounded trace-cache organization under evaluation.
///
/// The replay harness feeds each model the identical access log recorded
/// from an unbounded run (the paper's methodology, Section 6) and compares
/// metrics and cost ledgers afterward.
pub trait CacheModel: fmt::Debug {
    /// A short human-readable description (e.g. `"unified"` or
    /// `"45-10-45 promote-on-hit(1)"`).
    fn name(&self) -> String;

    /// Presents one execution of `rec`'s trace. On a miss the model
    /// charges regeneration costs and re-inserts the trace.
    fn on_access(&mut self, rec: TraceRecord, now: Time) -> AccessOutcome;

    /// Deletes a trace because its source memory was unmapped at time
    /// `now`. Returns `true` if the trace was resident somewhere.
    ///
    /// Instrumented models emit an event on *every* call — an
    /// [`Evict`](gencache_obs::CacheEvent::Evict) when the trace was
    /// resident, a [`Noop`](gencache_obs::CacheEvent::Noop) otherwise —
    /// so the exported stream records the complete frontend op sequence.
    fn on_unmap(&mut self, id: TraceId, now: Time) -> bool;

    /// Pins or unpins a resident trace (undeletable traces, Section 4.2)
    /// at time `now`. Returns `true` if the trace was resident somewhere.
    ///
    /// Like [`CacheModel::on_unmap`], instrumented models emit a
    /// [`Noop`](gencache_obs::CacheEvent::Noop) when the trace is not
    /// resident, keeping the frontend op stream complete.
    fn on_pin(&mut self, id: TraceId, pinned: bool, now: Time) -> bool;

    /// Hit/miss counters.
    fn metrics(&self) -> &ModelMetrics;

    /// Management-instruction costs accumulated so far.
    fn ledger(&self) -> &CostLedger;

    /// Bytes currently resident across all constituent caches.
    fn resident_bytes(&self) -> u64;

    /// Total capacity across all constituent caches.
    fn capacity_bytes(&self) -> u64;
}

/// Applies one frontend request, resolved by a
/// [`ReplayCursor`](gencache_cache::ReplayCursor), to `model`. A step
/// may drive any number of models; they all observe the identical
/// request.
pub fn apply_step(model: &mut dyn CacheModel, step: ReplayStep) {
    match step {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_computation() {
        let m = ModelMetrics {
            accesses: 100,
            hits: 80,
            misses: 20,
            ..ModelMetrics::default()
        };
        assert!((m.miss_rate() - 0.2).abs() < 1e-12);
        assert_eq!(ModelMetrics::default().miss_rate(), 0.0);
    }

    #[test]
    fn outcome_helpers() {
        assert!(AccessOutcome::Hit(Generation::Nursery).is_hit());
        assert!(!AccessOutcome::Miss.is_hit());
        assert_eq!(Generation::Probation.to_string(), "probation");
    }
}
