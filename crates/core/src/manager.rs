//! The generational code cache manager — the paper's core contribution
//! (Section 5, Figures 7 and 8).
//!
//! Three pseudo-circular caches are arranged by trace age:
//!
//! ```text
//!  new traces ──▶ [ nursery ] ──evict──▶ [ probation ] ──evict──▶ deleted
//!                                             │  ▲
//!                     enough executions while │  │
//!                     on probation            ▼  │
//!                                      [ persistent ] ──evict──▶ deleted
//! ```
//!
//! * Every newly generated trace is inserted into the **nursery**.
//! * A nursery eviction means the trace has "come of age": it is promoted
//!   to the **probation** cache (never back to the nursery).
//! * A probation trace that proves itself — by being executed again —
//!   is promoted to the **persistent** cache, either the moment it is hit
//!   ([`PromotionPolicy::OnHit`]) or when evicted with more than a
//!   threshold of executions ([`PromotionPolicy::OnEviction`], the
//!   algorithm of Figure 8). Probation evictees that fail the test are
//!   deleted.
//! * Persistent evictees are deleted.

use gencache_cache::{
    CodeCache, EntryInfo, EvictionCause, PseudoCircularCache, TraceId, TraceRecord,
};
use gencache_obs::{CacheEvent, FrontendOp, NullObserver, Observer, Region};
use gencache_program::Time;

use crate::adaptive::TemperatureTracker;
use crate::config::{GenerationalConfig, PromotionPolicy};
use crate::cost::CostLedger;
use crate::model::{AccessOutcome, CacheModel, Generation, ModelMetrics};

/// The three-generation trace cache hierarchy.
///
/// # Examples
///
/// ```
/// use gencache_cache::{TraceId, TraceRecord};
/// use gencache_core::{
///     CacheModel, GenerationalConfig, GenerationalModel, Proportions,
///     PromotionPolicy,
/// };
/// use gencache_program::{Addr, Time};
///
/// let config = GenerationalConfig::new(
///     4096,
///     Proportions::best_overall(),
///     PromotionPolicy::OnHit { hits: 1 },
/// );
/// let mut model = GenerationalModel::new(config);
/// let rec = TraceRecord::new(TraceId::new(1), 242, Addr::new(0x1000));
/// assert!(!model.on_access(rec, Time::ZERO).is_hit()); // cold miss → nursery
/// assert!(model.on_access(rec, Time::from_micros(1)).is_hit());
/// ```
#[derive(Debug)]
pub struct GenerationalModel<O: Observer = NullObserver> {
    nursery: PseudoCircularCache,
    probation: PseudoCircularCache,
    persistent: PseudoCircularCache,
    config: GenerationalConfig,
    metrics: ModelMetrics,
    ledger: CostLedger,
    observer: O,
    temperature: Option<TemperatureTracker>,
}

impl GenerationalModel {
    /// Creates the hierarchy described by `config`, uninstrumented
    /// (the [`NullObserver`] compiles the event emission away).
    pub fn new(config: GenerationalConfig) -> Self {
        GenerationalModel::observed(config, NullObserver)
    }
}

impl<O: Observer> GenerationalModel<O> {
    /// Creates the hierarchy described by `config` with every cache
    /// event reported to `observer`.
    pub fn observed(config: GenerationalConfig, observer: O) -> Self {
        GenerationalModel {
            nursery: PseudoCircularCache::new(config.nursery_bytes),
            probation: PseudoCircularCache::new(config.probation_bytes),
            persistent: PseudoCircularCache::new(config.persistent_bytes),
            config,
            metrics: ModelMetrics::default(),
            ledger: CostLedger::new(),
            observer,
            temperature: None,
        }
    }

    /// Attaches (or detaches) a TRRIP-style per-trace temperature
    /// tracker. While attached, a probation trace whose predicted
    /// re-reference interval is "hot" is promoted to the persistent
    /// cache even when the configured [`PromotionPolicy`] alone would
    /// not promote it. Detached by default, so static models are
    /// byte-for-byte unaffected.
    pub fn set_temperature(&mut self, tracker: Option<TemperatureTracker>) {
        self.temperature = tracker;
    }

    /// The attached temperature tracker, if any.
    pub fn temperature(&self) -> Option<&TemperatureTracker> {
        self.temperature.as_ref()
    }

    /// The attached temperature tracker, mutably.
    pub fn temperature_mut(&mut self) -> Option<&mut TemperatureTracker> {
        self.temperature.as_mut()
    }

    /// Flushes all three generations and rebuilds the hierarchy under
    /// `config` — the hot-swap primitive of the adaptive policy engine.
    ///
    /// Every resident trace leaves with an [`CacheEvent::Evict`] carrying
    /// [`EvictionCause::Flush`], emitted in ascending trace-id order
    /// (`trace_ids` is unordered, so the sort is what keeps replays
    /// byte-identical at any job count), and is charged to the cost
    /// ledger like any other eviction. Metrics, ledger, observer and
    /// temperature state carry across: a reconfiguration is a management
    /// action inside one run, not a new model. Pinned entries are
    /// flushed too — the swap rebuilds the arenas, so nothing can stay.
    pub fn reconfigure(&mut self, config: GenerationalConfig, now: Time) {
        for region in [Region::Nursery, Region::Probation, Region::Persistent] {
            let cache = match region {
                Region::Nursery => &mut self.nursery,
                Region::Probation => &mut self.probation,
                _ => &mut self.persistent,
            };
            let mut ids = cache.trace_ids();
            ids.sort_unstable();
            let mut flushed = Vec::with_capacity(ids.len());
            for id in ids {
                if let Some(info) = cache.remove(id, EvictionCause::Flush) {
                    flushed.push(info);
                }
            }
            for info in flushed {
                self.ledger.charge_eviction(info.size_bytes());
                if self.observer.enabled() {
                    self.emit_evict(region, &info, EvictionCause::Flush, now);
                }
            }
        }
        self.nursery = PseudoCircularCache::new(config.nursery_bytes);
        self.probation = PseudoCircularCache::new(config.probation_bytes);
        self.persistent = PseudoCircularCache::new(config.persistent_bytes);
        self.config = config;
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        &self.observer
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        &mut self.observer
    }

    /// Consumes the model, returning the observer (e.g. to extract a
    /// metrics report after a replay).
    pub fn into_observer(self) -> O {
        self.observer
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &GenerationalConfig {
        &self.config
    }

    /// Which generation currently holds `id`, if any.
    pub fn generation_of(&self, id: TraceId) -> Option<Generation> {
        if self.nursery.contains(id) {
            Some(Generation::Nursery)
        } else if self.probation.contains(id) {
            Some(Generation::Probation)
        } else if self.persistent.contains(id) {
            Some(Generation::Persistent)
        } else {
            None
        }
    }

    /// The nursery cache, for inspection.
    pub fn nursery(&self) -> &PseudoCircularCache {
        &self.nursery
    }

    /// The probation cache, for inspection.
    pub fn probation(&self) -> &PseudoCircularCache {
        &self.probation
    }

    /// The persistent cache, for inspection.
    pub fn persistent(&self) -> &PseudoCircularCache {
        &self.persistent
    }

    /// Emits an [`CacheEvent::Evict`] for an entry that left the
    /// hierarchy entirely, deriving lifetime and idle durations from
    /// the entry's metadata.
    fn emit_evict(&mut self, region: Region, entry: &EntryInfo, cause: EvictionCause, now: Time) {
        self.observer.on_event(&CacheEvent::Evict {
            region,
            trace: entry.id(),
            bytes: entry.size_bytes(),
            cause,
            age_us: now.saturating_micros_since(entry.insert_time),
            idle_us: now.saturating_micros_since(entry.last_access),
            time: now,
        });
    }

    /// Inserts a freshly generated trace into the nursery and runs the
    /// promotion cascade of Figure 8 on everything it displaces.
    fn insert_new_trace(&mut self, rec: TraceRecord, now: Time) {
        match self.nursery.insert(rec, now) {
            Ok(report) => {
                if self.observer.enabled() {
                    if report.pointer_resets > 0 {
                        self.observer.on_event(&CacheEvent::PointerReset {
                            region: Region::Nursery,
                            resets: report.pointer_resets,
                            time: now,
                        });
                    }
                    self.observer.on_event(&CacheEvent::Insert {
                        region: Region::Nursery,
                        trace: rec.id,
                        bytes: rec.size_bytes,
                        used: self.nursery.used_bytes(),
                        time: now,
                    });
                }
                for victim in report.evicted {
                    self.promote_to_probation(victim.entry, now);
                }
            }
            Err(_) => {
                // Larger than the nursery (or blocked by pins): execute
                // unlinked; it will be regenerated on its next encounter.
                self.metrics.uncachable += 1;
            }
        }
    }

    /// A nursery evictee has come of age: move it to the probation cache.
    ///
    /// With a zero-byte probation cache the hierarchy degenerates to two
    /// generations and every evictee is promoted straight to the
    /// persistent cache — the no-probation baseline of the ablation
    /// study.
    fn promote_to_probation(&mut self, victim: EntryInfo, now: Time) {
        if self.config.probation_bytes == 0 {
            self.promote_to_persistent(victim, Region::Nursery, now);
            return;
        }
        self.metrics.promotions_to_probation += 1;
        self.ledger.charge_promotion(victim.size_bytes());
        let (id, bytes) = (victim.id(), victim.size_bytes());
        if self.observer.enabled() {
            self.observer.on_event(&CacheEvent::Promote {
                from: Region::Nursery,
                to: Region::Probation,
                trace: id,
                bytes,
                time: now,
            });
        }
        match self.probation.insert(victim.record, now) {
            Ok(report) => {
                if self.observer.enabled() {
                    if report.pointer_resets > 0 {
                        self.observer.on_event(&CacheEvent::PointerReset {
                            region: Region::Probation,
                            resets: report.pointer_resets,
                            time: now,
                        });
                    }
                    // The arrival accounting counterpart of the Promote
                    // above: the probation cache counted an insert.
                    self.observer.on_event(&CacheEvent::PromotedIn {
                        region: Region::Probation,
                        trace: id,
                        bytes,
                        used: self.probation.used_bytes(),
                        time: now,
                    });
                }
                for pvictim in report.evicted {
                    self.judge_probation_evictee(pvictim.entry, now);
                }
            }
            Err(_) => {
                // Cannot fit in the probation cache at all: treat as a
                // failed probation (deleted).
                self.metrics.probation_discards += 1;
                self.ledger.charge_eviction(victim.size_bytes());
                if self.observer.enabled() {
                    self.emit_evict(Region::Probation, &victim, EvictionCause::Discarded, now);
                }
            }
        }
    }

    /// Decides the fate of a trace evicted from the probation cache:
    /// promotion to persistent if it was executed enough while on
    /// probation, deletion otherwise (Figure 8).
    fn judge_probation_evictee(&mut self, victim: EntryInfo, now: Time) {
        let policy_promote = match self.config.promotion {
            PromotionPolicy::OnEviction { threshold } => victim.access_count > threshold,
            // Under on-hit promotion, qualifying traces left probation the
            // moment they were executed; anything still around at eviction
            // time failed to attract a hit.
            PromotionPolicy::OnHit { .. } => false,
        };
        // The temperature signal can save an evictee the policy would
        // delete: a short predicted re-reference interval means the miss
        // is imminent.
        let hot = self
            .temperature
            .as_ref()
            .is_some_and(|t| t.is_hot(victim.id()));
        let promote = policy_promote || hot;
        if promote && !policy_promote {
            if let Some(t) = &mut self.temperature {
                t.note_hot_promotion();
            }
        }
        if promote {
            self.promote_to_persistent(victim, Region::Probation, now);
        } else {
            self.metrics.probation_discards += 1;
            self.ledger.charge_eviction(victim.size_bytes());
            if self.observer.enabled() {
                self.emit_evict(Region::Probation, &victim, EvictionCause::Discarded, now);
            }
        }
    }

    /// Moves a trace into the persistent cache, carrying the entry
    /// metadata it accumulated in the cache it came from (access count,
    /// first insert time, pin state) — promotion relocates a trace, it
    /// does not create a new one. Persistent evictees are deleted
    /// outright.
    fn promote_to_persistent(&mut self, victim: EntryInfo, from: Region, now: Time) {
        self.metrics.promotions_to_persistent += 1;
        self.ledger.charge_promotion(victim.size_bytes());
        let (id, bytes) = (victim.id(), victim.size_bytes());
        if self.observer.enabled() {
            self.observer.on_event(&CacheEvent::Promote {
                from,
                to: Region::Persistent,
                trace: id,
                bytes,
                time: now,
            });
        }
        match self.persistent.insert_promoted(victim, now) {
            Ok(report) => {
                if self.observer.enabled() {
                    if report.pointer_resets > 0 {
                        self.observer.on_event(&CacheEvent::PointerReset {
                            region: Region::Persistent,
                            resets: report.pointer_resets,
                            time: now,
                        });
                    }
                    // Arrival accounting: `insert_promoted` counted an
                    // insert in the persistent cache's local stats.
                    self.observer.on_event(&CacheEvent::PromotedIn {
                        region: Region::Persistent,
                        trace: id,
                        bytes,
                        used: self.persistent.used_bytes(),
                        time: now,
                    });
                }
                for evictee in report.evicted {
                    self.ledger.charge_eviction(evictee.size_bytes());
                    if self.observer.enabled() {
                        self.emit_evict(Region::Persistent, &evictee.entry, evictee.cause, now);
                    }
                }
            }
            Err(_) => {
                // Too large for the persistent cache: deleted.
                self.ledger.charge_eviction(victim.size_bytes());
                if self.observer.enabled() {
                    self.emit_evict(Region::Persistent, &victim, EvictionCause::Discarded, now);
                }
            }
        }
    }
}

impl<O: Observer> CacheModel for GenerationalModel<O> {
    fn name(&self) -> String {
        format!("generational {}", self.config)
    }

    fn on_access(&mut self, rec: TraceRecord, now: Time) -> AccessOutcome {
        self.metrics.accesses += 1;
        if let Some(t) = &mut self.temperature {
            t.observe(rec.id);
        }

        // Reuse intervals need the pre-touch access time; only pay for
        // the extra lookup when instrumented.
        let prev_access = if self.observer.enabled() {
            [&self.nursery, &self.persistent, &self.probation]
                .iter()
                .find_map(|c| c.entry(rec.id))
                .map(|e| e.last_access)
        } else {
            None
        };
        let reuse_us = prev_access.map_or(0, |t| now.saturating_micros_since(t));

        if self.nursery.touch(rec.id, now) {
            self.metrics.hits += 1;
            if self.observer.enabled() {
                self.observer.on_event(&CacheEvent::Hit {
                    region: Region::Nursery,
                    trace: rec.id,
                    reuse_us,
                    time: now,
                });
            }
            return AccessOutcome::Hit(Generation::Nursery);
        }
        if self.persistent.touch(rec.id, now) {
            self.metrics.hits += 1;
            if self.observer.enabled() {
                self.observer.on_event(&CacheEvent::Hit {
                    region: Region::Persistent,
                    trace: rec.id,
                    reuse_us,
                    time: now,
                });
            }
            return AccessOutcome::Hit(Generation::Persistent);
        }
        if self.probation.touch(rec.id, now) {
            self.metrics.hits += 1;
            if self.observer.enabled() {
                self.observer.on_event(&CacheEvent::Hit {
                    region: Region::Probation,
                    trace: rec.id,
                    reuse_us,
                    time: now,
                });
            }
            // Counter-free promotion: the N-th probation hit immediately
            // upgrades the trace to the persistent cache (Section 5.3).
            // A temperature-hot trace (short predicted re-reference
            // interval) promotes on any probation hit.
            if let PromotionPolicy::OnHit { hits } = self.config.promotion {
                let count = self
                    .probation
                    .entry(rec.id)
                    .expect("touched entry is resident")
                    .access_count;
                let hot = self.temperature.as_ref().is_some_and(|t| t.is_hot(rec.id));
                if count >= hits || hot {
                    if count < hits {
                        if let Some(t) = &mut self.temperature {
                            t.note_hot_promotion();
                        }
                    }
                    // Promote the *resident entry*, not the incoming
                    // access record: the entry carries the access count
                    // and insert time accumulated on probation.
                    let victim = self
                        .probation
                        .remove(rec.id, EvictionCause::Promoted)
                        .expect("touched entry is resident");
                    self.promote_to_persistent(victim, Region::Probation, now);
                }
            }
            return AccessOutcome::Hit(Generation::Probation);
        }

        // Conflict (or cold) miss: regenerate and insert as a new trace.
        self.metrics.misses += 1;
        self.ledger.charge_miss(rec.size_bytes);
        if self.observer.enabled() {
            self.observer.on_event(&CacheEvent::Miss {
                trace: rec.id,
                bytes: rec.size_bytes,
                time: now,
            });
        }
        self.insert_new_trace(rec, now);
        AccessOutcome::Miss
    }

    fn on_unmap(&mut self, id: TraceId, now: Time) -> bool {
        for region in [Region::Nursery, Region::Probation, Region::Persistent] {
            let cache = match region {
                Region::Nursery => &mut self.nursery,
                Region::Probation => &mut self.probation,
                _ => &mut self.persistent,
            };
            if let Some(info) = cache.remove(id, EvictionCause::Unmapped) {
                self.metrics.unmap_deletions += 1;
                self.ledger.charge_eviction(info.size_bytes());
                if self.observer.enabled() {
                    self.emit_evict(region, &info, EvictionCause::Unmapped, now);
                }
                return true;
            }
        }
        if self.observer.enabled() {
            self.observer.on_event(&CacheEvent::Noop {
                op: FrontendOp::Unmap,
                trace: id,
                time: now,
            });
        }
        false
    }

    fn on_pin(&mut self, id: TraceId, pinned: bool, now: Time) -> bool {
        for region in [Region::Nursery, Region::Probation, Region::Persistent] {
            let cache = match region {
                Region::Nursery => &mut self.nursery,
                Region::Probation => &mut self.probation,
                _ => &mut self.persistent,
            };
            if cache.set_pinned(id, pinned) {
                if self.observer.enabled() {
                    let event = if pinned {
                        CacheEvent::Pin {
                            region,
                            trace: id,
                            time: now,
                        }
                    } else {
                        CacheEvent::Unpin {
                            region,
                            trace: id,
                            time: now,
                        }
                    };
                    self.observer.on_event(&event);
                }
                return true;
            }
        }
        if self.observer.enabled() {
            self.observer.on_event(&CacheEvent::Noop {
                op: if pinned {
                    FrontendOp::Pin
                } else {
                    FrontendOp::Unpin
                },
                trace: id,
                time: now,
            });
        }
        false
    }

    fn metrics(&self) -> &ModelMetrics {
        &self.metrics
    }

    fn ledger(&self) -> &CostLedger {
        &self.ledger
    }

    fn resident_bytes(&self) -> u64 {
        self.nursery.used_bytes() + self.probation.used_bytes() + self.persistent.used_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.config.total_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Proportions;
    use gencache_program::Addr;

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1_0000 + id * 0x100))
    }

    fn model(total: u64, promotion: PromotionPolicy) -> GenerationalModel {
        GenerationalModel::new(GenerationalConfig::new(
            total,
            Proportions::even_thirds(),
            promotion,
        ))
    }

    #[test]
    fn new_traces_enter_the_nursery() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        m.on_access(rec(1, 200), Time::ZERO);
        assert_eq!(m.generation_of(TraceId::new(1)), Some(Generation::Nursery));
        assert_eq!(m.metrics().misses, 1);
    }

    #[test]
    fn nursery_evictees_move_to_probation() {
        // Nursery = 1000 bytes; five 250-byte traces force evictions.
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        // Trace 0 was evicted from the nursery (4×250 = 1000 fills it).
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Probation)
        );
        assert_eq!(m.metrics().promotions_to_probation, 1);
        // It is still a hit — execution can continue from probation.
        assert!(m.on_access(rec(0, 250), Time::from_micros(1)).is_hit());
    }

    #[test]
    fn probation_hit_promotes_immediately_under_on_hit() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Probation)
        );
        m.on_access(rec(0, 250), Time::from_micros(1));
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Persistent)
        );
        assert_eq!(m.metrics().promotions_to_persistent, 1);
        assert!(m.on_access(rec(0, 250), Time::from_micros(2)).is_hit());
    }

    #[test]
    fn on_hit_two_requires_two_probation_hits() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 2 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        m.on_access(rec(0, 250), Time::from_micros(1));
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Probation)
        );
        m.on_access(rec(0, 250), Time::from_micros(2));
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Persistent)
        );
    }

    #[test]
    fn promotion_carries_probation_metadata_into_persistent() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 2 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::from_micros(id));
        }
        // Trace 0 entered probation at t=4µs (displaced by the 5th
        // insert). Two probation hits promote it under OnHit{2}.
        m.on_access(rec(0, 250), Time::from_micros(10));
        m.on_access(rec(0, 250), Time::from_micros(11));
        let e = m.persistent().entry(TraceId::new(0)).unwrap();
        assert_eq!(
            e.access_count, 2,
            "probation access count must survive promotion"
        );
        assert_eq!(
            e.insert_time,
            Time::from_micros(4),
            "insert time must not reset at promotion"
        );
        assert_eq!(e.last_access, Time::from_micros(11));
    }

    #[test]
    fn probation_evictee_without_hits_is_deleted() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        // Stream enough distinct traces to push some all the way out of
        // probation without ever re-executing them.
        for id in 0..12 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        assert!(m.metrics().probation_discards > 0);
        assert_eq!(m.metrics().promotions_to_persistent, 0);
        assert_eq!(m.persistent().len(), 0);
    }

    #[test]
    fn on_eviction_policy_promotes_hot_probation_evictees() {
        let mut m = model(3000, PromotionPolicy::OnEviction { threshold: 2 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        // Trace 0 is on probation. Execute it 3 times (> threshold 2).
        for i in 0..3 {
            assert!(m.on_access(rec(0, 250), Time::from_micros(1 + i)).is_hit());
        }
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Probation)
        );
        // Push more traces through so trace 0 is evicted from probation.
        for id in 5..12 {
            m.on_access(rec(id, 250), Time::from_micros(100 + id));
        }
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Persistent),
            "hot probation evictee must be promoted"
        );
    }

    #[test]
    fn on_eviction_policy_discards_cold_evictees() {
        let mut m = model(3000, PromotionPolicy::OnEviction { threshold: 2 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        // One probation hit only (≤ threshold).
        m.on_access(rec(0, 250), Time::from_micros(1));
        for id in 5..12 {
            m.on_access(rec(id, 250), Time::from_micros(100 + id));
        }
        assert_eq!(m.generation_of(TraceId::new(0)), None);
        assert!(m.metrics().probation_discards > 0);
    }

    #[test]
    fn unmap_deletes_from_any_generation() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        // 0 → persistent, 1 → probation, 4 → nursery.
        m.on_access(rec(0, 250), Time::from_micros(1));
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Persistent)
        );
        let t = Time::from_micros(2);
        assert!(m.on_unmap(TraceId::new(0), t));
        assert!(m.on_unmap(TraceId::new(1), t));
        assert!(m.on_unmap(TraceId::new(4), t));
        assert!(!m.on_unmap(TraceId::new(99), t));
        assert_eq!(m.metrics().unmap_deletions, 3);
        assert_eq!(m.generation_of(TraceId::new(0)), None);
    }

    #[test]
    fn promotion_costs_are_charged() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        m.on_access(rec(0, 250), Time::from_micros(1)); // probation → persistent
        let ledger = m.ledger();
        assert_eq!(ledger.promotion_events, {
            // 5 cold misses each charge a bb→trace copy as part of the
            // miss; those are *not* promotion_events. Events here: one
            // nursery→probation plus one probation→persistent.
            2
        });
        assert!(ledger.promotions > 0.0);
    }

    #[test]
    fn capacity_and_residency_accounting() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        assert_eq!(m.capacity_bytes(), 3000);
        m.on_access(rec(1, 250), Time::ZERO);
        assert_eq!(m.resident_bytes(), 250);
    }

    #[test]
    fn pin_works_across_generations() {
        let mut m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        m.on_access(rec(1, 250), Time::ZERO);
        assert!(m.on_pin(TraceId::new(1), true, Time::ZERO));
        assert!(!m.on_pin(TraceId::new(9), true, Time::ZERO));
        assert!(m.nursery().entry(TraceId::new(1)).unwrap().pinned);
    }

    #[test]
    fn zero_probation_degenerates_to_two_generations() {
        let m2 = GenerationalModel::new(GenerationalConfig::new(
            2000,
            Proportions::new(0.5, 0.0, 0.5),
            PromotionPolicy::OnHit { hits: 1 },
        ));
        let mut m = m2;
        for id in 0..5 {
            m.on_access(rec(id, 250), Time::ZERO);
        }
        // Nursery (1000 B) overflows at the 5th trace; the evictee skips
        // probation and lands directly in the persistent cache.
        assert_eq!(
            m.generation_of(TraceId::new(0)),
            Some(Generation::Persistent)
        );
        assert_eq!(m.metrics().promotions_to_probation, 0);
        assert_eq!(m.metrics().promotions_to_persistent, 1);
    }

    #[test]
    fn name_describes_configuration() {
        let m = model(3000, PromotionPolicy::OnHit { hits: 1 });
        assert!(m.name().contains("generational"));
        assert!(m.name().contains("33-33-33"));
    }
}
