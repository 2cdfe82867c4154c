//! Aggregation: mergeable counters, histograms and occupancy timelines
//! built from the event stream.

use std::collections::HashMap;

use gencache_cache::TraceMap;
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, Region};
use crate::hist::Log2Histogram;
use crate::observer::Observer;

/// How many evicted-then-remissed traces a report keeps.
pub const TOP_CHURN: usize = 20;

/// Aggregated per-region counters and distributions.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RegionMetrics {
    /// New traces inserted into this region.
    pub inserts: u64,
    /// Bytes of new traces inserted.
    pub insert_bytes: u64,
    /// Accesses satisfied by this region.
    pub hits: u64,
    /// Entries evicted by the replacement policy.
    pub capacity_evictions: u64,
    /// Entries deleted because their source memory was unmapped.
    pub unmap_evictions: u64,
    /// Entries removed by whole-cache flushes.
    pub flush_evictions: u64,
    /// Entries discarded by management decisions.
    pub discards: u64,
    /// Bytes removed from this region for any cause.
    pub evicted_bytes: u64,
    /// Traces promoted *into* this region.
    pub promotions_in: u64,
    /// Traces promoted *out of* this region.
    pub promotions_out: u64,
    /// Replacement-pointer resets forced by protected entries.
    pub pointer_resets: u64,
    /// Pin operations.
    pub pins: u64,
    /// Unpin operations.
    pub unpins: u64,
    /// Resident bytes at the end of the replay.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
    /// Trace lifetime at removal (µs from first insertion).
    pub lifetime_us: Log2Histogram,
    /// Reuse interval of hits (µs since the previous access).
    pub reuse_us: Log2Histogram,
    /// Size of inserted traces (bytes).
    pub trace_bytes: Log2Histogram,
    /// Idle time at removal (µs since the last access).
    pub evict_idle_us: Log2Histogram,
}

impl RegionMetrics {
    fn merge(&mut self, other: &RegionMetrics) {
        self.inserts += other.inserts;
        self.insert_bytes += other.insert_bytes;
        self.hits += other.hits;
        self.capacity_evictions += other.capacity_evictions;
        self.unmap_evictions += other.unmap_evictions;
        self.flush_evictions += other.flush_evictions;
        self.discards += other.discards;
        self.evicted_bytes += other.evicted_bytes;
        self.promotions_in += other.promotions_in;
        self.promotions_out += other.promotions_out;
        self.pointer_resets += other.pointer_resets;
        self.pins += other.pins;
        self.unpins += other.unpins;
        self.resident_bytes += other.resident_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(other.peak_resident_bytes);
        self.lifetime_us.merge(&other.lifetime_us);
        self.reuse_us.merge(&other.reuse_us);
        self.trace_bytes.merge(&other.trace_bytes);
        self.evict_idle_us.merge(&other.evict_idle_us);
    }
}

/// One point of the occupancy/miss-rate timeline, taken every
/// `sample_every` accesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimelineSample {
    /// Accesses processed when the sample was taken.
    pub accesses: u64,
    /// Simulated time of the access that triggered the sample.
    pub time: Time,
    /// Resident bytes per region, indexed by [`Region::index`].
    pub resident: [u64; 4],
    /// Cumulative hits at the sample point.
    pub hits: u64,
    /// Cumulative misses at the sample point.
    pub misses: u64,
}

/// A trace that was evicted and then missed again — wasted regeneration
/// work, the churn signature of a thrashing cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEntry {
    /// The trace's raw id.
    pub trace: u64,
    /// Trace body size in bytes.
    pub bytes: u32,
    /// Times the trace was evicted from the hierarchy.
    pub evictions: u64,
    /// Misses on the trace *after* it had been evicted at least once.
    pub remisses: u64,
}

/// The serializable end product of a [`MetricsObserver`] run.
///
/// Reports merge associatively; shard reports folded in input-index
/// order produce byte-identical JSON for any worker count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Total accesses observed.
    pub accesses: u64,
    /// Total hits.
    pub hits: u64,
    /// Total misses.
    pub misses: u64,
    /// Per-region aggregates, indexed by [`Region::index`].
    pub regions: Vec<RegionMetrics>,
    /// Occupancy/miss-rate samples in emission order; merged reports
    /// concatenate shard timelines in merge order.
    pub timeline: Vec<TimelineSample>,
    /// The worst evicted-then-remissed traces, sorted by remisses
    /// (then evictions, then id), truncated to [`TOP_CHURN`].
    pub top_churn: Vec<ChurnEntry>,
}

impl MetricsReport {
    /// An empty report with all four region slots present.
    pub fn new() -> Self {
        MetricsReport {
            regions: vec![RegionMetrics::default(); 4],
            ..MetricsReport::default()
        }
    }

    /// The overall miss rate, or 0 for an empty report.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// The aggregate for one region.
    pub fn region(&self, region: Region) -> &RegionMetrics {
        &self.regions[region.index()]
    }

    /// Folds `other` into `self`. Counters and histograms add exactly;
    /// timelines concatenate; churn tables combine by trace id and
    /// re-truncate. Merging shard reports in input-index order is
    /// deterministic for any job count.
    pub fn merge(&mut self, other: &MetricsReport) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        if self.regions.len() < other.regions.len() {
            self.regions
                .resize(other.regions.len(), RegionMetrics::default());
        }
        for (mine, theirs) in self.regions.iter_mut().zip(&other.regions) {
            mine.merge(theirs);
        }
        self.timeline.extend_from_slice(&other.timeline);
        let mut by_trace: HashMap<u64, ChurnEntry> = HashMap::new();
        for e in self.top_churn.iter().chain(&other.top_churn) {
            by_trace
                .entry(e.trace)
                .and_modify(|m| {
                    m.evictions += e.evictions;
                    m.remisses += e.remisses;
                })
                .or_insert(*e);
        }
        self.top_churn = sort_churn(by_trace.into_values().collect());
    }
}

/// Sorts churn entries by (remisses desc, evictions desc, trace asc)
/// and keeps the top [`TOP_CHURN`].
pub(crate) fn sort_churn(mut entries: Vec<ChurnEntry>) -> Vec<ChurnEntry> {
    entries.sort_by(|a, b| {
        b.remisses
            .cmp(&a.remisses)
            .then(b.evictions.cmp(&a.evictions))
            .then(a.trace.cmp(&b.trace))
    });
    entries.truncate(TOP_CHURN);
    entries
}

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ChurnState {
    pub(crate) bytes: u32,
    pub(crate) evictions: u64,
    pub(crate) remisses: u64,
}

/// An [`Observer`] that aggregates the event stream into a
/// [`MetricsReport`]: counters, log2 histograms, an occupancy timeline
/// and an eviction-churn table.
#[derive(Debug, Clone)]
pub struct MetricsObserver {
    /// Take a timeline sample every this many accesses (0 = never).
    sample_every: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    regions: Vec<RegionMetrics>,
    timeline: Vec<TimelineSample>,
    churn: TraceMap<u64, ChurnState>,
}

impl Default for MetricsObserver {
    fn default() -> Self {
        MetricsObserver::new()
    }
}

impl MetricsObserver {
    /// An aggregator without timeline sampling.
    pub fn new() -> Self {
        MetricsObserver::with_timeline(0)
    }

    /// An aggregator sampling the occupancy timeline every
    /// `sample_every` accesses (0 disables sampling). Sampling is
    /// keyed on event counts, not wall clock, so it is deterministic.
    pub fn with_timeline(sample_every: u64) -> Self {
        MetricsObserver {
            sample_every,
            accesses: 0,
            hits: 0,
            misses: 0,
            regions: vec![RegionMetrics::default(); 4],
            timeline: Vec::new(),
            churn: TraceMap::new(),
        }
    }

    /// Builds the serializable report from everything observed so far.
    pub fn report(&self) -> MetricsReport {
        let churn = self
            .churn
            .iter()
            .filter(|(_, s)| s.remisses > 0)
            .map(|(trace, s)| ChurnEntry {
                trace,
                bytes: s.bytes,
                evictions: s.evictions,
                remisses: s.remisses,
            })
            .collect();
        MetricsReport {
            accesses: self.accesses,
            hits: self.hits,
            misses: self.misses,
            regions: self.regions.clone(),
            timeline: self.timeline.clone(),
            top_churn: sort_churn(churn),
        }
    }

    fn on_access(&mut self, time: Time) {
        self.accesses += 1;
        if self.sample_every > 0 && self.accesses.is_multiple_of(self.sample_every) {
            let mut resident = [0u64; 4];
            for (slot, r) in resident.iter_mut().zip(&self.regions) {
                *slot = r.resident_bytes;
            }
            self.timeline.push(TimelineSample {
                accesses: self.accesses,
                time,
                resident,
                hits: self.hits,
                misses: self.misses,
            });
        }
    }

    fn region_mut(&mut self, region: Region) -> &mut RegionMetrics {
        &mut self.regions[region.index()]
    }
}

impl Observer for MetricsObserver {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Insert {
                region,
                trace,
                bytes,
                time,
                ..
            } => {
                let r = self.region_mut(region);
                r.inserts += 1;
                r.insert_bytes += u64::from(bytes);
                r.trace_bytes.record(u64::from(bytes));
                r.resident_bytes += u64::from(bytes);
                r.peak_resident_bytes = r.peak_resident_bytes.max(r.resident_bytes);
                self.churn
                    .get_or_insert_with(trace.as_u64(), || ChurnState {
                        bytes,
                        ..ChurnState::default()
                    });
                let _ = time;
            }
            CacheEvent::Hit {
                region,
                reuse_us,
                time,
                ..
            } => {
                self.hits += 1;
                let r = self.region_mut(region);
                r.hits += 1;
                r.reuse_us.record(reuse_us);
                self.on_access(time);
            }
            CacheEvent::Miss { trace, time, .. } => {
                self.misses += 1;
                if let Some(state) = self.churn.get_mut(trace.as_u64()) {
                    if state.evictions > 0 {
                        state.remisses += 1;
                    }
                }
                self.on_access(time);
            }
            CacheEvent::Evict {
                region,
                trace,
                bytes,
                cause,
                age_us,
                idle_us,
                ..
            } => {
                let r = self.region_mut(region);
                match cause {
                    gencache_cache::EvictionCause::Capacity => r.capacity_evictions += 1,
                    gencache_cache::EvictionCause::Unmapped => r.unmap_evictions += 1,
                    gencache_cache::EvictionCause::Flush => r.flush_evictions += 1,
                    gencache_cache::EvictionCause::Discarded
                    | gencache_cache::EvictionCause::Promoted => r.discards += 1,
                }
                r.evicted_bytes += u64::from(bytes);
                r.resident_bytes = r.resident_bytes.saturating_sub(u64::from(bytes));
                r.lifetime_us.record(age_us);
                r.evict_idle_us.record(idle_us);
                let state = self
                    .churn
                    .get_or_insert_with(trace.as_u64(), ChurnState::default);
                state.bytes = bytes;
                state.evictions += 1;
            }
            CacheEvent::Promote {
                from, to, bytes, ..
            } => {
                let bytes = u64::from(bytes);
                let source = self.region_mut(from);
                source.promotions_out += 1;
                source.resident_bytes = source.resident_bytes.saturating_sub(bytes);
                let target = self.region_mut(to);
                target.promotions_in += 1;
                target.resident_bytes += bytes;
                target.peak_resident_bytes = target.peak_resident_bytes.max(target.resident_bytes);
            }
            // Pure accounting duplicate of `Promote`, which already moved
            // the resident bytes and counted the promotion.
            CacheEvent::PromotedIn { .. } => {}
            CacheEvent::Pin { region, .. } => self.region_mut(region).pins += 1,
            CacheEvent::Unpin { region, .. } => self.region_mut(region).unpins += 1,
            // Frontend requests that changed nothing in this model; only
            // the offline trace reconstruction consumes them.
            CacheEvent::Noop { .. } => {}
            CacheEvent::PointerReset { region, resets, .. } => {
                self.region_mut(region).pointer_resets += u64::from(resets);
            }
            // Adaptive swaps are narrated by the switch report; the
            // flush they force arrives as ordinary `Evict` events.
            CacheEvent::PolicySwap { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::{EvictionCause, TraceId};

    fn insert(trace: u64, bytes: u32, at: u64) -> CacheEvent {
        CacheEvent::Insert {
            region: Region::Unified,
            trace: TraceId::new(trace),
            bytes,
            used: bytes.into(),
            time: Time::from_micros(at),
        }
    }

    fn evict(trace: u64, bytes: u32, at: u64) -> CacheEvent {
        CacheEvent::Evict {
            region: Region::Unified,
            trace: TraceId::new(trace),
            bytes,
            cause: EvictionCause::Capacity,
            age_us: at,
            idle_us: 1,
            time: Time::from_micros(at),
        }
    }

    fn miss(trace: u64, at: u64) -> CacheEvent {
        CacheEvent::Miss {
            trace: TraceId::new(trace),
            bytes: 100,
            time: Time::from_micros(at),
        }
    }

    #[test]
    fn occupancy_tracks_insert_evict_promote() {
        let mut m = MetricsObserver::new();
        m.on_event(&insert(1, 100, 0));
        m.on_event(&insert(2, 50, 1));
        assert_eq!(m.report().region(Region::Unified).resident_bytes, 150);
        assert_eq!(m.report().region(Region::Unified).peak_resident_bytes, 150);
        m.on_event(&evict(1, 100, 10));
        assert_eq!(m.report().region(Region::Unified).resident_bytes, 50);
        m.on_event(&CacheEvent::Promote {
            from: Region::Unified,
            to: Region::Persistent,
            trace: TraceId::new(2),
            bytes: 50,
            time: Time::from_micros(11),
        });
        let report = m.report();
        assert_eq!(report.region(Region::Unified).resident_bytes, 0);
        assert_eq!(report.region(Region::Persistent).resident_bytes, 50);
        assert_eq!(report.region(Region::Unified).promotions_out, 1);
        assert_eq!(report.region(Region::Persistent).promotions_in, 1);
    }

    #[test]
    fn churn_counts_remisses_after_eviction() {
        let mut m = MetricsObserver::new();
        m.on_event(&miss(1, 0)); // cold miss: no churn
        m.on_event(&insert(1, 100, 0));
        m.on_event(&evict(1, 100, 5));
        m.on_event(&miss(1, 10)); // remiss
        m.on_event(&miss(1, 20)); // remiss again
        let report = m.report();
        assert_eq!(report.top_churn.len(), 1);
        assert_eq!(report.top_churn[0].trace, 1);
        assert_eq!(report.top_churn[0].evictions, 1);
        assert_eq!(report.top_churn[0].remisses, 2);
        assert_eq!(report.misses, 3);
    }

    #[test]
    fn timeline_samples_every_n_accesses() {
        let mut m = MetricsObserver::with_timeline(2);
        for i in 0..6 {
            m.on_event(&miss(i, i));
        }
        let report = m.report();
        assert_eq!(report.timeline.len(), 3);
        assert_eq!(report.timeline[0].accesses, 2);
        assert_eq!(report.timeline[2].misses, 6);
    }

    #[test]
    fn merged_reports_equal_serial() {
        let events_a: Vec<CacheEvent> =
            vec![miss(1, 0), insert(1, 100, 0), evict(1, 100, 3), miss(1, 5)];
        let events_b: Vec<CacheEvent> = vec![miss(2, 0), insert(2, 40, 0)];
        // Serial: per-stream reports folded in order.
        let report_of = |events: &[CacheEvent]| {
            let mut m = MetricsObserver::with_timeline(1);
            for e in events {
                m.on_event(e);
            }
            m.report()
        };
        let mut folded = MetricsReport::new();
        folded.merge(&report_of(&events_a));
        folded.merge(&report_of(&events_b));
        let mut folded_again = MetricsReport::new();
        folded_again.merge(&report_of(&events_a));
        folded_again.merge(&report_of(&events_b));
        assert_eq!(
            serde_json::to_string(&folded).unwrap(),
            serde_json::to_string(&folded_again).unwrap()
        );
        assert_eq!(folded.accesses, 3);
        assert_eq!(folded.timeline.len(), 3);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut m = MetricsObserver::with_timeline(1);
        m.on_event(&miss(9, 0));
        m.on_event(&insert(9, 64, 1));
        let report = m.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
