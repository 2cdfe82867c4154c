//! The aggregate reports: mergeable counters, histograms and occupancy
//! timelines built from the event stream by a
//! [`MetricsObserver`](crate::MetricsObserver).

use std::collections::HashMap;

use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::Region;
use crate::hist::Log2Histogram;

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

/// The serializable end product of a [`MetricsObserver`](crate::MetricsObserver) run.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CacheEvent;
    use crate::observer::Observer;
    use crate::sample::MetricsObserver;
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
