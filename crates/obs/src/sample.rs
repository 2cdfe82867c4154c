//! The event fold behind every [`MetricsReport`], exact or sampled.
//!
//! One [`MetricsFold`] folds the event stream; a gate decides which
//! distribution values and traces it keeps. [`MetricsObserver`] is its
//! exact instance: it keeps every distribution point, so its memory
//! grows with the timeline and the churn map. A [`SamplingObserver`]
//! trades distribution *fidelity* for bounded memory while keeping
//! every monotonic counter **exact**:
//!
//! * counters (accesses, hits, misses, per-region insert/evict/promote
//!   counts and resident bytes) are updated on every event, never
//!   sampled;
//! * histogram recordings are strided — every `stride`-th distribution
//!   value is recorded (seed-offset, deterministic);
//! * the occupancy timeline is capped: when it outgrows `timeline_cap`
//!   the sampling stride doubles and existing samples are thinned to the
//!   new stride, so memory stays `O(timeline_cap)` for any replay
//!   length;
//! * the churn map tracks a deterministic hash-selected subset of
//!   traces;
//! * hit reuse intervals additionally feed a seeded Algorithm-R
//!   reservoir, preserving raw values (not just log2 buckets) for
//!   quantile estimates.
//!
//! All sampling decisions are keyed on event counts and seeded integer
//! hashes — never wall clock or map iteration order — so a sampled
//! report is byte-identical for any `--jobs` count. With
//! [`SamplingParams::exact`] every gate passes and the embedded
//! [`MetricsReport`] is byte-identical to an unsampled
//! [`MetricsObserver`] run (a property test enforces this).

use std::fmt;

use gencache_cache::{EvictionCause, TraceMap};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, Region};
use crate::metrics::{sort_churn, ChurnEntry, MetricsReport, RegionMetrics, TimelineSample};
use crate::observer::Observer;

/// SplitMix64: a strong deterministic integer hash, used to select the
/// churn-tracked trace subset.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// xorshift64*: the reservoir's deterministic PRNG.
fn xorshift64star(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// Knobs of a [`SamplingObserver`]. All fields are deterministic
/// functions of the event stream and `seed` — no wall clock anywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingParams {
    /// Record every `stride`-th histogram value (1 = record all).
    pub stride: u64,
    /// Cap on timeline samples; exceeding it doubles the timeline
    /// stride and thins existing samples (0 = unbounded).
    pub timeline_cap: u64,
    /// Track churn for traces whose seeded hash is divisible by this
    /// (1 = track all traces).
    pub churn_every: u64,
    /// Reservoir capacity for raw hit reuse intervals (0 = disabled).
    pub reservoir: u64,
    /// Seed for the histogram-stride phase, the churn hash and the
    /// reservoir PRNG.
    pub seed: u64,
}

impl SamplingParams {
    /// Every gate passes: the embedded metrics are byte-identical to an
    /// unsampled [`MetricsObserver`] run (plus a reservoir of every
    /// reuse value up to 4096).
    pub fn exact() -> Self {
        SamplingParams {
            stride: 1,
            timeline_cap: 0,
            churn_every: 1,
            reservoir: 4096,
            seed: 0,
        }
    }

    /// Production defaults: 1-in-8 histogram striding, ≤512 timeline
    /// samples, 1-in-8 churn tracking, a 1024-value reuse reservoir.
    pub fn bounded(seed: u64) -> Self {
        SamplingParams {
            stride: 8,
            timeline_cap: 512,
            churn_every: 8,
            reservoir: 1024,
            seed,
        }
    }

    fn normalized(mut self) -> Self {
        self.stride = self.stride.max(1);
        self.churn_every = self.churn_every.max(1);
        self
    }
}

/// What the sampler kept versus skipped — the denominators needed to
/// interpret the sampled distributions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SamplingSummary {
    /// Histogram values recorded.
    pub hist_recorded: u64,
    /// Histogram values skipped by striding.
    pub hist_skipped: u64,
    /// Traces admitted to churn tracking.
    pub churn_tracked: u64,
    /// Traces excluded from churn tracking.
    pub churn_skipped: u64,
    /// Final timeline stride in accesses (0 = no timeline).
    pub timeline_stride: u64,
    /// How many times the timeline stride doubled to stay under the cap.
    pub timeline_doublings: u32,
    /// Reuse values offered to the reservoir.
    pub reservoir_seen: u64,
}

impl SamplingSummary {
    fn merge(&mut self, other: &SamplingSummary) {
        self.hist_recorded += other.hist_recorded;
        self.hist_skipped += other.hist_skipped;
        self.churn_tracked += other.churn_tracked;
        self.churn_skipped += other.churn_skipped;
        self.timeline_stride = self.timeline_stride.max(other.timeline_stride);
        self.timeline_doublings = self.timeline_doublings.max(other.timeline_doublings);
        self.reservoir_seen += other.reservoir_seen;
    }
}

/// A frozen uniform sample of raw values (sorted ascending), with the
/// population size it was drawn from.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReservoirSnapshot {
    /// Maximum values the reservoir holds.
    pub capacity: u64,
    /// Values offered over the whole run (the population size).
    pub seen: u64,
    /// The retained sample, sorted ascending.
    pub values: Vec<u64>,
}

impl ReservoirSnapshot {
    /// The `q`-quantile (0.0 ..= 1.0) of the retained sample, or `None`
    /// if the sample is empty. Nearest-rank on the sorted sample.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.values.is_empty() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.values.len() as f64).ceil() as usize).clamp(1, self.values.len());
        Some(self.values[rank - 1])
    }

    /// Folds `other` into `self` by re-offering its values through a
    /// deterministic PRNG seeded from both population sizes. The merge
    /// is deterministic for a fixed fold order (suite merges fold in
    /// input-index order); it is approximately — not exactly — a
    /// uniform sample of the combined population.
    pub fn merge(&mut self, other: &ReservoirSnapshot) {
        if other.values.is_empty() && other.seen == 0 {
            return;
        }
        if self.capacity == 0 {
            *self = other.clone();
            return;
        }
        let mut rng =
            splitmix64(self.seen ^ other.seen.rotate_left(32) ^ 0xA5A5_5A5A_1234_5678) | 1;
        let cap = self.capacity as usize;
        for (count, &v) in (self.seen..).zip(other.values.iter()) {
            if self.values.len() < cap {
                self.values.push(v);
            } else {
                let j = (xorshift64star(&mut rng) % (count + 1)) as usize;
                if j < cap {
                    self.values[j] = v;
                }
            }
        }
        self.seen += other.seen;
        self.values.sort_unstable();
    }
}

/// The serializable end product of a [`SamplingObserver`] run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SampledReport {
    /// The knobs the run used.
    pub params: SamplingParams,
    /// Exact counters plus sampled distributions, in the same shape as
    /// an unsampled report.
    pub metrics: MetricsReport,
    /// Kept/skipped accounting for the sampled parts.
    pub summary: SamplingSummary,
    /// Raw hit reuse intervals (µs), uniformly sampled.
    pub reuse_sample: ReservoirSnapshot,
}

impl Default for SamplingParams {
    fn default() -> Self {
        SamplingParams::exact()
    }
}

impl SampledReport {
    /// Folds `other` into `self`: metrics merge exactly, summaries add,
    /// reservoirs re-sample. Folding shard reports in input-index order
    /// is deterministic for any job count.
    pub fn merge(&mut self, other: &SampledReport) {
        self.metrics.merge(&other.metrics);
        self.summary.merge(&other.summary);
        self.reuse_sample.merge(&other.reuse_sample);
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct ChurnState {
    bytes: u32,
    evictions: u64,
    remisses: u64,
}

/// The per-event choices that set a sampled fold apart from the exact
/// one. [`Exact`] is zero-sized and answers every choice with a
/// constant, so the exact fold carries no gate at all.
pub trait Gate: fmt::Debug {
    /// Whether the next histogram value is recorded.
    fn hist(&mut self) -> bool;
    /// Whether churn is tracked for the trace with this raw id.
    fn churn(&self, trace: u64) -> bool;
    /// Notes a trace newly admitted to churn tracking.
    fn churn_tracked(&mut self);
    /// Notes an inserted trace left out of churn tracking.
    fn churn_skipped(&mut self);
    /// Offers a hit's reuse interval to the raw-value reservoir.
    fn reuse(&mut self, reuse_us: u64);
    /// Cap on timeline samples (0 = unbounded).
    fn timeline_cap(&self) -> u64;
    /// Notes a doubling of the timeline stride.
    fn timeline_doubled(&mut self);
}

/// The gate of [`MetricsObserver`]: every value is recorded, every
/// trace tracked, nothing counted.
#[derive(Debug, Clone, Copy, Default)]
pub struct Exact;

impl Gate for Exact {
    #[inline(always)]
    fn hist(&mut self) -> bool {
        true
    }
    #[inline(always)]
    fn churn(&self, _trace: u64) -> bool {
        true
    }
    #[inline(always)]
    fn churn_tracked(&mut self) {}
    #[inline(always)]
    fn churn_skipped(&mut self) {}
    #[inline(always)]
    fn reuse(&mut self, _reuse_us: u64) {}
    #[inline(always)]
    fn timeline_cap(&self) -> u64 {
        0
    }
    #[inline(always)]
    fn timeline_doubled(&mut self) {}
}

/// The gate of [`SamplingObserver`]: applies [`SamplingParams`] and
/// keeps the [`SamplingSummary`] and the reuse reservoir.
#[derive(Debug, Clone)]
pub struct Sampled {
    params: SamplingParams,
    hist_ticks: u64,
    summary: SamplingSummary,
    reservoir: Vec<u64>,
    reservoir_rng: u64,
}

impl Sampled {
    fn new(params: SamplingParams) -> Self {
        let params = params.normalized();
        Sampled {
            params,
            hist_ticks: params.seed % params.stride,
            summary: SamplingSummary::default(),
            reservoir: Vec::new(),
            reservoir_rng: splitmix64(params.seed) | 1,
        }
    }
}

impl Gate for Sampled {
    fn hist(&mut self) -> bool {
        let keep = self.hist_ticks.is_multiple_of(self.params.stride);
        self.hist_ticks += 1;
        if keep {
            self.summary.hist_recorded += 1;
        } else {
            self.summary.hist_skipped += 1;
        }
        keep
    }

    fn churn(&self, trace: u64) -> bool {
        self.params.churn_every <= 1
            || splitmix64(trace ^ self.params.seed).is_multiple_of(self.params.churn_every)
    }

    fn churn_tracked(&mut self) {
        self.summary.churn_tracked += 1;
    }

    fn churn_skipped(&mut self) {
        self.summary.churn_skipped += 1;
    }

    fn reuse(&mut self, reuse_us: u64) {
        if self.params.reservoir == 0 {
            return;
        }
        let cap = self.params.reservoir as usize;
        if self.reservoir.len() < cap {
            self.reservoir.push(reuse_us);
        } else {
            let j = (xorshift64star(&mut self.reservoir_rng) % (self.summary.reservoir_seen + 1))
                as usize;
            if j < cap {
                self.reservoir[j] = reuse_us;
            }
        }
        self.summary.reservoir_seen += 1;
    }

    fn timeline_cap(&self) -> u64 {
        self.params.timeline_cap
    }

    fn timeline_doubled(&mut self) {
        self.summary.timeline_doublings += 1;
    }
}

/// The one fold of the event stream into a [`MetricsReport`]: counters,
/// log2 histograms, an occupancy timeline and an eviction-churn table.
/// Counters are updated on every event; the gate `G` decides which
/// distribution values and traces are kept. Use it as
/// [`MetricsObserver`] or [`SamplingObserver`].
#[derive(Debug, Clone)]
pub struct MetricsFold<G> {
    gate: G,
    /// Take a timeline sample every this many accesses (0 = never).
    timeline_every: u64,
    accesses: u64,
    hits: u64,
    misses: u64,
    regions: Vec<RegionMetrics>,
    timeline: Vec<TimelineSample>,
    churn: TraceMap<u64, ChurnState>,
}

/// An [`Observer`] that aggregates every event into a [`MetricsReport`].
pub type MetricsObserver = MetricsFold<Exact>;

/// An [`Observer`] aggregating at bounded memory: exact counters,
/// distributions sampled per [`SamplingParams`].
pub type SamplingObserver = MetricsFold<Sampled>;

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
        MetricsFold::with_gate(Exact, sample_every)
    }

    /// Builds the serializable report from everything observed so far.
    pub fn report(&self) -> MetricsReport {
        self.metrics()
    }
}

impl SamplingObserver {
    /// A sampler without timeline sampling.
    pub fn new(params: SamplingParams) -> Self {
        SamplingObserver::with_timeline(params, 0)
    }

    /// A sampler taking occupancy samples every `sample_every` accesses
    /// (0 disables the timeline).
    pub fn with_timeline(params: SamplingParams, sample_every: u64) -> Self {
        MetricsFold::with_gate(Sampled::new(params), sample_every)
    }

    /// Builds the serializable report from everything observed so far.
    pub fn report(&self) -> SampledReport {
        let gate = &self.gate;
        let mut summary = gate.summary;
        summary.timeline_stride = self.timeline_every;
        let mut values = gate.reservoir.clone();
        values.sort_unstable();
        SampledReport {
            params: gate.params,
            metrics: self.metrics(),
            summary,
            reuse_sample: ReservoirSnapshot {
                capacity: gate.params.reservoir,
                seen: summary.reservoir_seen,
                values,
            },
        }
    }
}

impl<G: Gate> MetricsFold<G> {
    fn with_gate(gate: G, sample_every: u64) -> Self {
        MetricsFold {
            gate,
            timeline_every: sample_every,
            accesses: 0,
            hits: 0,
            misses: 0,
            regions: vec![RegionMetrics::default(); 4],
            timeline: Vec::new(),
            churn: TraceMap::new(),
        }
    }

    fn metrics(&self) -> MetricsReport {
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
        if self.timeline_every > 0 && self.accesses.is_multiple_of(self.timeline_every) {
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
            let cap = self.gate.timeline_cap();
            if cap > 0 && self.timeline.len() as u64 > cap {
                self.timeline_every *= 2;
                let stride = self.timeline_every;
                self.timeline.retain(|t| t.accesses.is_multiple_of(stride));
                self.gate.timeline_doubled();
            }
        }
    }

    fn region_mut(&mut self, region: Region) -> &mut RegionMetrics {
        &mut self.regions[region.index()]
    }

    /// The churn state of `trace`, made by `make` on first sight, or
    /// `None` when the gate leaves the trace untracked.
    fn churn_entry(
        &mut self,
        trace: u64,
        make: impl FnOnce() -> ChurnState,
    ) -> Option<&mut ChurnState> {
        if !self.gate.churn(trace) {
            return None;
        }
        let mut fresh = false;
        let state = self.churn.get_or_insert_with(trace, || {
            fresh = true;
            make()
        });
        if fresh {
            self.gate.churn_tracked();
        }
        Some(state)
    }
}

impl<G: Gate> Observer for MetricsFold<G> {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Insert {
                region,
                trace,
                bytes,
                ..
            } => {
                if self.gate.hist() {
                    self.region_mut(region).trace_bytes.record(u64::from(bytes));
                }
                let r = self.region_mut(region);
                r.inserts += 1;
                r.insert_bytes += u64::from(bytes);
                r.resident_bytes += u64::from(bytes);
                r.peak_resident_bytes = r.peak_resident_bytes.max(r.resident_bytes);
                let made = || ChurnState {
                    bytes,
                    ..ChurnState::default()
                };
                if self.churn_entry(trace.as_u64(), made).is_none() {
                    self.gate.churn_skipped();
                }
            }
            CacheEvent::Hit {
                region,
                reuse_us,
                time,
                ..
            } => {
                self.hits += 1;
                self.region_mut(region).hits += 1;
                if self.gate.hist() {
                    self.region_mut(region).reuse_us.record(reuse_us);
                }
                self.gate.reuse(reuse_us);
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
                if self.gate.hist() {
                    self.region_mut(region).lifetime_us.record(age_us);
                }
                if self.gate.hist() {
                    self.region_mut(region).evict_idle_us.record(idle_us);
                }
                let r = self.region_mut(region);
                match cause {
                    EvictionCause::Capacity => r.capacity_evictions += 1,
                    EvictionCause::Unmapped => r.unmap_evictions += 1,
                    EvictionCause::Flush => r.flush_evictions += 1,
                    EvictionCause::Discarded | EvictionCause::Promoted => r.discards += 1,
                }
                r.evicted_bytes += u64::from(bytes);
                r.resident_bytes = r.resident_bytes.saturating_sub(u64::from(bytes));
                if let Some(state) = self.churn_entry(trace.as_u64(), ChurnState::default) {
                    state.bytes = bytes;
                    state.evictions += 1;
                }
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
    use gencache_cache::TraceId;

    /// A small synthetic stream exercising every event kind.
    fn stream(n: u64) -> Vec<CacheEvent> {
        let mut events = Vec::new();
        for i in 0..n {
            let t = Time::from_micros(i * 7);
            let id = TraceId::new(i % 17);
            match i % 5 {
                0 => {
                    events.push(CacheEvent::Miss {
                        trace: id,
                        bytes: 64 + (i as u32 % 9) * 16,
                        time: t,
                    });
                    events.push(CacheEvent::Insert {
                        region: Region::Nursery,
                        trace: id,
                        bytes: 64 + (i as u32 % 9) * 16,
                        used: 1000 + i,
                        time: t,
                    });
                }
                1 | 2 => events.push(CacheEvent::Hit {
                    region: Region::Nursery,
                    trace: id,
                    reuse_us: i * 3 % 97,
                    time: t,
                }),
                3 => events.push(CacheEvent::Evict {
                    region: Region::Nursery,
                    trace: id,
                    bytes: 64,
                    cause: EvictionCause::Capacity,
                    age_us: i,
                    idle_us: i % 13,
                    time: t,
                }),
                _ => events.push(CacheEvent::Promote {
                    from: Region::Nursery,
                    to: Region::Probation,
                    trace: id,
                    bytes: 64,
                    time: t,
                }),
            }
        }
        events
    }

    #[test]
    fn exact_mode_is_byte_identical_to_metrics_observer() {
        let events = stream(500);
        let mut unsampled = MetricsObserver::with_timeline(16);
        let mut sampled = SamplingObserver::with_timeline(SamplingParams::exact(), 16);
        for e in &events {
            unsampled.on_event(e);
            sampled.on_event(e);
        }
        let a = serde_json::to_string(&unsampled.report()).unwrap();
        let b = serde_json::to_string(&sampled.report().metrics).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn counters_stay_exact_under_aggressive_sampling() {
        let events = stream(800);
        let mut exact = MetricsObserver::new();
        let mut sampled = SamplingObserver::new(SamplingParams {
            stride: 16,
            timeline_cap: 8,
            churn_every: 4,
            reservoir: 32,
            seed: 99,
        });
        for e in &events {
            exact.on_event(e);
            sampled.on_event(e);
        }
        let want = exact.report();
        let got = sampled.report();
        assert_eq!(got.metrics.accesses, want.accesses);
        assert_eq!(got.metrics.hits, want.hits);
        assert_eq!(got.metrics.misses, want.misses);
        for region in Region::ALL {
            let w = want.region(region);
            let g = got.metrics.region(region);
            assert_eq!(g.inserts, w.inserts);
            assert_eq!(g.insert_bytes, w.insert_bytes);
            assert_eq!(g.hits, w.hits);
            assert_eq!(g.capacity_evictions, w.capacity_evictions);
            assert_eq!(g.evicted_bytes, w.evicted_bytes);
            assert_eq!(g.promotions_in, w.promotions_in);
            assert_eq!(g.promotions_out, w.promotions_out);
            assert_eq!(g.resident_bytes, w.resident_bytes);
            assert_eq!(g.peak_resident_bytes, w.peak_resident_bytes);
        }
        // Distributions really were sampled.
        assert!(got.summary.hist_skipped > 0);
        assert!(got.summary.churn_skipped > 0);
    }

    #[test]
    fn timeline_stays_bounded() {
        let cap = 8u64;
        let mut sampled = SamplingObserver::with_timeline(
            SamplingParams {
                timeline_cap: cap,
                ..SamplingParams::exact()
            },
            1,
        );
        for e in stream(4000) {
            sampled.on_event(&e);
        }
        let report = sampled.report();
        assert!(report.metrics.timeline.len() as u64 <= cap);
        assert!(report.summary.timeline_doublings > 0);
        assert!(report.summary.timeline_stride > 1);
        // Surviving samples are evenly strided.
        for t in &report.metrics.timeline {
            assert_eq!(t.accesses % report.summary.timeline_stride, 0);
        }
    }

    #[test]
    fn reservoir_is_bounded_uniform_and_seed_deterministic() {
        let events = stream(3000);
        let run = |seed| {
            let mut s = SamplingObserver::new(SamplingParams {
                reservoir: 64,
                seed,
                ..SamplingParams::bounded(seed)
            });
            for e in &events {
                s.on_event(e);
            }
            s.report()
        };
        let a = run(7);
        let b = run(7);
        let c = run(8);
        assert_eq!(a, b);
        assert_eq!(a.reuse_sample.values.len(), 64);
        assert!(a.reuse_sample.seen > 64);
        // A different seed picks a different sample of the same population.
        assert_eq!(a.reuse_sample.seen, c.reuse_sample.seen);
        assert_ne!(a.reuse_sample.values, c.reuse_sample.values);
        // Sorted ascending, quantiles ordered.
        let q50 = a.reuse_sample.quantile(0.5).unwrap();
        let q95 = a.reuse_sample.quantile(0.95).unwrap();
        assert!(q50 <= q95);
        assert!(a.reuse_sample.values.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn merge_keeps_counters_exact_and_reservoir_bounded() {
        let events = stream(1000);
        let (first, second) = events.split_at(events.len() / 2);
        let params = SamplingParams {
            reservoir: 32,
            ..SamplingParams::bounded(3)
        };
        let run = |evs: &[CacheEvent]| {
            let mut s = SamplingObserver::new(params);
            for e in evs {
                s.on_event(e);
            }
            s.report()
        };
        let mut merged = run(first);
        merged.merge(&run(second));
        let whole = run(&events);
        assert_eq!(merged.metrics.accesses, whole.metrics.accesses);
        assert_eq!(merged.metrics.hits, whole.metrics.hits);
        assert_eq!(merged.metrics.misses, whole.metrics.misses);
        assert_eq!(merged.reuse_sample.seen, whole.reuse_sample.seen);
        assert!(merged.reuse_sample.values.len() as u64 <= params.reservoir);
        // Deterministic: merging the same shards again gives the same bytes.
        let mut again = run(first);
        again.merge(&run(second));
        assert_eq!(
            serde_json::to_string(&merged).unwrap(),
            serde_json::to_string(&again).unwrap()
        );
    }

    #[test]
    fn sampled_report_roundtrips_through_json() {
        let mut s = SamplingObserver::with_timeline(SamplingParams::bounded(5), 4);
        for e in stream(300) {
            s.on_event(&e);
        }
        let report = s.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: SampledReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
