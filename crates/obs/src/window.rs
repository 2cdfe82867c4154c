//! Windowed time-series telemetry: the event stream folded into fixed
//! access-count windows, with an online drift detector on the windowed
//! miss rate.
//!
//! The paper's central phenomena — phase shifts, warmup floods, the
//! thrash cliff — are *temporal*, but every other report aggregates
//! over the whole run. A [`WindowObserver`] keeps a bounded series of
//! per-window counters (miss rate, churn, occupancy, eviction-cause
//! mix, promote rate) and [`detect_drift`] runs an EWMA-baselined
//! Page–Hinkley test over the windowed miss rate, emitting typed
//! [`DriftAnnotation`]s (`phase_shift`, `thrash_onset`, `recovery`)
//! keyed by window index. Both are deterministic functions of the
//! event stream, and [`WindowReport::merge`] folds reports in
//! input-index order, so documents embedding them stay byte-identical
//! for any `--jobs` value — and the series doubles as the sensor API
//! the ROADMAP's adaptive policy engine needs.

use gencache_cache::TraceSet;
use serde::{Deserialize, Serialize};

use crate::event::CacheEvent;
use crate::observer::Observer;

/// Default cap on retained windows before stride-doubling compaction.
pub const DEFAULT_WINDOW_CAP: usize = 512;

/// One fixed access-count window of cache activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Window {
    /// Accesses (hits + misses) observed in the window.
    pub accesses: u64,
    /// Accesses satisfied by a resident trace.
    pub hits: u64,
    /// Accesses that missed everywhere.
    pub misses: u64,
    /// Misses on traces that had been evicted at least once — the
    /// churn signature of a thrashing cache.
    pub remisses: u64,
    /// New traces inserted.
    pub inserts: u64,
    /// Bytes of new traces inserted.
    pub insert_bytes: u64,
    /// Entries evicted by the replacement policy.
    pub capacity_evictions: u64,
    /// Entries deleted because their source memory was unmapped.
    pub unmap_evictions: u64,
    /// Entries removed by whole-cache flushes.
    pub flush_evictions: u64,
    /// Entries discarded by management decisions (incl. promotions'
    /// source-region removals).
    pub discards: u64,
    /// Bytes removed for any cause.
    pub evicted_bytes: u64,
    /// Traces promoted up the hierarchy.
    pub promotions: u64,
    /// Resident bytes across all regions when the window closed.
    pub resident_bytes: u64,
}

impl Window {
    /// The window's miss rate, or 0 for an empty window.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Folds `later` into `self` — the stride-doubling compaction step.
    /// Counters add; occupancy keeps the later close snapshot.
    fn absorb(&mut self, later: &Window) {
        self.accesses += later.accesses;
        self.hits += later.hits;
        self.misses += later.misses;
        self.remisses += later.remisses;
        self.inserts += later.inserts;
        self.insert_bytes += later.insert_bytes;
        self.capacity_evictions += later.capacity_evictions;
        self.unmap_evictions += later.unmap_evictions;
        self.flush_evictions += later.flush_evictions;
        self.discards += later.discards;
        self.evicted_bytes += later.evicted_bytes;
        self.promotions += later.promotions;
        self.resident_bytes = later.resident_bytes;
    }
}

/// What kind of behavior change a [`DriftAnnotation`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftKind {
    /// The miss rate stepped up — a working-set change (warmup flood at
    /// a phase boundary, new code region).
    PhaseShift,
    /// The miss rate stepped up *and* the detection window is
    /// churn-dominated (most misses are re-misses of evicted traces) —
    /// the thrash-cliff signature.
    ThrashOnset,
    /// The miss rate stepped back down toward the earlier baseline.
    Recovery,
}

impl DriftKind {
    /// The annotation's snake_case display name.
    pub fn name(self) -> &'static str {
        match self {
            DriftKind::PhaseShift => "phase_shift",
            DriftKind::ThrashOnset => "thrash_onset",
            DriftKind::Recovery => "recovery",
        }
    }
}

impl std::fmt::Display for DriftKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One detected change point in the windowed miss rate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftAnnotation {
    /// Index into [`WindowReport::windows`] where the test fired.
    pub window: u64,
    /// What kind of change.
    pub kind: DriftKind,
    /// The detection window's miss rate.
    pub miss_rate: f64,
    /// The EWMA baseline the rate drifted away from.
    pub baseline: f64,
}

/// EWMA smoothing factor for the baseline miss rate.
///
/// Public (with the other drift constants) so the online adaptive
/// controller in `gencache_core::adaptive` runs the *same* detector the
/// post-hoc annotator does — one set of thresholds, two consumers.
pub const EWMA_ALPHA: f64 = 0.25;
/// Page–Hinkley slack: per-window deviations smaller than this never
/// accumulate toward a detection.
pub const PH_DELTA: f64 = 0.004;
/// Page–Hinkley threshold: the cumulative deviation that fires.
pub const PH_LAMBDA: f64 = 0.02;
/// A rise classifies as [`DriftKind::ThrashOnset`] only above this
/// absolute miss rate and with churn-dominated misses.
pub const THRASH_MISS_RATE: f64 = 0.05;
/// Churn channel: a window needs at least this many re-misses to count
/// as a burst — small-count noise never fires.
pub const CHURN_MIN_REMISSES: u64 = 8;
/// Churn channel: a burst must exceed the EWMA churn baseline by this
/// factor (against a floor of one re-miss, so a quiet baseline still
/// demands an absolute burst).
pub const CHURN_BURST_FACTOR: f64 = 4.0;

/// Runs the online drift detector over a window series — two
/// independent channels, both pure and deterministic (merged reports
/// re-annotated anywhere give identical results):
///
/// * **Miss rate** — an EWMA baseline with a two-sided Page–Hinkley
///   (CUSUM-family) test on the per-window miss rate. Upward detections
///   classify as [`DriftKind::ThrashOnset`] when the detection window's
///   miss rate clears an absolute thrash floor **and** re-misses
///   dominate its misses (wasted regeneration of evicted traces), else
///   [`DriftKind::PhaseShift`]; downward detections are
///   [`DriftKind::Recovery`]. After each detection the baseline
///   re-anchors at the detection window's rate.
/// * **Churn** — an EWMA-baselined burst test on per-window re-misses,
///   flagging [`DriftKind::ThrashOnset`] when a window's re-misses jump
///   well past their running baseline. This is what catches the small
///   persistent-region eviction bursts whose *rate* impact is below the
///   Page–Hinkley slack: a few dozen regretful capacity evictions in a
///   phase move the windowed miss rate by fractions of a percent but
///   spike the churn series an order of magnitude. A window that
///   already fired the rate channel only re-anchors this baseline (one
///   annotation per window).
pub fn detect_drift(windows: &[Window]) -> Vec<DriftAnnotation> {
    let mut annotations = Vec::new();
    let mut baseline: Option<f64> = None;
    let mut up = 0.0f64;
    let mut down = 0.0f64;
    let mut churn_base = 0.0f64;
    for (i, w) in windows.iter().enumerate() {
        if w.accesses == 0 {
            continue;
        }
        let rate = w.miss_rate();
        let remisses = w.remisses as f64;
        let Some(base) = baseline else {
            baseline = Some(rate);
            churn_base = remisses;
            continue;
        };
        up = (up + (rate - base - PH_DELTA)).max(0.0);
        down = (down + (base - rate - PH_DELTA)).max(0.0);
        let mut fired = false;
        if up > PH_LAMBDA {
            let thrashing = rate >= THRASH_MISS_RATE && w.remisses * 2 >= w.misses;
            annotations.push(DriftAnnotation {
                window: i as u64,
                kind: if thrashing {
                    DriftKind::ThrashOnset
                } else {
                    DriftKind::PhaseShift
                },
                miss_rate: rate,
                baseline: base,
            });
            baseline = Some(rate);
            up = 0.0;
            down = 0.0;
            fired = true;
        } else if down > PH_LAMBDA {
            annotations.push(DriftAnnotation {
                window: i as u64,
                kind: DriftKind::Recovery,
                miss_rate: rate,
                baseline: base,
            });
            baseline = Some(rate);
            up = 0.0;
            down = 0.0;
            fired = true;
        } else {
            baseline = Some(base + EWMA_ALPHA * (rate - base));
        }
        let burst = w.remisses >= CHURN_MIN_REMISSES
            && remisses >= CHURN_BURST_FACTOR * churn_base.max(1.0);
        if burst && !fired {
            annotations.push(DriftAnnotation {
                window: i as u64,
                kind: DriftKind::ThrashOnset,
                miss_rate: rate,
                baseline: base,
            });
        }
        churn_base = if burst || fired {
            remisses
        } else {
            churn_base + EWMA_ALPHA * (remisses - churn_base)
        };
    }
    annotations
}

/// The serializable end product of a [`WindowObserver`] run: the window
/// series plus its drift annotations.
///
/// Reports merge by concatenating window series in merge order (each
/// input's annotations shift by its window offset), so folding
/// per-benchmark reports in input-index order is deterministic for any
/// worker count — the same contract every other report type honors.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WindowReport {
    /// Access-count width of each window. 0 after merging reports with
    /// differing widths (the per-benchmark widths stay in the
    /// per-benchmark sections).
    pub window_accesses: u64,
    /// Times the observer doubled the width to stay within its cap.
    pub doublings: u64,
    /// The window series, oldest first.
    pub windows: Vec<Window>,
    /// Drift detections, in window order.
    pub annotations: Vec<DriftAnnotation>,
}

impl WindowReport {
    /// Folds `other` after `self`: window series concatenate and
    /// `other`'s annotations shift by `self`'s window count. Merging in
    /// input-index order is deterministic for any job count.
    pub fn merge(&mut self, other: &WindowReport) {
        if self.windows.is_empty() {
            self.window_accesses = other.window_accesses;
        } else if !other.windows.is_empty() && self.window_accesses != other.window_accesses {
            self.window_accesses = 0;
        }
        self.doublings += other.doublings;
        let offset = self.windows.len() as u64;
        self.windows.extend_from_slice(&other.windows);
        self.annotations
            .extend(other.annotations.iter().map(|a| DriftAnnotation {
                window: a.window + offset,
                ..*a
            }));
    }
}

/// An [`Observer`] that folds the event stream into fixed access-count
/// [`Window`]s with bounded memory: when the series outgrows its cap,
/// the window width doubles and adjacent windows fold pairwise — the
/// same stride-doubling scheme the sampling timeline uses, and equally
/// deterministic (keyed on access counts, never wall clock).
#[derive(Debug, Clone)]
pub struct WindowObserver {
    window_accesses: u64,
    cap: usize,
    doublings: u64,
    windows: Vec<Window>,
    current: Window,
    resident_bytes: u64,
    evicted: TraceSet<u64>,
}

impl WindowObserver {
    /// An observer cutting a window every `window_accesses` accesses
    /// (minimum 1), compacting past [`DEFAULT_WINDOW_CAP`] windows.
    pub fn new(window_accesses: u64) -> Self {
        WindowObserver::with_cap(window_accesses, DEFAULT_WINDOW_CAP)
    }

    /// An observer with an explicit retained-window cap (minimum 2, so
    /// compaction can always fold a pair).
    pub fn with_cap(window_accesses: u64, cap: usize) -> Self {
        WindowObserver {
            window_accesses: window_accesses.max(1),
            cap: cap.max(2),
            doublings: 0,
            windows: Vec::new(),
            current: Window::default(),
            resident_bytes: 0,
            evicted: TraceSet::new(),
        }
    }

    /// Builds the report from everything observed so far, including the
    /// still-open trailing window (if any) and the drift annotations.
    pub fn report(&self) -> WindowReport {
        let mut windows = self.windows.clone();
        if self.current.accesses > 0 {
            let mut tail = self.current;
            tail.resident_bytes = self.resident_bytes;
            windows.push(tail);
        }
        WindowReport {
            window_accesses: self.window_accesses,
            doublings: self.doublings,
            annotations: detect_drift(&windows),
            windows,
        }
    }

    fn on_access(&mut self) {
        self.current.accesses += 1;
        if self.current.accesses >= self.window_accesses {
            self.current.resident_bytes = self.resident_bytes;
            self.windows.push(self.current);
            self.current = Window::default();
            if self.windows.len() > self.cap {
                self.compact();
            }
        }
    }

    /// Doubles the window width and folds adjacent pairs. An odd
    /// trailing window (now half the new width) reopens as the
    /// accumulating window, so no access is ever counted twice.
    fn compact(&mut self) {
        self.window_accesses *= 2;
        self.doublings += 1;
        let old = std::mem::take(&mut self.windows);
        let mut chunks = old.chunks_exact(2);
        for pair in &mut chunks {
            let mut folded = pair[0];
            folded.absorb(&pair[1]);
            self.windows.push(folded);
        }
        if let [leftover] = chunks.remainder() {
            // `current` was just reset by the caller; the leftover
            // half-width window continues filling to the new width.
            self.current = *leftover;
        }
    }
}

impl Observer for WindowObserver {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Insert { bytes, .. } => {
                self.current.inserts += 1;
                self.current.insert_bytes += u64::from(bytes);
                self.resident_bytes += u64::from(bytes);
            }
            CacheEvent::Hit { .. } => {
                self.current.hits += 1;
                self.on_access();
            }
            CacheEvent::Miss { trace, .. } => {
                self.current.misses += 1;
                if self.evicted.contains(trace.as_u64()) {
                    self.current.remisses += 1;
                }
                self.on_access();
            }
            CacheEvent::Evict {
                trace,
                bytes,
                cause,
                ..
            } => {
                match cause {
                    gencache_cache::EvictionCause::Capacity => {
                        self.current.capacity_evictions += 1;
                    }
                    gencache_cache::EvictionCause::Unmapped => {
                        self.current.unmap_evictions += 1;
                    }
                    gencache_cache::EvictionCause::Flush => self.current.flush_evictions += 1,
                    gencache_cache::EvictionCause::Discarded
                    | gencache_cache::EvictionCause::Promoted => self.current.discards += 1,
                }
                self.current.evicted_bytes += u64::from(bytes);
                self.resident_bytes = self.resident_bytes.saturating_sub(u64::from(bytes));
                self.evicted.insert(trace.as_u64());
            }
            CacheEvent::Promote { .. } => {
                // Bytes move between regions; total occupancy is
                // unchanged.
                self.current.promotions += 1;
            }
            // Accounting duplicate of `Promote`.
            CacheEvent::PromotedIn { .. } => {}
            CacheEvent::Pin { .. }
            | CacheEvent::Unpin { .. }
            | CacheEvent::Noop { .. }
            | CacheEvent::PointerReset { .. }
            | CacheEvent::PolicySwap { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::{EvictionCause, TraceId};
    use gencache_program::Time;

    fn insert(trace: u64, bytes: u32) -> CacheEvent {
        CacheEvent::Insert {
            region: crate::event::Region::Unified,
            trace: TraceId::new(trace),
            bytes,
            used: bytes.into(),
            time: Time::ZERO,
        }
    }

    fn hit(trace: u64) -> CacheEvent {
        CacheEvent::Hit {
            region: crate::event::Region::Unified,
            trace: TraceId::new(trace),
            reuse_us: 1,
            time: Time::ZERO,
        }
    }

    fn miss(trace: u64) -> CacheEvent {
        CacheEvent::Miss {
            trace: TraceId::new(trace),
            bytes: 100,
            time: Time::ZERO,
        }
    }

    fn evict(trace: u64, bytes: u32) -> CacheEvent {
        CacheEvent::Evict {
            region: crate::event::Region::Unified,
            trace: TraceId::new(trace),
            bytes,
            cause: EvictionCause::Capacity,
            age_us: 10,
            idle_us: 1,
            time: Time::ZERO,
        }
    }

    /// A synthetic stream with `rates.len()` segments of `per` accesses
    /// each, segment `s` missing at `rates[s]` (evenly spread).
    fn staged_stream(per: u64, rates: &[f64]) -> Vec<CacheEvent> {
        let mut events = Vec::new();
        for (s, &rate) in rates.iter().enumerate() {
            let misses = (rate * per as f64).round() as u64;
            for i in 0..per {
                // Spread misses evenly through the segment.
                let is_miss = misses > 0 && i * misses / per != (i + 1) * misses / per;
                if is_miss {
                    events.push(miss(s as u64 * per + i));
                } else {
                    events.push(hit(0));
                }
            }
        }
        events
    }

    #[test]
    fn windows_cut_every_n_accesses() {
        let mut o = WindowObserver::new(4);
        o.on_event(&insert(1, 100));
        for _ in 0..10 {
            o.on_event(&hit(1));
        }
        let report = o.report();
        assert_eq!(report.window_accesses, 4);
        assert_eq!(report.windows.len(), 3);
        assert_eq!(report.windows[0].accesses, 4);
        assert_eq!(report.windows[2].accesses, 2, "trailing partial window");
        assert_eq!(report.windows[0].inserts, 1);
        assert_eq!(report.windows[0].resident_bytes, 100);
    }

    #[test]
    fn remisses_and_cause_mix_are_tracked() {
        let mut o = WindowObserver::new(100);
        o.on_event(&miss(1)); // cold miss: no remiss
        o.on_event(&insert(1, 50));
        o.on_event(&evict(1, 50));
        o.on_event(&miss(1)); // remiss
        let report = o.report();
        assert_eq!(report.windows.len(), 1);
        let w = &report.windows[0];
        assert_eq!((w.misses, w.remisses), (2, 1));
        assert_eq!(w.capacity_evictions, 1);
        assert_eq!(w.evicted_bytes, 50);
        assert_eq!(w.resident_bytes, 0);
    }

    #[test]
    fn compaction_doubles_width_and_conserves_totals() {
        let mut o = WindowObserver::with_cap(2, 4);
        for i in 0..64 {
            o.on_event(&miss(i));
        }
        let report = o.report();
        assert!(report.doublings >= 3, "doublings: {}", report.doublings);
        assert_eq!(report.window_accesses, 2 << report.doublings);
        assert!(report.windows.len() <= 5);
        let total: u64 = report.windows.iter().map(|w| w.accesses).sum();
        assert_eq!(total, 64, "compaction must conserve accesses");
        let misses: u64 = report.windows.iter().map(|w| w.misses).sum();
        assert_eq!(misses, 64);
    }

    #[test]
    fn detector_flags_planted_step_and_recovery() {
        let events = staged_stream(400, &[0.02, 0.02, 0.02, 0.20, 0.20, 0.02, 0.02]);
        let mut o = WindowObserver::new(100);
        for e in &events {
            o.on_event(e);
        }
        let report = o.report();
        let kinds: Vec<DriftKind> = report.annotations.iter().map(|a| a.kind).collect();
        assert!(
            kinds.contains(&DriftKind::PhaseShift),
            "no upward detection: {:?}",
            report.annotations
        );
        assert!(
            kinds.contains(&DriftKind::Recovery),
            "no recovery: {:?}",
            report.annotations
        );
        // The step starts at access 1200 = window 12; detection within
        // a few windows of onset.
        let first = report.annotations.first().unwrap();
        assert!(
            (12..16).contains(&first.window),
            "detection at window {}",
            first.window
        );
    }

    #[test]
    fn detector_is_silent_on_stationary_streams() {
        let events = staged_stream(400, &[0.05; 8]);
        let mut o = WindowObserver::new(100);
        for e in &events {
            o.on_event(e);
        }
        assert!(o.report().annotations.is_empty());
    }

    #[test]
    fn thrash_classification_requires_churn() {
        // Same step magnitude, one churn-dominated, one cold.
        let mut churny = WindowObserver::new(100);
        let mut cold = WindowObserver::new(100);
        for i in 0..400u64 {
            churny.on_event(&hit(i));
            cold.on_event(&hit(i));
        }
        // Make trace ids 0..40 "previously evicted" for the churny run.
        for i in 0..40u64 {
            churny.on_event(&evict(i, 10));
        }
        for round in 0..4 {
            for i in 0..100u64 {
                let e = if i < 20 { miss(i % 40) } else { hit(i) };
                churny.on_event(&e);
                let e = if i < 20 {
                    miss(10_000 + round * 100 + i)
                } else {
                    hit(i)
                };
                cold.on_event(&e);
            }
        }
        let churny_kinds: Vec<DriftKind> =
            churny.report().annotations.iter().map(|a| a.kind).collect();
        let cold_kinds: Vec<DriftKind> = cold.report().annotations.iter().map(|a| a.kind).collect();
        assert!(
            churny_kinds.contains(&DriftKind::ThrashOnset),
            "churn-dominated step should classify as thrash: {churny_kinds:?}"
        );
        assert!(
            cold_kinds.contains(&DriftKind::PhaseShift)
                && !cold_kinds.contains(&DriftKind::ThrashOnset),
            "cold step should classify as phase shift: {cold_kinds:?}"
        );
    }

    #[test]
    fn churn_burst_below_rate_slack_is_flagged_as_thrash() {
        // A persistent-region eviction burst: the miss *rate* barely
        // moves (well under the Page–Hinkley slack), but one window's
        // re-misses jump from zero to a dozen. The churn channel must
        // flag it; an identical stream with fresh-trace misses (no
        // churn) must stay silent.
        let bursty = |churn: bool| {
            let mut o = WindowObserver::new(1000);
            // Mark traces 0..20 previously evicted so their misses
            // count as re-misses.
            if churn {
                for i in 0..20u64 {
                    o.on_event(&evict(i, 10));
                }
            }
            for w in 0..12u64 {
                for i in 0..1000u64 {
                    // Quiet regime: 5 cold misses per window. Window 8
                    // adds 12 extra misses (rate 0.017 vs 0.005) that
                    // are re-misses in the churny run.
                    let extra = w == 8 && (500..512).contains(&i);
                    let e = if i < 5 {
                        miss(1_000_000 + w * 1000 + i)
                    } else if extra {
                        if churn {
                            miss((i - 500) % 20)
                        } else {
                            miss(2_000_000 + w * 1000 + i)
                        }
                    } else {
                        hit(i)
                    };
                    o.on_event(&e);
                }
            }
            o.report()
        };
        let churny = bursty(true);
        let cold = bursty(false);
        assert_eq!(
            churny
                .annotations
                .iter()
                .map(|a| (a.window, a.kind))
                .collect::<Vec<_>>(),
            vec![(8, DriftKind::ThrashOnset)],
            "churn burst should be the only annotation: {:?}",
            churny.annotations
        );
        assert!(
            cold.annotations.is_empty(),
            "cold burst below rate slack should stay silent: {:?}",
            cold.annotations
        );
    }

    #[test]
    fn merge_concatenates_and_offsets_annotations() {
        let a_events = staged_stream(200, &[0.02, 0.25]);
        let b_events = staged_stream(200, &[0.03, 0.30]);
        let report_of = |events: &[CacheEvent]| {
            let mut o = WindowObserver::new(100);
            for e in events {
                o.on_event(e);
            }
            o.report()
        };
        let a = report_of(&a_events);
        let b = report_of(&b_events);
        assert!(!a.annotations.is_empty() && !b.annotations.is_empty());
        let mut merged = WindowReport::default();
        merged.merge(&a);
        merged.merge(&b);
        assert_eq!(merged.windows.len(), a.windows.len() + b.windows.len());
        assert_eq!(
            merged.annotations.len(),
            a.annotations.len() + b.annotations.len()
        );
        let offset = a.windows.len() as u64;
        assert_eq!(
            merged.annotations.last().unwrap().window,
            b.annotations.last().unwrap().window + offset
        );
        // Same-width merge keeps the width; mixed widths zero it.
        assert_eq!(merged.window_accesses, 100);
        let mut mixed = report_of(&a_events);
        let mut other = WindowObserver::new(50);
        for e in &b_events {
            other.on_event(e);
        }
        mixed.merge(&other.report());
        assert_eq!(mixed.window_accesses, 0);
    }

    #[test]
    fn report_roundtrips_through_value() {
        let events = staged_stream(200, &[0.02, 0.25]);
        let mut o = WindowObserver::new(100);
        for e in &events {
            o.on_event(e);
        }
        let report = o.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: WindowReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
