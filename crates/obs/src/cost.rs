//! The instruction-overhead cost model of Table 2, and the
//! cost-attribution profiler built on top of it.
//!
//! The paper measured DynamoRIO's key management events with Pentium-4
//! performance counters (via PAPI) and fit formulas against trace size.
//! Its evaluation — and therefore ours — charges these fitted costs per
//! event; Figure 11's overhead ratio is the quotient of two such ledgers
//! (Equation 3).
//!
//! The formulas and the [`CostLedger`] accumulator live here (rather than
//! in `gencache-core`, which re-exports them) so that the observer layer
//! can price the event stream without a dependency cycle: a
//! [`CostObserver`] charges every [`CacheEvent`] through the same
//! formulas the models use, and decomposes the total into per-phase ×
//! per-region × per-cause [`CostLedger`]s — turning the headline
//! Equation 3 number into an attributable breakdown ("which phase spent
//! 41M instructions servicing misses", "what fraction of
//! persistent-region overhead is flush-induced").

use gencache_cache::EvictionCause;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, Region};
use crate::observer::Observer;

/// Instruction cost of generating a trace of `size_bytes`:
/// `865 * size^0.8`.
///
/// For the median 242-byte trace this is ≈ 69,834 instructions.
pub fn trace_generation(size_bytes: u32) -> f64 {
    865.0 * f64::from(size_bytes).powf(0.8)
}

/// Instruction cost of one DynamoRIO context switch: 25.
pub fn context_switch() -> f64 {
    25.0
}

/// Instruction cost of evicting (deleting) a trace of `size_bytes`:
/// `2.75 * size + 2650`.
pub fn eviction(size_bytes: u32) -> f64 {
    2.75 * f64::from(size_bytes) + 2650.0
}

/// Instruction cost of promoting (relocating) a trace of `size_bytes`
/// between caches: `22 * size + 8030`. Also the cost of the initial copy
/// from the basic-block cache into the trace cache.
pub fn promotion(size_bytes: u32) -> f64 {
    22.0 * f64::from(size_bytes) + 8030.0
}

/// Full cost of servicing one trace-cache conflict miss: two context
/// switches, one trace regeneration, and one copy into the trace cache
/// (same cost as a promotion). ≈ 85,000 instructions for an average
/// trace.
pub fn miss_service(size_bytes: u32) -> f64 {
    2.0 * context_switch() + trace_generation(size_bytes) + promotion(size_bytes)
}

/// An accumulator of management-instruction overhead, split by event kind.
///
/// # Examples
///
/// ```
/// use gencache_obs::CostLedger;
///
/// let mut ledger = CostLedger::new();
/// ledger.charge_miss(242);      // regenerate + 2 context switches + copy
/// ledger.charge_eviction(242);  // delete one resident trace
/// assert_eq!(ledger.miss_events, 1);
/// assert!(ledger.total() > 80_000.0); // a miss costs ~85k instructions
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CostLedger {
    /// Instructions spent regenerating traces after misses.
    pub trace_generation: f64,
    /// Instructions spent in context switches.
    pub context_switches: f64,
    /// Instructions spent evicting/deleting traces.
    pub evictions: f64,
    /// Instructions spent promoting traces between caches (and copying
    /// new traces into the trace cache).
    pub promotions: f64,
    /// Number of miss-service events charged.
    pub miss_events: u64,
    /// Number of eviction events charged.
    pub eviction_events: u64,
    /// Number of promotion events charged.
    pub promotion_events: u64,
}

impl CostLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        CostLedger::default()
    }

    /// Charges the full service cost of a conflict miss on a trace of
    /// `size_bytes`.
    pub fn charge_miss(&mut self, size_bytes: u32) {
        self.trace_generation += trace_generation(size_bytes);
        self.context_switches += 2.0 * context_switch();
        self.promotions += promotion(size_bytes); // bb→trace cache copy
        self.miss_events += 1;
    }

    /// Charges one eviction/deletion of a trace of `size_bytes`.
    pub fn charge_eviction(&mut self, size_bytes: u32) {
        self.evictions += eviction(size_bytes);
        self.eviction_events += 1;
    }

    /// Charges one inter-cache promotion of a trace of `size_bytes`.
    pub fn charge_promotion(&mut self, size_bytes: u32) {
        self.promotions += promotion(size_bytes);
        self.promotion_events += 1;
    }

    /// Total management instructions accumulated.
    pub fn total(&self) -> f64 {
        self.trace_generation + self.context_switches + self.evictions + self.promotions
    }

    /// The instruction components by name, in a fixed render order.
    pub fn components(&self) -> [(&'static str, f64); 4] {
        [
            ("trace generation", self.trace_generation),
            ("context switches", self.context_switches),
            ("evictions", self.evictions),
            ("promotions", self.promotions),
        ]
    }

    /// Folds `other` into `self`, field by field in declaration order —
    /// merging shard ledgers in input-index order is therefore
    /// bit-deterministic for any worker count.
    pub fn merge(&mut self, other: &CostLedger) {
        self.trace_generation += other.trace_generation;
        self.context_switches += other.context_switches;
        self.evictions += other.evictions;
        self.promotions += other.promotions;
        self.miss_events += other.miss_events;
        self.eviction_events += other.eviction_events;
        self.promotion_events += other.promotion_events;
    }
}

/// Equation 3: `generational / unified` total-overhead ratio. Below 1.0
/// means the generational scheme spends fewer instructions on cache
/// management. Returns 1.0 when the unified overhead is zero (no
/// management happened at all under either scheme).
pub fn overhead_ratio(generational: &CostLedger, unified: &CostLedger) -> f64 {
    let u = unified.total();
    if u == 0.0 {
        1.0
    } else {
        generational.total() / u
    }
}

/// Instruction cost attributed to one eviction cause within one region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CauseCost {
    /// Eviction events charged with this cause.
    pub events: u64,
    /// Instructions those evictions cost.
    pub instructions: f64,
}

impl CauseCost {
    fn charge(&mut self, instructions: f64) {
        self.events += 1;
        self.instructions += instructions;
    }

    fn merge(&mut self, other: &CauseCost) {
        self.events += other.events;
        self.instructions += other.instructions;
    }
}

/// Management overhead attributed to one cache region: every eviction is
/// charged to the region it removed a trace from (further split by
/// cause), and every promotion to the region that received the trace.
/// Miss-service costs are hierarchy-wide and stay at the phase/total
/// level — a miss touches no region until its re-insert.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RegionCost {
    /// Evictions from and promotions into this region.
    pub ledger: CostLedger,
    /// Replacement-policy evictions.
    pub capacity: CauseCost,
    /// Unmapped-memory deletions.
    pub unmapped: CauseCost,
    /// Whole-cache-flush removals.
    pub flush: CauseCost,
    /// Management discards (failed probation, unfit promotions).
    pub discarded: CauseCost,
}

impl RegionCost {
    fn charge_eviction(&mut self, bytes: u32, cause: EvictionCause) {
        let cost = eviction(bytes);
        self.ledger.charge_eviction(bytes);
        match cause {
            EvictionCause::Capacity => self.capacity.charge(cost),
            EvictionCause::Unmapped => self.unmapped.charge(cost),
            EvictionCause::Flush => self.flush.charge(cost),
            EvictionCause::Discarded | EvictionCause::Promoted => self.discarded.charge(cost),
        }
    }

    fn merge(&mut self, other: &RegionCost) {
        self.ledger.merge(&other.ledger);
        self.capacity.merge(&other.capacity);
        self.unmapped.merge(&other.unmapped);
        self.flush.merge(&other.flush);
        self.discarded.merge(&other.discarded);
    }

    /// The cause slices by name, in a fixed render order.
    pub fn causes(&self) -> [(&'static str, CauseCost); 4] {
        [
            ("capacity", self.capacity),
            ("unmap", self.unmapped),
            ("flush", self.flush),
            ("discard", self.discarded),
        ]
    }
}

/// Overhead attributed to one workload phase: the phase-local total plus
/// its per-region decomposition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseCost {
    /// Everything charged in this phase, misses included.
    pub ledger: CostLedger,
    /// Region attribution, indexed by [`Region::index`].
    pub regions: Vec<RegionCost>,
}

impl PhaseCost {
    fn new() -> Self {
        PhaseCost {
            ledger: CostLedger::new(),
            regions: vec![RegionCost::default(); 4],
        }
    }

    fn merge(&mut self, other: &PhaseCost) {
        self.ledger.merge(&other.ledger);
        if self.regions.len() < other.regions.len() {
            self.regions
                .resize(other.regions.len(), RegionCost::default());
        }
        for (mine, theirs) in self.regions.iter_mut().zip(&other.regions) {
            mine.merge(theirs);
        }
    }
}

/// The serializable end product of a [`CostObserver`] run: total
/// management overhead decomposed by phase, region and eviction cause.
///
/// Reports merge associatively field-by-field; shard reports folded in
/// input-index order produce byte-identical JSON for any worker count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CostReport {
    /// The run-wide ledger. Charged in event order, so it is *exactly*
    /// (bitwise) the ledger the model itself accumulated — the property
    /// test in `crates/core/tests/cost_attribution.rs` enforces this.
    pub total: CostLedger,
    /// Run-wide region attribution, indexed by [`Region::index`].
    pub regions: Vec<RegionCost>,
    /// Per-phase attribution, in phase order.
    pub phases: Vec<PhaseCost>,
}

impl CostReport {
    /// An empty report with all four region slots and `phases` phase
    /// slots present.
    pub fn new(phases: usize) -> Self {
        CostReport {
            total: CostLedger::new(),
            regions: vec![RegionCost::default(); 4],
            phases: (0..phases.max(1)).map(|_| PhaseCost::new()).collect(),
        }
    }

    /// The attribution for one region.
    pub fn region(&self, region: Region) -> &RegionCost {
        &self.regions[region.index()]
    }

    /// Folds `other` into `self`: ledgers add field-by-field, phases
    /// combine by index (the report grows to the longer phase list).
    /// Merging shard reports in input-index order is deterministic for
    /// any job count.
    pub fn merge(&mut self, other: &CostReport) {
        self.total.merge(&other.total);
        if self.regions.len() < other.regions.len() {
            self.regions
                .resize(other.regions.len(), RegionCost::default());
        }
        for (mine, theirs) in self.regions.iter_mut().zip(&other.regions) {
            mine.merge(theirs);
        }
        if self.phases.len() < other.phases.len() {
            self.phases.resize(other.phases.len(), PhaseCost::new());
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
    }

    /// Phase indices sorted by total attributed instructions, most
    /// expensive first (ties broken by phase index), truncated to `n`.
    pub fn top_phases(&self, n: usize) -> Vec<(usize, f64)> {
        let mut ranked: Vec<(usize, f64)> = self
            .phases
            .iter()
            .enumerate()
            .map(|(i, p)| (i, p.ledger.total()))
            .filter(|&(_, t)| t > 0.0)
            .collect();
        ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap().then(a.0.cmp(&b.0)));
        ranked.truncate(n);
        ranked
    }
}

/// An [`Observer`] that prices every [`CacheEvent`] through the Table 2
/// formulas and attributes the charges to phases, regions and eviction
/// causes.
///
/// The charge sites mirror the models' own ledger exactly: a `Miss`
/// event is charged [`CostLedger::charge_miss`], an `Evict` event
/// [`CostLedger::charge_eviction`], and a `Promote` event
/// [`CostLedger::charge_promotion`] — in event order, which is the order
/// the model charged its own ledger, so the observer's run-wide total is
/// bitwise-identical to the model's.
///
/// Phases are equal time slices of `[0, duration_us)`, the same
/// convention the `explain` tool uses; a zero duration (or one phase)
/// attributes everything to phase 0.
#[derive(Debug, Clone)]
pub struct CostObserver {
    phases: u32,
    duration_us: u64,
    report: CostReport,
}

impl Default for CostObserver {
    fn default() -> Self {
        CostObserver::new()
    }
}

impl CostObserver {
    /// A single-phase profiler: everything lands in phase 0.
    pub fn new() -> Self {
        CostObserver::with_phases(1, 0)
    }

    /// A profiler attributing events to `phases` equal time slices of a
    /// run lasting `duration_us` microseconds.
    pub fn with_phases(phases: u32, duration_us: u64) -> Self {
        let phases = phases.max(1);
        CostObserver {
            phases,
            duration_us,
            report: CostReport::new(phases as usize),
        }
    }

    /// The phase index (0-based) an event time falls into.
    fn phase_of(&self, time_us: u64) -> usize {
        if self.duration_us == 0 {
            return 0;
        }
        let p = u64::from(self.phases);
        (time_us.saturating_mul(p) / self.duration_us).min(p - 1) as usize
    }

    /// The attribution accumulated so far.
    pub fn report(&self) -> CostReport {
        self.report.clone()
    }

    /// Consumes the observer, returning its report without cloning.
    pub fn into_report(self) -> CostReport {
        self.report
    }
}

impl Observer for CostObserver {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Miss { bytes, time, .. } => {
                let p = self.phase_of(time.as_micros());
                self.report.total.charge_miss(bytes);
                self.report.phases[p].ledger.charge_miss(bytes);
            }
            CacheEvent::Evict {
                region,
                bytes,
                cause,
                time,
                ..
            } => {
                let p = self.phase_of(time.as_micros());
                self.report.total.charge_eviction(bytes);
                self.report.phases[p].ledger.charge_eviction(bytes);
                self.report.regions[region.index()].charge_eviction(bytes, cause);
                self.report.phases[p].regions[region.index()].charge_eviction(bytes, cause);
            }
            CacheEvent::Promote {
                to, bytes, time, ..
            } => {
                let p = self.phase_of(time.as_micros());
                self.report.total.charge_promotion(bytes);
                self.report.phases[p].ledger.charge_promotion(bytes);
                self.report.regions[to.index()]
                    .ledger
                    .charge_promotion(bytes);
                self.report.phases[p].regions[to.index()]
                    .ledger
                    .charge_promotion(bytes);
            }
            CacheEvent::Insert { .. }
            | CacheEvent::Hit { .. }
            | CacheEvent::PromotedIn { .. }
            | CacheEvent::Pin { .. }
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
    use gencache_cache::TraceId;
    use gencache_program::Time;

    /// The paper's worked example: a 242-byte (median) trace costs 69,834
    /// instructions to generate, 3,316 to evict, and 13,354 to promote.
    #[test]
    fn table2_median_trace_values() {
        assert!((trace_generation(242) - 69_834.0).abs() < 100.0);
        assert!((eviction(242) - 3_315.5).abs() < 1.0);
        assert!((promotion(242) - 13_354.0).abs() < 1.0);
        assert_eq!(context_switch(), 25.0);
    }

    /// "For an average trace, this amounts to approximately 85,000
    /// instructions."
    #[test]
    fn miss_service_near_85k() {
        let cost = miss_service(242);
        assert!(
            (80_000.0..90_000.0).contains(&cost),
            "miss service cost {cost} out of range"
        );
    }

    #[test]
    fn ledger_accumulates() {
        let mut ledger = CostLedger::new();
        ledger.charge_miss(242);
        ledger.charge_eviction(242);
        ledger.charge_promotion(242);
        assert_eq!(ledger.miss_events, 1);
        assert_eq!(ledger.eviction_events, 1);
        assert_eq!(ledger.promotion_events, 1);
        let expected = miss_service(242) + eviction(242) + promotion(242);
        assert!((ledger.total() - expected).abs() < 1e-9);
    }

    #[test]
    fn ledger_merge_adds_fields() {
        let mut a = CostLedger::new();
        a.charge_miss(100);
        let mut b = CostLedger::new();
        b.charge_eviction(100);
        b.charge_promotion(50);
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged.miss_events, 1);
        assert_eq!(merged.eviction_events, 1);
        assert_eq!(merged.promotion_events, 1);
        assert!((merged.total() - (a.total() + b.total())).abs() < 1e-9);
    }

    #[test]
    fn ratio_of_empty_ledgers_is_one() {
        let a = CostLedger::new();
        let b = CostLedger::new();
        assert_eq!(overhead_ratio(&a, &b), 1.0);
    }

    #[test]
    fn ratio_below_one_when_generational_cheaper() {
        let mut unified = CostLedger::new();
        unified.charge_miss(242);
        unified.charge_miss(242);
        let mut generational = CostLedger::new();
        generational.charge_miss(242);
        generational.charge_promotion(242);
        assert!(overhead_ratio(&generational, &unified) < 1.0);
    }

    #[test]
    fn costs_scale_with_size() {
        assert!(trace_generation(1000) > trace_generation(100));
        assert!(eviction(1000) > eviction(100));
        assert!(promotion(1000) > promotion(100));
        // Generation dominates eviction and promotion at every size.
        for s in [32u32, 242, 1024, 4096] {
            assert!(trace_generation(s) > promotion(s));
            assert!(promotion(s) > eviction(s));
        }
    }

    fn miss(bytes: u32, at: u64) -> CacheEvent {
        CacheEvent::Miss {
            trace: TraceId::new(1),
            bytes,
            time: Time::from_micros(at),
        }
    }

    fn evict(region: Region, bytes: u32, cause: EvictionCause, at: u64) -> CacheEvent {
        CacheEvent::Evict {
            region,
            trace: TraceId::new(2),
            bytes,
            cause,
            age_us: 1,
            idle_us: 1,
            time: Time::from_micros(at),
        }
    }

    fn promote(to: Region, bytes: u32, at: u64) -> CacheEvent {
        CacheEvent::Promote {
            from: Region::Nursery,
            to,
            trace: TraceId::new(3),
            bytes,
            time: Time::from_micros(at),
        }
    }

    #[test]
    fn observer_attributes_by_phase_region_and_cause() {
        // 4 phases over 400µs: events at 50, 150, 250, 350 land in 0..4.
        let mut o = CostObserver::with_phases(4, 400);
        o.on_event(&miss(242, 50));
        o.on_event(&evict(Region::Persistent, 242, EvictionCause::Flush, 150));
        o.on_event(&evict(
            Region::Persistent,
            100,
            EvictionCause::Capacity,
            150,
        ));
        o.on_event(&promote(Region::Persistent, 242, 250));
        o.on_event(&evict(
            Region::Probation,
            100,
            EvictionCause::Discarded,
            350,
        ));
        let r = o.report();

        assert_eq!(r.total.miss_events, 1);
        assert_eq!(r.total.eviction_events, 3);
        assert_eq!(r.total.promotion_events, 1);
        assert_eq!(r.phases.len(), 4);
        assert_eq!(r.phases[0].ledger.miss_events, 1);
        assert_eq!(r.phases[1].ledger.eviction_events, 2);
        assert_eq!(r.phases[2].ledger.promotion_events, 1);
        assert_eq!(r.phases[3].ledger.eviction_events, 1);

        let persistent = r.region(Region::Persistent);
        assert_eq!(persistent.flush.events, 1);
        assert!((persistent.flush.instructions - eviction(242)).abs() < 1e-9);
        assert_eq!(persistent.capacity.events, 1);
        assert_eq!(persistent.ledger.promotion_events, 1);
        assert_eq!(r.region(Region::Probation).discarded.events, 1);

        // Phase × region × cause: the flush charge sits in phase 1's
        // persistent slot specifically.
        assert_eq!(
            r.phases[1].regions[Region::Persistent.index()].flush.events,
            1
        );
        assert_eq!(
            r.phases[0].regions[Region::Persistent.index()].flush.events,
            0
        );

        // The miss stays unattributed at region level.
        let region_total: f64 = r.regions.iter().map(|rc| rc.ledger.total()).sum();
        assert!(region_total < r.total.total());
    }

    #[test]
    fn phase_ledgers_sum_to_total() {
        let mut o = CostObserver::with_phases(8, 1000);
        for i in 0..50u64 {
            o.on_event(&miss(100 + (i as u32 % 7) * 30, i * 19));
            o.on_event(&evict(Region::Unified, 90, EvictionCause::Capacity, i * 19));
        }
        let r = o.report();
        let phase_sum: f64 = r.phases.iter().map(|p| p.ledger.total()).sum();
        assert!((phase_sum - r.total.total()).abs() < 1e-6 * r.total.total());
        let events: u64 = r.phases.iter().map(|p| p.ledger.miss_events).sum();
        assert_eq!(events, r.total.miss_events);
    }

    #[test]
    fn top_phases_ranks_by_cost() {
        let mut o = CostObserver::with_phases(3, 300);
        o.on_event(&miss(242, 250)); // phase 2: one expensive miss
        o.on_event(&evict(Region::Unified, 100, EvictionCause::Capacity, 50)); // phase 0
        let top = o.report().top_phases(5);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].0, 2);
        assert_eq!(top[1].0, 0);
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn merge_matches_single_observer() {
        let events: Vec<CacheEvent> = (0..40u64)
            .map(|i| match i % 3 {
                0 => miss(200, i * 25),
                1 => evict(Region::Unified, 150, EvictionCause::Capacity, i * 25),
                _ => promote(Region::Persistent, 120, i * 25),
            })
            .collect();
        let mut whole = CostObserver::with_phases(4, 1000);
        for e in &events {
            whole.on_event(e);
        }
        let (first, second) = events.split_at(events.len() / 2);
        let mut a = CostObserver::with_phases(4, 1000);
        let mut b = CostObserver::with_phases(4, 1000);
        for e in first {
            a.on_event(e);
        }
        for e in second {
            b.on_event(e);
        }
        let mut merged = a.report();
        merged.merge(&b.report());
        assert_eq!(merged, whole.report());
    }

    #[test]
    fn cost_report_roundtrips_through_json() {
        let mut o = CostObserver::with_phases(2, 100);
        o.on_event(&miss(242, 10));
        o.on_event(&evict(Region::Persistent, 242, EvictionCause::Flush, 60));
        o.on_event(&promote(Region::Persistent, 100, 60));
        let report = o.report();
        let json = serde_json::to_string(&report).unwrap();
        let back: CostReport = serde_json::from_str(&json).unwrap();
        assert_eq!(report, back);
    }
}
