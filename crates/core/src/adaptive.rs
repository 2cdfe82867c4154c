//! The adaptive policy engine: online selection among §6 grid
//! configurations, judged on the regret scale.
//!
//! The paper fixes one cache configuration per run, but its own Section
//! 6 sweep shows the best proportions and promotion policy vary by
//! workload — and, for phased workloads, *within* a run. This module
//! closes the loop the ROADMAP calls the "adaptive policy engine":
//!
//! * [`AdaptiveModel`] wraps a [`GenerationalModel`] plus a
//!   [`CandidateSet`] of §6 grid configurations. It folds its own access
//!   stream into fixed access-count **epochs** and runs the same
//!   EWMA-baselined Page–Hinkley and churn-burst detector the windowed
//!   annotator uses (`gencache_obs::detect_drift`, same public
//!   constants) as an *online* controller.
//! * When the detector fires, the controller **probes**: each candidate
//!   is installed for one epoch (a deterministic, seedless round-robin
//!   audition from a cold cache) and the candidate with the lowest probe
//!   miss rate is committed. Ties break toward the lowest candidate
//!   index, so replays are bit-reproducible at any job count.
//! * Every install is a [`GenerationalModel::reconfigure`] — a
//!   whole-hierarchy flush emitting ordinary `Evict` events with
//!   `EvictionCause::Flush` (which the regret observer scores as
//!   *forced*, i.e. regret-free) — plus a
//!   [`CacheEvent::PolicySwap`] marker so `explain` can narrate the
//!   decision.
//! * The first drift detection also arms a [`TemperatureTracker`], a
//!   TRRIP-style re-reference interval predictor whose "hot" verdicts
//!   feed the generational manager's promotion decisions. On a
//!   stationary stream the detector never fires, nothing is armed, and
//!   the model is byte-for-byte its initial static configuration.

use gencache_cache::{TraceId, TraceMap, TraceRecord, TraceSet};
use gencache_obs::{
    CacheEvent, NullObserver, Observer, CHURN_BURST_FACTOR, CHURN_MIN_REMISSES, EWMA_ALPHA,
    PH_DELTA, PH_LAMBDA,
};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::config::{GenerationalConfig, PromotionPolicy, Proportions};
use crate::cost::CostLedger;
use crate::manager::GenerationalModel;
use crate::model::{AccessOutcome, CacheModel, ModelMetrics};

/// Default controller epoch width, in accesses. Small enough to react
/// within a program phase, large enough that one epoch's miss rate is a
/// meaningful sample.
pub const DEFAULT_EPOCH_ACCESSES: u64 = 256;

/// Maximum candidates an [`AdaptiveModel`] can audition. The set is a
/// fixed-size inline array so spec values stay `Copy`.
pub const MAX_CANDIDATES: usize = 8;

/// EWMA smoothing factor for per-trace re-reference interval prediction.
const TEMP_ALPHA: f64 = 0.5;
/// A trace's initial predicted re-reference interval, as a multiple of
/// the hot threshold — the RRIP convention of inserting with a *long*
/// predicted interval so only demonstrated reuse earns "hot".
const TEMP_COLD_FACTOR: f64 = 2.0;

/// TRRIP-style per-trace temperature: an EWMA predictor of each trace's
/// re-reference interval, measured in accesses of the whole stream.
///
/// A trace whose predicted interval is at most the `hot_gap` threshold
/// is **hot**: the generational manager promotes hot probation traces
/// to the persistent cache even when the configured
/// [`PromotionPolicy`] alone would delete them. Detached by default;
/// the adaptive controller arms it at the first drift detection.
#[derive(Debug, Clone)]
pub struct TemperatureTracker {
    hot_gap: u64,
    tick: u64,
    hot_promotions: u64,
    states: TraceMap<TraceId, TempState>,
}

#[derive(Debug, Clone, Copy)]
struct TempState {
    last_tick: u64,
    pred_gap: f64,
}

impl TemperatureTracker {
    /// A tracker that calls a trace hot when its predicted re-reference
    /// interval is at most `hot_gap` accesses (minimum 1).
    pub fn new(hot_gap: u64) -> Self {
        TemperatureTracker {
            hot_gap: hot_gap.max(1),
            tick: 0,
            hot_promotions: 0,
            states: TraceMap::new(),
        }
    }

    /// Feeds one access of `id` (hit or miss — re-reference intervals
    /// are a property of the request stream, not of residency).
    pub fn observe(&mut self, id: TraceId) {
        self.tick += 1;
        let cold = TEMP_COLD_FACTOR * self.hot_gap as f64;
        match self.states.get_mut(id) {
            Some(s) => {
                let gap = (self.tick - s.last_tick) as f64;
                s.pred_gap += TEMP_ALPHA * (gap - s.pred_gap);
                s.last_tick = self.tick;
            }
            None => {
                self.states.insert(
                    id,
                    TempState {
                        last_tick: self.tick,
                        pred_gap: cold,
                    },
                );
            }
        }
    }

    /// Whether `id`'s predicted re-reference interval clears the hot
    /// threshold.
    pub fn is_hot(&self, id: TraceId) -> bool {
        self.states
            .get(id)
            .is_some_and(|s| s.pred_gap <= self.hot_gap as f64)
    }

    /// Called by the manager when the hot verdict promoted a trace the
    /// policy alone would not have.
    pub fn note_hot_promotion(&mut self) {
        self.hot_promotions += 1;
    }

    /// Promotions attributable to the temperature signal alone.
    pub fn hot_promotions(&self) -> u64 {
        self.hot_promotions
    }
}

/// One generational configuration the adaptive controller can install:
/// a proportions triple plus a promotion policy, drawn from the §6
/// grid's vocabulary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Candidate {
    /// Nursery / probation / persistent split.
    pub proportions: Proportions,
    /// Probation→persistent promotion rule.
    pub policy: PromotionPolicy,
}

impl Candidate {
    /// A candidate from its two parts.
    pub fn new(proportions: Proportions, policy: PromotionPolicy) -> Self {
        Candidate {
            proportions,
            policy,
        }
    }

    /// The spec-grammar body for this candidate, e.g. `45-10-45@hit1` —
    /// the same grammar `simulate --spec gen-…` parses.
    pub fn label(&self) -> String {
        let policy = match self.policy {
            PromotionPolicy::OnHit { hits } => format!("hit{hits}"),
            PromotionPolicy::OnEviction { threshold } => format!("evict{threshold}"),
        };
        format!("{}@{policy}", self.proportions)
    }

    /// The concrete configuration over a total byte budget.
    pub fn config(&self, total_bytes: u64) -> GenerationalConfig {
        GenerationalConfig::new(total_bytes, self.proportions, self.policy)
    }
}

/// An ordered, inline (and therefore `Copy`) set of 1–[`MAX_CANDIDATES`]
/// candidates. Index 0 is the initial configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateSet {
    slots: [Candidate; MAX_CANDIDATES],
    len: u8,
}

impl CandidateSet {
    /// Builds a set from a non-empty slice of at most
    /// [`MAX_CANDIDATES`] candidates.
    pub fn new(candidates: &[Candidate]) -> Result<Self, String> {
        if candidates.is_empty() {
            return Err("adaptive spec needs at least one candidate".to_string());
        }
        if candidates.len() > MAX_CANDIDATES {
            return Err(format!(
                "adaptive spec allows at most {MAX_CANDIDATES} candidates, got {}",
                candidates.len()
            ));
        }
        // Unused slots repeat the first candidate so equal candidate
        // lists always compare equal.
        let mut slots = [candidates[0]; MAX_CANDIDATES];
        slots[..candidates.len()].copy_from_slice(candidates);
        Ok(CandidateSet {
            slots,
            len: candidates.len() as u8,
        })
    }

    /// The default audition roster, drawn from the §6 grid: the paper's
    /// best overall layout, the probation-heavy sweep point, and the
    /// nursery- and persistent-leaning corners of the proportion grid.
    pub fn default_set() -> Self {
        CandidateSet::new(&[
            Candidate::new(
                Proportions::best_overall(),
                PromotionPolicy::OnHit { hits: 1 },
            ),
            Candidate::new(
                Proportions::probation_heavy(),
                PromotionPolicy::OnEviction { threshold: 5 },
            ),
            Candidate::new(
                Proportions::new(0.60, 0.10, 0.30),
                PromotionPolicy::OnHit { hits: 1 },
            ),
            Candidate::new(
                Proportions::new(0.30, 0.10, 0.60),
                PromotionPolicy::OnEviction { threshold: 1 },
            ),
        ])
        .expect("default set is within bounds")
    }

    /// Number of candidates.
    #[allow(clippy::len_without_is_empty)] // a set is never empty
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// The candidates, in order.
    pub fn as_slice(&self) -> &[Candidate] {
        &self.slots[..self.len()]
    }

    /// The `i`-th candidate.
    pub fn get(&self, i: usize) -> Candidate {
        self.slots[..self.len()][i]
    }

    /// The candidate labels joined with `+` — the body of the
    /// `adaptive:<body>` spec grammar.
    pub fn body(&self) -> String {
        let labels: Vec<String> = self.as_slice().iter().map(Candidate::label).collect();
        labels.join("+")
    }

    /// The canonical spec label: `adaptive` for the default set,
    /// `adaptive:<body>` otherwise.
    pub fn label(&self) -> String {
        if *self == CandidateSet::default_set() {
            "adaptive".to_string()
        } else {
            format!("adaptive:{}", self.body())
        }
    }
}

/// What a [`SwitchRecord`] marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SwitchKind {
    /// A one-epoch audition install during a probe round.
    Probe,
    /// The end-of-round decision committing the winning candidate.
    Commit,
}

impl SwitchKind {
    /// snake_case display name.
    pub fn name(self) -> &'static str {
        match self {
            SwitchKind::Probe => "probe",
            SwitchKind::Commit => "commit",
        }
    }
}

impl std::fmt::Display for SwitchKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One controller decision, in epoch order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SwitchRecord {
    /// The epoch (since replay start) that closed when the decision was
    /// taken.
    pub epoch: u64,
    /// Probe install or committed decision.
    pub kind: SwitchKind,
    /// Candidate label active before the decision.
    pub from: String,
    /// Candidate label installed by the decision.
    pub to: String,
    /// The miss rate that drove the decision: the detection epoch's rate
    /// for the first probe, the previous audition's rate for later
    /// probes, the winner's audition rate for the commit.
    pub miss_rate: f64,
    /// The detector's EWMA baseline when the episode began.
    pub baseline: f64,
    /// Simulated clock of the access that closed the epoch, µs.
    pub time_us: u64,
}

/// The serializable account of an [`AdaptiveModel`] run: what the
/// controller saw, what it auditioned, and what it committed.
///
/// Reports merge associatively (counters add, records concatenate in
/// merge order), the same input-index-order contract every other report
/// type honors, so documents embedding them stay byte-identical for any
/// `--jobs` value.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SwitchReport {
    /// Controller epoch width, in accesses. 0 after merging reports
    /// with differing widths.
    pub epoch_accesses: u64,
    /// Completed epochs.
    pub epochs: u64,
    /// Drift detections that opened a probe round.
    pub drifts: u64,
    /// One-epoch audition installs.
    pub probes: u64,
    /// Commits that changed the active configuration relative to before
    /// the probe round.
    pub switches: u64,
    /// Promotions forced by the temperature signal alone.
    pub hot_promotions: u64,
    /// Every probe and commit, in epoch order.
    pub records: Vec<SwitchRecord>,
}

impl SwitchReport {
    /// Folds `other` after `self`. Merging in input-index order is
    /// deterministic for any job count.
    pub fn merge(&mut self, other: &SwitchReport) {
        if self.epochs == 0 {
            self.epoch_accesses = other.epoch_accesses;
        } else if other.epochs != 0 && self.epoch_accesses != other.epoch_accesses {
            self.epoch_accesses = 0;
        }
        self.epochs += other.epochs;
        self.drifts += other.drifts;
        self.probes += other.probes;
        self.switches += other.switches;
        self.hot_promotions += other.hot_promotions;
        self.records.extend(other.records.iter().cloned());
    }
}

#[derive(Debug)]
struct ProbeState {
    /// Candidate currently auditioning.
    current: usize,
    /// Audition miss rates, by candidate index.
    results: [f64; MAX_CANDIDATES],
    /// Active candidate before the round opened.
    pre_active: usize,
    /// Detector baseline when the round opened (for the records).
    detect_base: f64,
}

/// A [`CacheModel`] that hot-swaps among a [`CandidateSet`] of §6 grid
/// configurations at epoch boundaries, driven by the windowed drift
/// detector run online. See the module docs for the control loop.
#[derive(Debug)]
pub struct AdaptiveModel<O: Observer = NullObserver> {
    inner: GenerationalModel<O>,
    candidates: CandidateSet,
    total_bytes: u64,
    epoch_accesses: u64,
    active: usize,
    // Current-epoch accumulators.
    epoch: u64,
    in_epoch: u64,
    epoch_misses: u64,
    epoch_remisses: u64,
    /// Traces that have been resident at least once: a later miss on one
    /// of them is a re-miss (it must have left the hierarchy) — the same
    /// churn definition the window fold uses.
    ever_resident: TraceSet<TraceId>,
    // Detector state, mirroring `gencache_obs::detect_drift` epoch by
    // epoch with the same public constants.
    baseline: Option<f64>,
    up: f64,
    down: f64,
    churn_base: f64,
    probing: Option<ProbeState>,
    drifts: u64,
    probes: u64,
    switches: u64,
    records: Vec<SwitchRecord>,
}

impl AdaptiveModel {
    /// An uninstrumented adaptive model over `total_bytes`, starting on
    /// candidate 0.
    pub fn new(candidates: CandidateSet, total_bytes: u64) -> Self {
        AdaptiveModel::observed(candidates, total_bytes, NullObserver)
    }
}

impl<O: Observer> AdaptiveModel<O> {
    /// An adaptive model reporting every cache event — including
    /// [`CacheEvent::PolicySwap`] markers — to `observer`.
    pub fn observed(candidates: CandidateSet, total_bytes: u64, observer: O) -> Self {
        let config = candidates.get(0).config(total_bytes);
        AdaptiveModel {
            inner: GenerationalModel::observed(config, observer),
            candidates,
            total_bytes,
            epoch_accesses: DEFAULT_EPOCH_ACCESSES,
            active: 0,
            epoch: 0,
            in_epoch: 0,
            epoch_misses: 0,
            epoch_remisses: 0,
            ever_resident: TraceSet::new(),
            baseline: None,
            up: 0.0,
            down: 0.0,
            churn_base: 0.0,
            probing: None,
            drifts: 0,
            probes: 0,
            switches: 0,
            records: Vec::new(),
        }
    }

    /// Overrides the controller epoch width (minimum 1 access).
    pub fn with_epoch(mut self, epoch_accesses: u64) -> Self {
        self.epoch_accesses = epoch_accesses.max(1);
        self
    }

    /// The candidate set.
    pub fn candidates(&self) -> CandidateSet {
        self.candidates
    }

    /// Index of the active candidate.
    pub fn active(&self) -> usize {
        self.active
    }

    /// The wrapped generational model.
    pub fn inner(&self) -> &GenerationalModel<O> {
        &self.inner
    }

    /// The attached observer.
    pub fn observer(&self) -> &O {
        self.inner.observer()
    }

    /// The attached observer, mutably.
    pub fn observer_mut(&mut self) -> &mut O {
        self.inner.observer_mut()
    }

    /// Consumes the model, returning the observer.
    pub fn into_observer(self) -> O {
        self.inner.into_observer()
    }

    /// The controller's account of the run so far.
    pub fn switch_report(&self) -> SwitchReport {
        SwitchReport {
            epoch_accesses: self.epoch_accesses,
            epochs: self.epoch,
            drifts: self.drifts,
            probes: self.probes,
            switches: self.switches,
            hot_promotions: self.inner.temperature().map_or(0, |t| t.hot_promotions()),
            records: self.records.clone(),
        }
    }

    /// Installs candidate `to` for a one-epoch audition: flush + rebuild
    /// (cold-start fairness — every audition begins empty) plus the
    /// `PolicySwap` marker.
    fn install_probe(&mut self, to: usize, miss_rate: f64, baseline: f64, now: Time) {
        self.probes += 1;
        self.emit_swap(to, now);
        self.records.push(SwitchRecord {
            epoch: self.epoch,
            kind: SwitchKind::Probe,
            from: self.candidates.get(self.active).label(),
            to: self.candidates.get(to).label(),
            miss_rate,
            baseline,
            time_us: now.as_micros(),
        });
        self.inner
            .reconfigure(self.candidates.get(to).config(self.total_bytes), now);
        self.active = to;
    }

    fn emit_swap(&mut self, to: usize, now: Time) {
        if self.inner.observer().enabled() {
            let event = CacheEvent::PolicySwap {
                epoch: self.epoch,
                from: self.active as u8,
                to: to as u8,
                time: now,
            };
            self.inner.observer_mut().on_event(&event);
        }
    }

    /// Ends the probe round: commit the audition winner (ties to the
    /// lowest index). The winner keeps its warmed cache — only a
    /// *different* candidate needs a fresh install.
    fn commit(&mut self, probe: ProbeState, now: Time) {
        let n = self.candidates.len();
        let mut winner = 0;
        for i in 1..n {
            if probe.results[i] < probe.results[winner] {
                winner = i;
            }
        }
        self.records.push(SwitchRecord {
            epoch: self.epoch,
            kind: SwitchKind::Commit,
            from: self.candidates.get(self.active).label(),
            to: self.candidates.get(winner).label(),
            miss_rate: probe.results[winner],
            baseline: probe.detect_base,
            time_us: now.as_micros(),
        });
        if winner != self.active {
            self.emit_swap(winner, now);
            self.inner
                .reconfigure(self.candidates.get(winner).config(self.total_bytes), now);
            self.active = winner;
        }
        if winner != probe.pre_active {
            self.switches += 1;
        }
        // Fresh detector: the committed configuration sets a new
        // baseline from its own behavior.
        self.baseline = None;
        self.up = 0.0;
        self.down = 0.0;
        self.churn_base = 0.0;
    }

    /// Processes one closed epoch: advance a probe round, or run the
    /// drift detector and maybe open one.
    fn close_epoch(&mut self, now: Time) {
        let accesses = self.in_epoch;
        let misses = self.epoch_misses;
        let remisses = self.epoch_remisses as f64;
        self.in_epoch = 0;
        self.epoch_misses = 0;
        self.epoch_remisses = 0;
        let rate = misses as f64 / accesses as f64;
        self.epoch += 1;
        if self.candidates.len() < 2 {
            return;
        }

        if let Some(mut probe) = self.probing.take() {
            probe.results[probe.current] = rate;
            if probe.current + 1 < self.candidates.len() {
                probe.current += 1;
                let (to, base) = (probe.current, probe.detect_base);
                self.install_probe(to, rate, base, now);
                self.probing = Some(probe);
            } else {
                self.commit(probe, now);
            }
            return;
        }

        // Detector: identical fold to `detect_drift`, one epoch = one
        // window.
        let Some(base) = self.baseline else {
            self.baseline = Some(rate);
            self.churn_base = remisses;
            return;
        };
        self.up = (self.up + (rate - base - PH_DELTA)).max(0.0);
        self.down = (self.down + (base - rate - PH_DELTA)).max(0.0);
        let burst = remisses >= CHURN_MIN_REMISSES as f64
            && remisses >= CHURN_BURST_FACTOR * self.churn_base.max(1.0);
        let rose = self.up > PH_LAMBDA;
        let fell = self.down > PH_LAMBDA;
        if rose || burst {
            // Upward drift or a churn burst: open a probe round. The
            // first detection also arms the temperature signal.
            self.drifts += 1;
            if self.inner.temperature().is_none() {
                self.inner
                    .set_temperature(Some(TemperatureTracker::new(self.epoch_accesses)));
            }
            self.up = 0.0;
            self.down = 0.0;
            self.churn_base = remisses;
            let probe = ProbeState {
                current: 0,
                results: [f64::INFINITY; MAX_CANDIDATES],
                pre_active: self.active,
                detect_base: base,
            };
            self.install_probe(0, rate, base, now);
            self.probing = Some(probe);
            return;
        }
        if fell {
            // Recovery: things got better on their own — re-anchor, as
            // the post-hoc annotator does, but do not churn the cache.
            self.baseline = Some(rate);
            self.up = 0.0;
            self.down = 0.0;
            self.churn_base = remisses;
            return;
        }
        self.baseline = Some(base + EWMA_ALPHA * (rate - base));
        self.churn_base += EWMA_ALPHA * (remisses - self.churn_base);
    }
}

impl<O: Observer> CacheModel for AdaptiveModel<O> {
    fn name(&self) -> String {
        format!("adaptive({})", self.candidates.body())
    }

    fn on_access(&mut self, rec: TraceRecord, now: Time) -> AccessOutcome {
        let outcome = self.inner.on_access(rec, now);
        if matches!(outcome, AccessOutcome::Miss) {
            self.epoch_misses += 1;
            if self.ever_resident.contains(rec.id) {
                self.epoch_remisses += 1;
            } else if self.inner.generation_of(rec.id).is_some() {
                self.ever_resident.insert(rec.id);
            }
        }
        self.in_epoch += 1;
        if self.in_epoch >= self.epoch_accesses {
            self.close_epoch(now);
        }
        outcome
    }

    fn on_unmap(&mut self, id: TraceId, now: Time) -> bool {
        self.inner.on_unmap(id, now)
    }

    fn on_pin(&mut self, id: TraceId, pinned: bool, now: Time) -> bool {
        self.inner.on_pin(id, pinned, now)
    }

    fn metrics(&self) -> &ModelMetrics {
        self.inner.metrics()
    }

    fn ledger(&self) -> &CostLedger {
        self.inner.ledger()
    }

    fn resident_bytes(&self) -> u64 {
        self.inner.resident_bytes()
    }

    fn capacity_bytes(&self) -> u64 {
        self.inner.capacity_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Addr;

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1_0000 + id * 0x100))
    }

    #[test]
    fn candidate_labels_match_spec_grammar() {
        let c = Candidate::new(
            Proportions::best_overall(),
            PromotionPolicy::OnHit { hits: 1 },
        );
        assert_eq!(c.label(), "45-10-45@hit1");
        let c = Candidate::new(
            Proportions::probation_heavy(),
            PromotionPolicy::OnEviction { threshold: 5 },
        );
        assert_eq!(c.label(), "25-50-25@evict5");
    }

    #[test]
    fn candidate_set_bounds_and_labels() {
        let one = Candidate::new(
            Proportions::even_thirds(),
            PromotionPolicy::OnHit { hits: 1 },
        );
        assert!(CandidateSet::new(&[]).is_err());
        assert!(CandidateSet::new(&vec![one; MAX_CANDIDATES + 1]).is_err());
        let set = CandidateSet::new(&[one]).unwrap();
        assert_eq!(set.label(), "adaptive:33-33-33@hit1");
        assert_eq!(CandidateSet::default_set().label(), "adaptive");
        // Equal candidate lists compare equal regardless of construction.
        assert_eq!(
            CandidateSet::new(CandidateSet::default_set().as_slice()).unwrap(),
            CandidateSet::default_set()
        );
    }

    #[test]
    fn stationary_stream_never_switches_and_matches_static() {
        let total = 3000u64;
        let set = CandidateSet::default_set();
        let mut adaptive = AdaptiveModel::new(set, total).with_epoch(64);
        let mut fixed = GenerationalModel::new(set.get(0).config(total));
        // A stable loop over a small working set: hits forever.
        for i in 0..50_000u64 {
            let id = i % 8;
            let t = Time::from_micros(i);
            adaptive.on_access(rec(id, 200), t);
            fixed.on_access(rec(id, 200), t);
        }
        let report = adaptive.switch_report();
        assert_eq!(report.drifts, 0, "stationary stream must not drift");
        assert_eq!(report.probes, 0);
        assert_eq!(report.switches, 0);
        assert!(report.records.is_empty());
        assert_eq!(adaptive.metrics(), fixed.metrics());
        assert_eq!(adaptive.ledger(), fixed.ledger());
    }

    #[test]
    fn phase_shift_triggers_probe_round_and_commit() {
        let total = 4_000u64;
        let set = CandidateSet::default_set();
        let mut m = AdaptiveModel::new(set, total).with_epoch(64);
        let mut clock = 0u64;
        // Phase 1: a calm, hitting working set to seed a low baseline.
        for i in 0..2_000u64 {
            m.on_access(rec(i % 4, 200), Time::from_micros(clock));
            clock += 1;
        }
        // Phase 2: a churning stream far over capacity — the miss rate
        // steps up hard.
        for i in 0..4_000u64 {
            m.on_access(rec(100 + (i % 64), 400), Time::from_micros(clock));
            clock += 1;
        }
        let report = m.switch_report();
        assert!(report.drifts >= 1, "drift must fire: {report:?}");
        assert_eq!(
            report.probes,
            report.drifts * set.len() as u64,
            "every drift auditions every candidate: {report:?}"
        );
        let commits = report
            .records
            .iter()
            .filter(|r| r.kind == SwitchKind::Commit)
            .count() as u64;
        assert_eq!(commits, report.drifts);
        // The controller armed the temperature signal at first drift.
        assert!(m.inner().temperature().is_some());
    }

    #[test]
    fn switch_report_merges_like_other_reports() {
        let mut a = SwitchReport {
            epoch_accesses: 256,
            epochs: 4,
            drifts: 1,
            probes: 4,
            switches: 1,
            hot_promotions: 2,
            records: vec![],
        };
        let b = SwitchReport {
            epoch_accesses: 256,
            epochs: 2,
            ..SwitchReport::default()
        };
        a.merge(&b);
        assert_eq!((a.epochs, a.epoch_accesses), (6, 256));
        let mixed = SwitchReport {
            epoch_accesses: 128,
            epochs: 1,
            ..SwitchReport::default()
        };
        a.merge(&mixed);
        assert_eq!(a.epoch_accesses, 0, "width conflict zeroes the field");
    }

    #[test]
    fn temperature_tracker_learns_hot_traces() {
        let mut t = TemperatureTracker::new(8);
        let hot = TraceId::new(1);
        let cold = TraceId::new(2);
        for i in 0..32 {
            t.observe(hot);
            if i % 16 == 0 {
                t.observe(cold);
            }
        }
        assert!(t.is_hot(hot), "short gaps must read hot");
        assert!(!t.is_hot(cold), "long gaps must stay cold");
    }
}
