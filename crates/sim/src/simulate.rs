//! Offline what-if simulation: driving hypothetical cache
//! configurations from a frontend trace recovered out of an exported
//! event stream.
//!
//! The paper's methodology records the frontend once and replays it
//! into every layout under study; the event export preserves that
//! frontend stream (including [`Noop`](gencache_obs::CacheEvent::Noop)
//! records for requests the recorded layout could not honor), so the
//! `simulate` tool can answer "what would the miss rate and Table 2
//! Minstr have been under layout X?" without re-recording. This module
//! is the engine behind it: the recovered stream is a list of the same
//! [`LogRecord`](gencache_cache::LogRecord)s the recorder writes, so it
//! replays as an [`AccessLog`]; [`SimSpec`] names any
//! configuration — unified, generational with arbitrary proportions and
//! promotion rule, one of the local replacement policies, or the
//! adaptive engine — and [`simulate_cell`] replays one (log, spec) cell
//! **once**, teeing every requested report section onto that single
//! model instance, to produce the same [`SpecReports`] the live export
//! path emits.

use gencache_cache::{
    ClockCache, CodeCache, FlushCache, LruCache, PhaseDetector, PreemptiveFlushCache,
    PseudoCircularCache, UnboundedCache,
};
use gencache_core::{
    AdaptiveModel, CacheModel, Candidate, CandidateSet, GenerationalConfig, GenerationalModel,
    PromotionPolicy, Proportions, SwitchReport, UnifiedModel,
};
use gencache_obs::{
    CostObserver, CostReport, MetricsObserver, MetricsReport, NextUseIndex, NullObserver, Observer,
    RegretObserver, RegretReport, SampledReport, SamplingObserver, SamplingParams, WindowObserver,
    WindowReport,
};
use serde::{Deserialize, Entries, Serialize, Value};

use crate::recording::Recording;
use crate::replay::ReplayResult;

/// A local replacement policy evaluated inside the unified-model cost
/// accounting (the Section 4 ablation set).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalPolicy {
    /// FIFO around a circular buffer (the paper's default).
    PseudoCircular,
    /// Least-recently-used.
    Lru,
    /// CLOCK second-chance.
    Clock,
    /// Flush everything when full.
    FlushOnFull,
    /// Flush on detected phase change.
    PreemptiveFlush,
    /// No bound at all (never misses after creation).
    Unbounded,
}

impl LocalPolicy {
    /// All six policies, in display order.
    pub const ALL: [LocalPolicy; 6] = [
        LocalPolicy::PseudoCircular,
        LocalPolicy::Lru,
        LocalPolicy::Clock,
        LocalPolicy::FlushOnFull,
        LocalPolicy::PreemptiveFlush,
        LocalPolicy::Unbounded,
    ];

    /// The policy's spec-label name.
    pub fn name(self) -> &'static str {
        match self {
            LocalPolicy::PseudoCircular => "pseudo-circular",
            LocalPolicy::Lru => "lru",
            LocalPolicy::Clock => "clock",
            LocalPolicy::FlushOnFull => "flush-on-full",
            LocalPolicy::PreemptiveFlush => "preemptive-flush",
            LocalPolicy::Unbounded => "unbounded",
        }
    }

    /// Builds the policy's cache at `capacity` bytes (ignored by
    /// [`LocalPolicy::Unbounded`]).
    pub fn build(self, capacity: u64) -> Box<dyn CodeCache> {
        match self {
            LocalPolicy::PseudoCircular => Box::new(PseudoCircularCache::new(capacity)),
            LocalPolicy::Lru => Box::new(LruCache::new(capacity)),
            LocalPolicy::Clock => Box::new(ClockCache::new(capacity)),
            LocalPolicy::FlushOnFull => Box::new(FlushCache::new(capacity)),
            LocalPolicy::PreemptiveFlush => Box::new(PreemptiveFlushCache::new(
                capacity,
                PhaseDetector::default(),
            )),
            LocalPolicy::Unbounded => Box::new(UnboundedCache::new()),
        }
    }
}

/// One hypothetical configuration the simulator can drive.
// The Adaptive variant inlines its fixed-size candidate roster because
// SimSpec must stay Copy for the par_map fan-out; boxing would lose that.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SimSpec {
    /// The unified pseudo-circular baseline.
    Unified,
    /// A generational hierarchy over the same total budget.
    Generational {
        /// Nursery/probation/persistent split of the budget.
        proportions: Proportions,
        /// When probation traces are promoted.
        policy: PromotionPolicy,
    },
    /// A local replacement policy in unified cost accounting.
    Local(LocalPolicy),
    /// The adaptive policy engine auditioning a candidate set of
    /// generational configurations online.
    Adaptive(CandidateSet),
}

impl SimSpec {
    /// The paper's best-overall generational configuration:
    /// 45%–10%–45% with promotion on first probation hit.
    pub fn best_generational() -> Self {
        SimSpec::Generational {
            proportions: Proportions::best_overall(),
            policy: PromotionPolicy::OnHit { hits: 1 },
        }
    }

    /// The canonical label for this spec — the same strings the live
    /// `--events-out` / `--metrics-out` exports use for their model
    /// sections, so simulated and recorded documents line up.
    pub fn label(&self) -> String {
        match *self {
            SimSpec::Unified => "unified".to_string(),
            SimSpec::Generational {
                proportions,
                policy,
            } => format!("gen-{proportions}@{}", policy_label(policy)),
            SimSpec::Local(policy) => policy.name().to_string(),
            SimSpec::Adaptive(set) => set.label(),
        }
    }
}

fn policy_label(policy: PromotionPolicy) -> String {
    match policy {
        PromotionPolicy::OnHit { hits } => format!("hit{hits}"),
        PromotionPolicy::OnEviction { threshold } => format!("evict{threshold}"),
    }
}

/// Parses a spec label back into a [`SimSpec`].
///
/// Accepted forms:
///
/// * `unified` — the pseudo-circular unified baseline;
/// * a local policy name (`lru`, `clock`, `flush-on-full`,
///   `preemptive-flush`, `pseudo-circular`, `unbounded`);
/// * `N-P-S@POLICY` (optionally prefixed `gen-`) — a generational
///   hierarchy splitting the budget N%/P%/S% (normalized, so `33-33-33`
///   means exact thirds) with promotion rule `hitK` or `evictK`, e.g.
///   `45-10-45@hit1` or `gen-30-20-50@evict5`;
/// * `adaptive` — the adaptive policy engine over its default §6
///   candidate roster;
/// * `adaptive:BODY+BODY+…` — the adaptive engine over an explicit
///   candidate list, each `BODY` an `N-P-S@POLICY` form as above (up to
///   [`gencache_core::MAX_CANDIDATES`]), index 0 initial, e.g.
///   `adaptive:45-10-45@hit1+25-50-25@evict5`.
pub fn parse_spec(label: &str) -> Result<SimSpec, String> {
    if label == "unified" {
        return Ok(SimSpec::Unified);
    }
    if let Some(policy) = LocalPolicy::ALL.iter().find(|p| p.name() == label) {
        return Ok(SimSpec::Local(*policy));
    }
    if label == "adaptive" {
        return Ok(SimSpec::Adaptive(CandidateSet::default_set()));
    }
    if let Some(list) = label.strip_prefix("adaptive:") {
        let candidates: Vec<Candidate> = list
            .split('+')
            .map(|body| {
                let (proportions, policy) = parse_gen_body(label, body)?;
                Ok(Candidate::new(proportions, policy))
            })
            .collect::<Result<_, String>>()?;
        return CandidateSet::new(&candidates).map(SimSpec::Adaptive);
    }
    let body = label.strip_prefix("gen-").unwrap_or(label);
    let (proportions, policy) = parse_gen_body(label, body)?;
    Ok(SimSpec::Generational {
        proportions,
        policy,
    })
}

/// Parses one `N-P-S@POLICY` body (shared by the `gen-` and
/// `adaptive:` grammars); `label` is only for error messages.
fn parse_gen_body(label: &str, body: &str) -> Result<(Proportions, PromotionPolicy), String> {
    let (props, policy) = body
        .split_once('@')
        .ok_or_else(|| format!("spec {label:?} is not unified, a local policy, or N-P-S@POLICY"))?;
    let parts: Vec<f64> = props
        .split('-')
        .map(|s| {
            s.parse::<f64>()
                .map_err(|_| format!("bad proportion {s:?} in spec {label:?}"))
        })
        .collect::<Result<_, _>>()?;
    let [nursery, probation, persistent] = parts[..] else {
        return Err(format!(
            "spec {label:?} needs exactly three proportions, got {}",
            parts.len()
        ));
    };
    if nursery < 0.0 || probation < 0.0 || persistent < 0.0 {
        return Err(format!("negative proportion in spec {label:?}"));
    }
    let sum = nursery + probation + persistent;
    if sum <= 0.0 {
        return Err(format!("zero-sum proportions in spec {label:?}"));
    }
    let proportions = Proportions::new(nursery / sum, probation / sum, persistent / sum);
    let policy = if let Some(hits) = policy.strip_prefix("hit") {
        PromotionPolicy::OnHit {
            hits: hits
                .parse()
                .map_err(|_| format!("bad hit count in spec {label:?}"))?,
        }
    } else if let Some(threshold) = policy.strip_prefix("evict") {
        PromotionPolicy::OnEviction {
            threshold: threshold
                .parse()
                .map_err(|_| format!("bad eviction threshold in spec {label:?}"))?,
        }
    } else {
        return Err(format!(
            "unknown promotion rule {policy:?} in spec {label:?}; use hitK or evictK"
        ));
    };
    Ok((proportions, policy))
}

/// Replays `rec` into the configuration named by `spec` over an explicit
/// `capacity` budget with `observer` attached — the one spec→model
/// mapping every replay entry point shares.
/// Returns the replay outcome, the observer, and (adaptive specs only)
/// the controller's switch report, read from the same model instance.
pub fn replay_spec<R: Recording, O: Observer>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    observer: O,
) -> (ReplayResult, O, Option<SwitchReport>) {
    let drive = |model: &mut dyn CacheModel| rec.drive(&mut [model]);
    match spec {
        SimSpec::Unified => {
            let mut model = UnifiedModel::observed(capacity, observer);
            drive(&mut model);
            (ReplayResult::of(&model), model.into_observer(), None)
        }
        SimSpec::Generational {
            proportions,
            policy,
        } => {
            let config = GenerationalConfig::new(capacity, proportions, policy);
            let mut model = GenerationalModel::observed(config, observer);
            drive(&mut model);
            (ReplayResult::of(&model), model.into_observer(), None)
        }
        SimSpec::Local(policy) => {
            let mut model =
                UnifiedModel::with_cache_observed(policy.name(), policy.build(capacity), observer);
            drive(&mut model);
            (ReplayResult::of(&model), model.into_observer(), None)
        }
        SimSpec::Adaptive(set) => {
            let mut model = AdaptiveModel::observed(set, capacity, observer);
            drive(&mut model);
            let switches = model.switch_report();
            (
                ReplayResult::of(&model),
                model.into_observer(),
                Some(switches),
            )
        }
    }
}

/// Replays `rec` into the configuration named by `spec` over an
/// explicit `capacity` budget, with `observer` attached.
///
/// At the recording's [`capacity`](Recording::capacity) — the paper's
/// standard rule — this is behaviorally identical to the live export
/// path's replay, which is what makes simulated reports comparable
/// byte-for-byte.
pub fn replay_sim_observed<R: Recording, O: Observer>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    observer: O,
) -> (ReplayResult, O) {
    let (result, observer, _) = replay_spec(rec, spec, capacity, observer);
    (result, observer)
}

/// [`replay_sim_observed`] at the paper's standard budget, half the
/// unbounded peak: the budget of the live export path.
pub fn replay_observed<R: Recording, O: Observer>(
    rec: &R,
    spec: SimSpec,
    observer: O,
) -> (ReplayResult, O) {
    replay_sim_observed(rec, spec, rec.capacity(), observer)
}

/// Replays an adaptive spec and returns the controller's account of the
/// run — epochs, drift detections, probe auditions and committed
/// switches. Returns `None` for non-adaptive specs, which have no
/// controller to narrate.
pub fn simulate_switches<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
) -> Option<SwitchReport> {
    let SimSpec::Adaptive(_) = spec else {
        return None;
    };
    replay_spec(rec, spec, capacity, NullObserver).2
}

// The section wrappers below replay once per section. `simulate_cell`
// produces every section from a single replay; these remain as the
// per-section references it is tested against.

/// [`replay_sim_observed`] through a [`MetricsObserver`] sampling the
/// occupancy timeline every `sample_every` accesses (0 disables it).
pub fn simulate_metrics<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    sample_every: u64,
) -> (ReplayResult, MetricsReport) {
    let (result, observer) = replay_sim_observed(
        rec,
        spec,
        capacity,
        MetricsObserver::with_timeline(sample_every),
    );
    (result, observer.report())
}

/// [`replay_sim_observed`] through a [`CostObserver`] with
/// phase-bucketed Table 2 attribution.
pub fn simulate_costs<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    phases: u32,
) -> (ReplayResult, CostReport) {
    let observer = CostObserver::with_phases(phases, rec.duration().as_micros());
    let (result, observer) = replay_sim_observed(rec, spec, capacity, observer);
    (result, observer.into_report())
}

/// [`replay_sim_observed`] through a [`RegretObserver`]: every eviction
/// the configuration makes is scored against the Belady alternative the
/// `index` (built over the same frontend trace the log came from)
/// identifies, with the same phase bucketing as [`simulate_costs`]. The
/// report keeps the `top` highest-regret traces (the default cap is
/// [`TOP_REGRET`](gencache_obs::TOP_REGRET)).
pub fn simulate_regret_top<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    phases: u32,
    index: &NextUseIndex,
    top: usize,
) -> (ReplayResult, RegretReport) {
    let observer = RegretObserver::with_top(index, phases, rec.duration().as_micros(), top);
    let (result, observer) = replay_sim_observed(rec, spec, capacity, observer);
    (result, observer.report())
}

/// [`replay_sim_observed`] through a [`WindowObserver`]: the event
/// stream folded into fixed access-count windows with drift
/// annotations. `window_accesses` is the window width; using the same
/// ~64-sample interval rule as the timeline keeps the series
/// deterministic and reproducible offline.
pub fn simulate_windows<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    window_accesses: u64,
) -> (ReplayResult, WindowReport) {
    let (result, observer) =
        replay_sim_observed(rec, spec, capacity, WindowObserver::new(window_accesses));
    (result, observer.report())
}

/// One configuration's report sections, as they appear under its label
/// in a metrics document: exact aggregates, the Table 2 cost
/// attribution, and the optional sections. Optional sections are
/// emitted only when present, so documents produced without them keep
/// their exact bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SpecReports {
    /// The aggregated metrics report.
    pub metrics: MetricsReport,
    /// The Table 2 cost attribution.
    pub costs: CostReport,
    /// The bounded-memory sampled report (`--sample`).
    pub sampled: Option<SampledReport>,
    /// Decision-level Belady-regret attribution (`--oracle`).
    pub regret: Option<RegretReport>,
    /// Windowed time-series telemetry with drift annotations
    /// (`--windows`).
    pub windows: Option<WindowReport>,
    /// The adaptive controller's switch narrative (adaptive specs only).
    pub switches: Option<SwitchReport>,
}

impl SpecReports {
    /// The two required sections, with every optional section absent.
    pub fn new(metrics: MetricsReport, costs: CostReport) -> Self {
        SpecReports {
            metrics,
            costs,
            sampled: None,
            regret: None,
            windows: None,
            switches: None,
        }
    }

    /// The suite-level accumulator every document starts from: empty
    /// metrics, single-phase costs, no optional sections.
    pub fn suite() -> Self {
        SpecReports::new(MetricsReport::new(), CostReport::new(1))
    }

    /// Folds `other` into `self`. An optional section present only in
    /// `other` is adopted as-is.
    pub fn merge(&mut self, other: &SpecReports) {
        fn merge_opt<T: Clone>(into: &mut Option<T>, from: &Option<T>, merge: fn(&mut T, &T)) {
            if let Some(from) = from {
                match into {
                    None => *into = Some(from.clone()),
                    Some(into) => merge(into, from),
                }
            }
        }
        self.metrics.merge(&other.metrics);
        self.costs.merge(&other.costs);
        merge_opt(&mut self.sampled, &other.sampled, SampledReport::merge);
        merge_opt(&mut self.regret, &other.regret, RegretReport::merge);
        merge_opt(&mut self.windows, &other.windows, WindowReport::merge);
        merge_opt(&mut self.switches, &other.switches, SwitchReport::merge);
    }

    /// The document section's entries: `metrics`, `costs`, then
    /// whichever of `sampled`, `regret`, `windows`, `switches` are
    /// present, in that order.
    fn entries(&self) -> Entries<'_> {
        let mut entries: Vec<(&str, &dyn Serialize)> =
            vec![("metrics", &self.metrics), ("costs", &self.costs)];
        let optional: [(&str, Option<&dyn Serialize>); 4] = [
            (
                "sampled",
                self.sampled.as_ref().map(|s| s as &dyn Serialize),
            ),
            ("regret", self.regret.as_ref().map(|s| s as &dyn Serialize)),
            (
                "windows",
                self.windows.as_ref().map(|s| s as &dyn Serialize),
            ),
            (
                "switches",
                self.switches.as_ref().map(|s| s as &dyn Serialize),
            ),
        ];
        entries.extend(
            optional
                .into_iter()
                .filter_map(|(key, section)| Some((key, section?))),
        );
        Entries(entries)
    }

    /// Parses a section written by [`SpecReports`]' [`Serialize`] impl.
    ///
    /// # Errors
    ///
    /// Returns `no metrics` / `no costs` when a required section is
    /// missing and `bad KEY: …` when a section fails to deserialize.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        fn field<'v>(value: &'v Value, key: &str) -> Option<&'v Value> {
            value
                .as_object()?
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
        }
        fn parse<T: Deserialize>(value: &Value, key: &str) -> Result<Option<T>, String> {
            field(value, key)
                .map(|v| T::from_value(v).map_err(|e| format!("bad {key}: {e}")))
                .transpose()
        }
        let metrics = parse(value, "metrics")?.ok_or("no metrics")?;
        let costs = parse(value, "costs")?.ok_or("no costs")?;
        Ok(SpecReports {
            metrics,
            costs,
            sampled: parse(value, "sampled")?,
            regret: parse(value, "regret")?,
            windows: parse(value, "windows")?,
            switches: parse(value, "switches")?,
        })
    }
}

/// The document section under a spec's label: the writer emits
/// `metrics` and `costs`, then `sampled`, `regret`, `windows` and
/// `switches` when present, straight to text; the tree has the same
/// entries.
impl Serialize for SpecReports {
    fn to_value(&self) -> Value {
        self.entries().to_value()
    }

    fn write_json(&self, out: &mut String) {
        self.entries().write_json(out);
    }
}

/// One simulated configuration's full outcome.
#[derive(Debug, Clone)]
pub struct SimulatedSpec {
    /// Canonical spec label (see [`SimSpec::label`]).
    pub label: String,
    /// Replay counters and management-cost ledger.
    pub result: ReplayResult,
    /// The report sections, identical in shape to the live
    /// `--metrics-out` sections. `sampled`, `regret` and `windows` are
    /// present only when [`CellSections`] asked for them, `switches`
    /// only for [`SimSpec::Adaptive`] specs.
    pub reports: SpecReports,
}

/// Which report sections [`simulate_cell`] produces, and their knobs.
#[derive(Debug, Clone, Copy)]
pub struct CellSections<'a> {
    /// Occupancy-timeline sampling stride for the metrics section.
    pub sample_every: u64,
    /// Phase count for cost and regret attribution.
    pub phases: u32,
    /// Also fold a bounded-memory sampled report with these knobs.
    pub sampling: Option<SamplingParams>,
    /// Score every eviction for Belady regret against this next-use
    /// index, keeping this many top contributors.
    pub regret: Option<(&'a NextUseIndex, usize)>,
    /// Fold the event stream into windows of this many accesses.
    pub window_width: Option<u64>,
}

/// Replays `rec` into `spec` **once** at `capacity` and produces every
/// section `sections` asks for from that single pass: the metrics,
/// sampled, cost, regret and window observers are teed onto one model
/// instance, and an adaptive spec's switch report is read from the same
/// model. The recording's duration spans the cost and regret phases.
/// This is the one place a cell's observers and its [`SpecReports`] are
/// built, for the offline simulator and the live `--metrics-out` export
/// alike. Observers are passive, so each section is identical to its
/// separate single-section replay ([`simulate_metrics`],
/// [`simulate_costs`], [`simulate_regret_top`], [`simulate_windows`],
/// [`simulate_switches`]).
pub fn simulate_cell<R: Recording>(
    rec: &R,
    spec: SimSpec,
    capacity: u64,
    sections: &CellSections<'_>,
) -> SimulatedSpec {
    let duration_us = rec.duration().as_micros();
    let observer = (
        (
            MetricsObserver::with_timeline(sections.sample_every),
            sections
                .sampling
                .map(|p| SamplingObserver::with_timeline(p, sections.sample_every)),
        ),
        (
            CostObserver::with_phases(sections.phases, duration_us),
            (
                sections.regret.map(|(index, top)| {
                    RegretObserver::with_top(index, sections.phases, duration_us, top)
                }),
                sections.window_width.map(WindowObserver::new),
            ),
        ),
    );
    let (result, ((metrics, sampled), (costs, (regret, windows))), switches) =
        replay_spec(rec, spec, capacity, observer);
    SimulatedSpec {
        label: spec.label(),
        result,
        reports: SpecReports {
            sampled: sampled.map(|s| s.report()),
            regret: regret.map(|r| r.report()),
            windows: windows.map(|w| w.report()),
            switches,
            ..SpecReports::new(metrics.report(), costs.into_report())
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::AccessLog;
    use gencache_cache::{LogRecord, TraceId, TraceRecord};
    use gencache_obs::EventBuffer;
    use gencache_program::{Addr, Time};

    /// Ten 120-byte traces accessed round-robin for 30 rounds.
    fn churn_log(name: &str, seed: u64) -> AccessLog {
        let rec = |id: u64| TraceRecord::new(TraceId::new(id), 120, Addr::new(0x1000 + id));
        let mut records = Vec::new();
        let mut t = 0u64;
        for id in 0..10 {
            t += 1;
            records.push(LogRecord::Create {
                record: rec(seed * 1000 + id),
                time: Time::from_micros(t),
            });
        }
        for round in 0..30u64 {
            for id in 0..10 {
                t += 1;
                records.push(LogRecord::Access {
                    id: TraceId::new(seed * 1000 + (id + round) % 10),
                    time: Time::from_micros(t),
                });
            }
        }
        AccessLog {
            benchmark: name.into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 10 * 120,
        }
    }

    #[test]
    fn metrics_agree_with_model_counters() {
        let log = churn_log("agree", 1);
        for spec in [SimSpec::Unified, SimSpec::best_generational()] {
            let (result, metrics) = replay_observed(&log, spec, MetricsObserver::new());
            let report = metrics.report();
            assert_eq!(report.accesses, result.metrics.accesses);
            assert_eq!(report.hits, result.metrics.hits);
            assert_eq!(report.misses, result.metrics.misses);
        }
    }

    #[test]
    fn events_and_metrics_describe_the_same_run() {
        let log = churn_log("same", 2);
        let spec = SimSpec::best_generational();
        let (_, buffer) = replay_observed(&log, spec, EventBuffer::new());
        let mut replayed = MetricsObserver::with_timeline(16);
        for event in &buffer.events {
            replayed.on_event(event);
        }
        let (_, direct) = replay_observed(&log, spec, MetricsObserver::with_timeline(16));
        assert_eq!(replayed.report(), direct.report());
    }

    #[test]
    fn cost_report_total_equals_model_ledger() {
        let log = churn_log("cost", 4);
        for spec in [SimSpec::Unified, SimSpec::best_generational()] {
            let observer = CostObserver::with_phases(8, log.duration.as_micros());
            let (result, costs) = replay_observed(&log, spec, observer);
            let report = costs.into_report();
            // Same formulas, charged in the same order: bitwise equal.
            assert_eq!(report.total, result.ledger);
            let phase_events: u64 = report.phases.iter().map(|p| p.ledger.miss_events).sum();
            assert_eq!(phase_events, result.ledger.miss_events);
        }
    }

    #[test]
    fn sampled_counters_match_unsampled_metrics() {
        let log = churn_log("sampled", 5);
        let observer = (
            MetricsObserver::new(),
            SamplingObserver::new(SamplingParams::bounded(17)),
        );
        let (_, (exact, sampled)) = replay_observed(&log, SimSpec::best_generational(), observer);
        let (exact, sampled) = (exact.report(), sampled.report());
        assert_eq!(sampled.metrics.accesses, exact.accesses);
        assert_eq!(sampled.metrics.hits, exact.hits);
        assert_eq!(sampled.metrics.misses, exact.misses);
    }

    #[test]
    fn spec_labels_roundtrip() {
        let specs = [
            SimSpec::Unified,
            SimSpec::best_generational(),
            SimSpec::Generational {
                proportions: Proportions::new(0.30, 0.20, 0.50),
                policy: PromotionPolicy::OnEviction { threshold: 5 },
            },
            SimSpec::Local(LocalPolicy::Lru),
            SimSpec::Local(LocalPolicy::PreemptiveFlush),
            SimSpec::Adaptive(CandidateSet::default_set()),
            SimSpec::Adaptive(
                CandidateSet::new(&[
                    Candidate::new(
                        Proportions::best_overall(),
                        PromotionPolicy::OnHit { hits: 1 },
                    ),
                    Candidate::new(
                        Proportions::probation_heavy(),
                        PromotionPolicy::OnEviction { threshold: 5 },
                    ),
                ])
                .unwrap(),
            ),
        ];
        for spec in specs {
            let label = spec.label();
            let back = parse_spec(&label).unwrap();
            assert_eq!(back, spec, "label {label}");
        }
        assert_eq!(
            SimSpec::Adaptive(CandidateSet::default_set()).label(),
            "adaptive",
            "the default roster canonicalizes to the bare spec name"
        );
        assert_eq!(
            SimSpec::best_generational().label(),
            "gen-45-10-45@hit1",
            "must match the live export's model label"
        );
    }

    #[test]
    fn parsed_proportions_match_literals_bitwise() {
        // Byte-for-byte comparability hinges on parsed proportions being
        // the exact doubles the grid constructors produce.
        match parse_spec("45-10-45@hit1").unwrap() {
            SimSpec::Generational { proportions, .. } => {
                assert_eq!(proportions, Proportions::best_overall());
            }
            other => panic!("unexpected {other:?}"),
        }
        match parse_spec("33-33-33@evict10").unwrap() {
            SimSpec::Generational { proportions, .. } => {
                assert_eq!(proportions, Proportions::even_thirds());
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn bad_specs_error() {
        for bad in [
            "gen-45-10@hit1",
            "45-10-45",
            "45-10-45@promote1",
            "45-x-45@hit1",
            "0-0-0@hit1",
            "mystery",
        ] {
            assert!(parse_spec(bad).is_err(), "{bad:?} should not parse");
        }
    }

    /// A frontend trace every spec class deletes on: a calm phase over
    /// a small working set; a loop that fits the 60% nursery of the
    /// default adaptive roster's third candidate but thrashes its
    /// initial 45-10-45 layout, so the controller drifts, auditions and
    /// switches; then churn far over the budget. Periodic unmaps make
    /// even the unbounded policy delete.
    fn phased_log() -> AccessLog {
        let mut records = vec![];
        let mut live = std::collections::HashSet::new();
        for i in 0..12_000u64 {
            let (id, bytes) = match i {
                0..4_000 => (i % 4, 200),
                4_000..8_000 => (10 + i % 11, 200),
                _ => (100 + i % 64, 400),
            };
            let (id, time) = (TraceId::new(id), Time::from_micros(i));
            if live.insert(id) {
                let record = TraceRecord::new(id, bytes, Addr::new(id.as_u64()));
                records.push(LogRecord::Create { record, time });
            } else {
                records.push(LogRecord::Access { id, time });
            }
            if i % 700 == 699 {
                live.remove(&id);
                records.push(LogRecord::Invalidate { id, time });
            }
        }
        AccessLog {
            benchmark: "phased".into(),
            records,
            duration: Time::from_micros(12_000),
            peak_trace_bytes: 8_000,
        }
    }

    #[test]
    fn one_pass_cell_equals_the_section_replays() {
        let log = phased_log();
        let index = NextUseIndex::build(&log.records);
        let (capacity, every, phases, width, top) = (4_000, 64, 4, 128, 8);
        let params = SamplingParams::bounded(3);
        let sections = CellSections {
            sample_every: every,
            phases,
            sampling: Some(params),
            regret: Some((&index, top)),
            window_width: Some(width),
        };
        let mut classes: Vec<&str> = vec!["unified", "45-10-45@hit1", "adaptive"];
        classes.extend(LocalPolicy::ALL.iter().map(|p| p.name()));
        for label in classes {
            let spec = parse_spec(label).unwrap();
            let cell = simulate_cell(&log, spec, capacity, &sections);
            let reports = &cell.reports;
            let (result, metrics) = simulate_metrics(&log, spec, capacity, every);
            assert_eq!(cell.label, spec.label());
            assert_eq!(cell.result.model, result.model, "{label} model");
            assert_eq!(cell.result.metrics, result.metrics, "{label} counters");
            assert_eq!(cell.result.ledger, result.ledger, "{label} ledger");
            assert_eq!(reports.metrics, metrics, "{label} metrics");
            let costs = simulate_costs(&log, spec, capacity, phases).1;
            assert_eq!(reports.costs, costs, "{label} costs");
            let regret = simulate_regret_top(&log, spec, capacity, phases, &index, top).1;
            assert_eq!(reports.regret, Some(regret), "{label} regret");
            let windows = simulate_windows(&log, spec, capacity, width).1;
            assert_eq!(reports.windows, Some(windows), "{label} windows");
            let switches = simulate_switches(&log, spec, capacity);
            assert_eq!(reports.switches, switches, "{label} switches");
            let sampler = SamplingObserver::with_timeline(params, every);
            let (_, sampler) = replay_sim_observed(&log, spec, capacity, sampler);
            assert_eq!(reports.sampled, Some(sampler.report()), "{label} sampled");

            let deletions: u64 = metrics
                .regions
                .iter()
                .map(|r| r.capacity_evictions + r.unmap_evictions + r.flush_evictions)
                .sum();
            assert!(deletions > 0, "{label} must delete traces");
            assert_eq!(switches.is_some(), label == "adaptive");
            if let Some(report) = &switches {
                assert!(
                    report.switches >= 1,
                    "adaptive must commit a switch: {report:?}"
                );
            }
            assert_eq!(
                SpecReports::from_value(&reports.to_value()).as_ref(),
                Ok(reports),
                "{label} section round-trips"
            );

            let bare = CellSections {
                sampling: None,
                regret: None,
                window_width: None,
                ..sections
            };
            let bare = simulate_cell(&log, spec, capacity, &bare).reports;
            assert!(bare.sampled.is_none() && bare.regret.is_none() && bare.windows.is_none());
            assert_eq!((bare.metrics, bare.switches), (metrics, switches));
        }
    }
}
