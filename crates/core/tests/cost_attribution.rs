//! The priced event stream *is* the cost model. Every model charges its
//! own [`CostLedger`] immediately before emitting the event that
//! describes the charged action (`Miss`, `Evict`, `Promote`), so a
//! [`CostObserver`] attached to any model must land **bitwise** on the
//! ledger the model kept itself — same formulas, same charge order,
//! identical floating-point results. A divergence means a charge site
//! and its event emission have drifted apart.

use gencache_cache::{
    ClockCache, CodeCache, FlushCache, LruCache, PhaseDetector, PreemptiveFlushCache,
    PseudoCircularCache, TraceId, TraceRecord, UnboundedCache,
};
use gencache_core::{
    CacheModel, GenerationalConfig, GenerationalModel, PromotionPolicy, Proportions, UnifiedModel,
};
use gencache_obs::{CostObserver, CostReport, Region};
use gencache_program::{Addr, Time};
use proptest::prelude::*;
use proptest::{Just, TestCaseError};

const CAPACITY: u64 = 2048;

/// Span of the driver clock: ops are stamped at 7 µs apart, so phase
/// attribution sees a non-degenerate run duration.
const DURATION_US: u64 = 400 * 7;

#[derive(Debug, Clone, Copy)]
enum Op {
    Access { id: u64, bytes: u32 },
    Unmap { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..24, 64u32..400).prop_map(|(id, bytes)| Op::Access { id, bytes }),
        1 => (0u64..24).prop_map(|id| Op::Unmap { id }),
    ]
}

fn drive(model: &mut dyn CacheModel, ops: &[Op]) {
    let mut sizes = std::collections::HashMap::new();
    for (step, op) in ops.iter().enumerate() {
        let now = Time::from_micros(step as u64 * 7);
        match *op {
            Op::Access { id, bytes } => {
                let bytes = *sizes.entry(id).or_insert(bytes);
                model.on_access(
                    TraceRecord::new(TraceId::new(id), bytes, Addr::new(id)),
                    now,
                );
            }
            Op::Unmap { id } => {
                model.on_unmap(TraceId::new(id), now);
            }
        }
    }
}

fn policies() -> Vec<(&'static str, Box<dyn CodeCache>)> {
    vec![
        (
            "pseudo-circular",
            Box::new(PseudoCircularCache::new(CAPACITY)),
        ),
        ("lru", Box::new(LruCache::new(CAPACITY))),
        ("clock", Box::new(ClockCache::new(CAPACITY))),
        ("flush-on-full", Box::new(FlushCache::new(CAPACITY))),
        (
            "preemptive-flush",
            Box::new(PreemptiveFlushCache::new(
                CAPACITY,
                PhaseDetector {
                    window: 8,
                    spike_factor: 2.0,
                    min_insertions: 16,
                },
            )),
        ),
        ("unbounded", Box::new(UnboundedCache::new())),
    ]
}

fn policy_strategy() -> impl Strategy<Value = PromotionPolicy> {
    prop_oneof![
        Just(PromotionPolicy::OnHit { hits: 1 }),
        Just(PromotionPolicy::OnHit { hits: 2 }),
        Just(PromotionPolicy::OnEviction { threshold: 1 }),
        Just(PromotionPolicy::OnEviction { threshold: 3 }),
    ]
}

/// Event counters are integers, so they must distribute exactly across
/// the phase slices (float sums may differ in rounding order; the
/// counters may not).
fn assert_phase_counters_sum(report: &CostReport) -> Result<(), TestCaseError> {
    let by_phase = |f: fn(&gencache_core::CostLedger) -> u64| -> u64 {
        report.phases.iter().map(|p| f(&p.ledger)).sum()
    };
    prop_assert_eq!(by_phase(|l| l.miss_events), report.total.miss_events);
    prop_assert_eq!(
        by_phase(|l| l.eviction_events),
        report.total.eviction_events
    );
    prop_assert_eq!(
        by_phase(|l| l.promotion_events),
        report.total.promotion_events
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every local replacement policy wrapped in the unified model,
    /// the observer-side ledger equals the model's own — bitwise.
    #[test]
    fn unified_cost_observer_matches_model_ledger(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        for (name, cache) in policies() {
            let observer = CostObserver::with_phases(4, DURATION_US);
            let mut model = UnifiedModel::with_cache_observed(name, cache, observer);
            drive(&mut model, &ops);
            let ledger = *model.ledger();
            let report = model.into_observer().into_report();
            prop_assert_eq!(report.total, ledger, "policy {} diverged", name);
            assert_phase_counters_sum(&report)?;
        }
    }

    /// The generational hierarchy charges misses, inter-region
    /// promotions and cause-tagged deletions; the observer must
    /// reprice all of them identically for every promotion policy and
    /// budget split.
    #[test]
    fn generational_cost_observer_matches_model_ledger(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        policy in policy_strategy(),
        proportions in prop_oneof![
            Just(Proportions::even_thirds()),
            Just(Proportions::best_overall()),
            Just(Proportions::probation_heavy()),
        ],
    ) {
        let config = GenerationalConfig::new(CAPACITY, proportions, policy);
        let observer = CostObserver::with_phases(6, DURATION_US);
        let mut model = GenerationalModel::observed(config, observer);
        drive(&mut model, &ops);
        let ledger = *model.ledger();
        let report = model.into_observer().into_report();
        prop_assert_eq!(report.total, ledger, "{:?} diverged", policy);
        assert_phase_counters_sum(&report)?;

        // Region attribution accounts for every priced eviction: the
        // per-region eviction counters partition the total.
        let region_evictions: u64 = Region::ALL
            .iter()
            .map(|r| report.region(*r).ledger.eviction_events)
            .sum();
        prop_assert_eq!(region_evictions, ledger.eviction_events);
    }
}
