//! Round-trip property: the event stream a model emits is a complete,
//! exact record of the frontend requests that drove it.
//!
//! For any op sequence, driving an instrumented model, recovering the
//! request stream from its events ([`reconstruct_trace`]) and replaying
//! it into a fresh identical model through a [`ReplayCursor`] must
//! reproduce the original run bitwise: same [`ModelMetrics`], same cost
//! ledger, same per-cache [`CacheStats`]. This is the property the
//! offline what-if simulator stands on — it holds for all six local
//! replacement policies and the generational hierarchy, and it holds
//! even though the recovered stream re-synthesizes head addresses
//! (cache management never looks at them).

use gencache_cache::{
    ClockCache, CodeCache, FlushCache, LogRecord, LruCache, PhaseDetector, PreemptiveFlushCache,
    PseudoCircularCache, ReplayCursor, TraceId, TraceRecord, UnboundedCache,
};
use gencache_core::{
    apply_step, CacheModel, GenerationalConfig, GenerationalModel, PromotionPolicy, Proportions,
    UnifiedModel,
};
use gencache_obs::{reconstruct_trace, EventBuffer};
use gencache_program::{Addr, Time};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Access { id: u64, size: u32 },
    Unmap { id: u64 },
    Pin { id: u64, pinned: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..60, 50u32..400).prop_map(|(id, size)| Op::Access { id, size }),
        1 => (0u64..60).prop_map(|id| Op::Unmap { id }),
        1 => (0u64..60, any::<bool>()).prop_map(|(id, pinned)| Op::Pin { id, pinned }),
    ]
}

/// Drives `ops` into a model the way the recorder would: consistent
/// sizes per trace id, one microsecond per step.
fn run_ops(model: &mut dyn CacheModel, ops: &[Op]) {
    use std::collections::HashMap;
    let mut sizes: HashMap<u64, u32> = HashMap::new();
    for (step, op) in ops.iter().enumerate() {
        let now = Time::from_micros(step as u64);
        match *op {
            Op::Access { id, size } => {
                let size = *sizes.entry(id).or_insert(size);
                let rec = TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id));
                model.on_access(rec, now);
            }
            Op::Unmap { id } => {
                model.on_unmap(TraceId::new(id), now);
            }
            Op::Pin { id, pinned } => {
                model.on_pin(TraceId::new(id), pinned, now);
            }
        }
    }
}

/// Replays a recovered request stream into `model`, in order.
fn replay(records: &[LogRecord], model: &mut dyn CacheModel) {
    let mut cursor = ReplayCursor::new();
    for record in records {
        apply_step(model, cursor.step(record));
    }
}

/// The six local replacement policies, built fresh at `capacity`.
fn local_cache(which: usize, capacity: u64) -> (&'static str, Box<dyn CodeCache>) {
    match which {
        0 => (
            "pseudo-circular",
            Box::new(PseudoCircularCache::new(capacity)),
        ),
        1 => ("lru", Box::new(LruCache::new(capacity))),
        2 => ("clock", Box::new(ClockCache::new(capacity))),
        3 => ("flush-on-full", Box::new(FlushCache::new(capacity))),
        4 => (
            "preemptive-flush",
            Box::new(PreemptiveFlushCache::new(
                capacity,
                PhaseDetector::default(),
            )),
        ),
        _ => ("unbounded", Box::new(UnboundedCache::new())),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every local policy round-trips: recorded events → recovered
    /// trace → fresh replay reproduces metrics, ledger and CacheStats.
    #[test]
    fn local_policies_roundtrip_bitwise(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        capacity in 500u64..5000,
    ) {
        for which in 0..6 {
            let (name, cache) = local_cache(which, capacity);
            let mut original =
                UnifiedModel::with_cache_observed(name, cache, EventBuffer::new());
            run_ops(&mut original, &ops);

            let recorded_metrics = *original.metrics();
            let recorded_ledger = *original.ledger();
            let recorded_stats = *original.cache().stats();
            let events = original.into_observer().events;

            let trace = reconstruct_trace(&events).expect("stream inverts");
            let (name, cache) = local_cache(which, capacity);
            let mut replayed = UnifiedModel::with_cache(name, cache);
            replay(&trace, &mut replayed);

            prop_assert_eq!(replayed.metrics(), &recorded_metrics, "{} metrics", name);
            prop_assert_eq!(replayed.ledger(), &recorded_ledger, "{} ledger", name);
            prop_assert_eq!(replayed.cache().stats(), &recorded_stats, "{} stats", name);
        }
    }

    /// The generational hierarchy round-trips too, region by region.
    #[test]
    fn generational_roundtrip_bitwise(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        capacity in 1000u64..8000,
        hit_policy in any::<bool>(),
    ) {
        let policy = if hit_policy {
            PromotionPolicy::OnHit { hits: 1 }
        } else {
            PromotionPolicy::OnEviction { threshold: 5 }
        };
        let config = GenerationalConfig::new(capacity, Proportions::best_overall(), policy);
        let mut original = GenerationalModel::observed(config, EventBuffer::new());
        run_ops(&mut original, &ops);

        let recorded_metrics = *original.metrics();
        let recorded_ledger = *original.ledger();
        let recorded_stats = [
            *original.nursery().stats(),
            *original.probation().stats(),
            *original.persistent().stats(),
        ];
        let events = original.into_observer().events;

        let trace = reconstruct_trace(&events).expect("stream inverts");
        let mut replayed = GenerationalModel::new(config);
        replay(&trace, &mut replayed);

        prop_assert_eq!(replayed.metrics(), &recorded_metrics);
        prop_assert_eq!(replayed.ledger(), &recorded_ledger);
        prop_assert_eq!(replayed.nursery().stats(), &recorded_stats[0]);
        prop_assert_eq!(replayed.probation().stats(), &recorded_stats[1]);
        prop_assert_eq!(replayed.persistent().stats(), &recorded_stats[2]);
    }
}
