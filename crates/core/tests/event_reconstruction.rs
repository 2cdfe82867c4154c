//! The event stream is a *complete* account of cache behaviour: replaying
//! it through `reconstruct_stats` must land on exactly the counters the
//! cache itself kept, for every local replacement policy and any
//! operation stream. A divergence means an emission site is missing,
//! duplicated, or tagged with the wrong cause.

use gencache_cache::CacheStats;
use gencache_cache::{
    ClockCache, CodeCache, FlushCache, LruCache, PhaseDetector, PreemptiveFlushCache,
    PseudoCircularCache, TraceId, TraceRecord, UnboundedCache,
};
use gencache_core::{
    CacheModel, GenerationalConfig, GenerationalModel, PromotionPolicy, Proportions, UnifiedModel,
};
use gencache_obs::{reconstruct_stats, EventBuffer, MetricsObserver, Region};
use gencache_program::{Addr, Time};
use proptest::prelude::*;
use proptest::Just;

const CAPACITY: u64 = 2048;

/// One step of a random driver stream. Pins are excluded on purpose:
/// with pinned entries a pseudo-circular insert may fail *after* evicting
/// entries, and the paper's replay harness treats that as fatal.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Present trace `id` (size `bytes`) for execution: hit or insert.
    Access { id: u64, bytes: u32 },
    /// Unmap trace `id` if resident.
    Unmap { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // Sizes stay well under CAPACITY so insertion never fails and every
    // policy keeps a few traces resident at once.
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
                // A re-created trace keeps its first size, like a real
                // regeneration of the same source region.
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

/// Promotion policies the generational reconstruction tests sweep.
fn policy_strategy() -> impl Strategy<Value = PromotionPolicy> {
    prop_oneof![
        Just(PromotionPolicy::OnHit { hits: 1 }),
        Just(PromotionPolicy::OnHit { hits: 2 }),
        Just(PromotionPolicy::OnEviction { threshold: 1 }),
        Just(PromotionPolicy::OnEviction { threshold: 3 }),
    ]
}

/// Bytes removed from a cache for any cause.
fn removed_bytes(s: &CacheStats) -> u64 {
    s.capacity_evicted_bytes
        + s.unmap_deleted_bytes
        + s.flush_evicted_bytes
        + s.discarded_bytes
        + s.promoted_out_bytes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// For every single-cache policy, the stats reconstructed purely
    /// from the event stream equal the stats the cache kept itself.
    #[test]
    fn events_reconstruct_exact_stats(ops in proptest::collection::vec(op_strategy(), 1..400)) {
        for (name, cache) in policies() {
            let mut model = UnifiedModel::with_cache_observed(name, cache, EventBuffer::new());
            drive(&mut model, &ops);
            let stats = *model.cache().stats();
            let events = model.into_observer().events;
            let reconstructed = reconstruct_stats(&events, Region::Unified);
            prop_assert_eq!(reconstructed, stats, "policy {} diverged", name);
        }
    }

    /// The generational hierarchy's event stream accounts for every
    /// access and every resident byte: aggregate totals agree with the
    /// model's own counters and occupancy.
    #[test]
    fn generational_events_account_for_every_byte(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let config = GenerationalConfig::new(
            CAPACITY,
            Proportions::best_overall(),
            PromotionPolicy::OnHit { hits: 1 },
        );
        let mut model = GenerationalModel::observed(config, MetricsObserver::new());
        drive(&mut model, &ops);
        let report = model.observer().report();
        prop_assert_eq!(report.accesses, model.metrics().accesses);
        prop_assert_eq!(report.hits, model.metrics().hits);
        prop_assert_eq!(report.misses, model.metrics().misses);
        let event_resident: u64 = Region::ALL
            .iter()
            .map(|r| report.region(*r).resident_bytes)
            .sum();
        prop_assert_eq!(event_resident, model.resident_bytes());
    }

    /// Per-region reconstruction of the generational hierarchy. With
    /// even thirds of a 2048-byte budget every region (682 B) holds any
    /// generated trace (< 400 B), so no promotion can fail and the
    /// `Promote`/`PromotedIn` pairing covers every inter-region move:
    ///
    /// * The **persistent** region reconstructs *exactly* — full
    ///   [`CacheStats`] equality, causes included. Nothing leaves the
    ///   persistent cache except by eviction or unmap, and every arrival
    ///   is a `PromotedIn`.
    /// * The **nursery** and **probation** caches tag policy evictions
    ///   as `Capacity` locally, while the hierarchy narrates the
    ///   evictee's fate (`Promote` onward, or `Evict`/`Discarded` after
    ///   failing probation). Everything except that cause split — entry
    ///   and byte inflow, hits, peak occupancy, and total outflow — must
    ///   still agree exactly.
    #[test]
    fn generational_regions_reconstruct_from_events(
        ops in proptest::collection::vec(op_strategy(), 1..400),
        policy in policy_strategy(),
    ) {
        let config = GenerationalConfig::new(CAPACITY, Proportions::even_thirds(), policy);
        let mut model = GenerationalModel::observed(config, EventBuffer::new());
        drive(&mut model, &ops);
        let nursery = *model.nursery().stats();
        let probation = *model.probation().stats();
        let persistent = *model.persistent().stats();
        let events = model.into_observer().events;

        let reconstructed = reconstruct_stats(&events, Region::Persistent);
        prop_assert_eq!(reconstructed, persistent, "persistent region diverged ({:?})", policy);

        for (region, stats) in [(Region::Nursery, nursery), (Region::Probation, probation)] {
            let r = reconstruct_stats(&events, region);
            prop_assert_eq!(r.insertions, stats.insertions, "{:?} insertions", region);
            prop_assert_eq!(r.inserted_bytes, stats.inserted_bytes, "{:?} bytes in", region);
            prop_assert_eq!(r.hits, stats.hits, "{:?} hits", region);
            prop_assert_eq!(r.peak_used_bytes, stats.peak_used_bytes, "{:?} peak", region);
            prop_assert_eq!(r.total_removals(), stats.total_removals(), "{:?} removals", region);
            prop_assert_eq!(removed_bytes(&r), removed_bytes(&stats), "{:?} bytes out", region);
            prop_assert_eq!(r.unmap_deletions, stats.unmap_deletions, "{:?} unmaps", region);
        }
    }
}
