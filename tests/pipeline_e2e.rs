//! End-to-end pipeline integration: workload plan → DBT frontend →
//! verbose log → bounded-cache replay, across crate boundaries.

use gencache_core::{CacheModel, GenerationalConfig, GenerationalModel, UnifiedModel};
use gencache_sim::{compare_figure9, record, replay_into, AccessLog, LogRecord};
use gencache_workloads::{benchmark, Suite, WorkloadProfile};

fn small_profile() -> WorkloadProfile {
    WorkloadProfile::builder("e2e", Suite::Interactive)
        .footprint_kb(96)
        .phases(6)
        .lifetime_mix(0.18, 0.06)
        .dlls(4, 0.5)
        .hot_revisits(6)
        .duration_secs(20.0)
        .build()
}

#[test]
fn record_replay_roundtrip_preserves_access_counts() {
    let run = record(&small_profile()).expect("profile plans");
    let c = compare_figure9(&run.log);
    // Every model must see exactly the logged accesses.
    assert_eq!(c.unified.metrics.accesses, run.log.access_count());
    for g in &c.generational {
        assert_eq!(g.metrics.accesses, run.log.access_count());
        // Hits + misses account for every access.
        assert_eq!(g.metrics.hits + g.metrics.misses, g.metrics.accesses);
    }
    assert_eq!(
        c.unified.metrics.hits + c.unified.metrics.misses,
        c.unified.metrics.accesses
    );
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = record(&small_profile()).expect("plans");
    let b = record(&small_profile()).expect("plans");
    assert_eq!(a.log.records, b.log.records);
    let ca = compare_figure9(&a.log);
    let cb = compare_figure9(&b.log);
    assert_eq!(ca.unified.metrics, cb.unified.metrics);
    for (x, y) in ca.generational.iter().zip(&cb.generational) {
        assert_eq!(x.metrics, y.metrics);
    }
}

#[test]
fn log_serde_roundtrip_replays_identically() {
    let run = record(&small_profile()).expect("plans");
    let json = serde_json::to_string(&run.log).expect("serializes");
    let back: AccessLog = serde_json::from_str(&json).expect("deserializes");

    let cap = run.log.capacity();
    let mut m1 = UnifiedModel::new(cap);
    let mut m2 = UnifiedModel::new(cap);
    replay_into(&run.log, &mut m1);
    replay_into(&back, &mut m2);
    assert_eq!(m1.metrics(), m2.metrics());
}

#[test]
fn misses_bounded_by_creations_plus_evictions() {
    let run = record(&small_profile()).expect("plans");
    let cap = run.log.capacity();
    let mut model = UnifiedModel::new(cap);
    replay_into(&run.log, &mut model);
    let m = model.metrics();
    // Cold misses equal trace creations; every additional miss implies a
    // prior eviction or unmap deletion of that trace.
    let cold = run.log.trace_count();
    assert!(m.misses >= cold);
    let evictions = model.ledger().eviction_events;
    assert!(
        m.misses - cold <= evictions + m.unmap_deletions,
        "{} conflict misses cannot exceed {} removals",
        m.misses - cold,
        evictions + m.unmap_deletions
    );
}

#[test]
fn unmap_events_remove_traces_from_all_models() {
    let run = record(&small_profile()).expect("plans");
    let invalidated: Vec<_> = run
        .log
        .records
        .iter()
        .filter_map(|r| match r {
            LogRecord::Invalidate { id, .. } => Some(*id),
            _ => None,
        })
        .collect();
    assert!(!invalidated.is_empty(), "profile has DLL churn");

    let cap = run.log.capacity();
    let mut model = GenerationalModel::new(GenerationalConfig::figure9_configs(cap)[1]);
    replay_into(&run.log, &mut model);
    // After replay no invalidated trace may linger in any generation,
    // unless the log re-created it afterwards (same module re-executed:
    // impossible here because unmapped DLLs never re-load).
    for id in invalidated {
        assert_eq!(model.generation_of(id), None, "stale trace {id} survived");
    }
}

#[test]
fn generational_capacity_accounting_holds() {
    let run = record(&small_profile()).expect("plans");
    let cap = run.log.capacity();
    for config in GenerationalConfig::figure9_configs(cap) {
        let mut model = GenerationalModel::new(config);
        replay_into(&run.log, &mut model);
        assert!(model.resident_bytes() <= model.capacity_bytes());
        assert_eq!(model.capacity_bytes(), cap);
    }
}

#[test]
fn pins_in_log_never_crash_replay() {
    // The default recorder injects exception pins; replaying them through
    // all models exercises the pointer-reset path end to end.
    let run = record(&small_profile()).expect("plans");
    let pins = run
        .log
        .records
        .iter()
        .filter(|r| matches!(r, LogRecord::Pin { .. }))
        .count();
    let c = compare_figure9(&run.log);
    // Sanity: the comparison completed and produced finite ratios.
    for i in 0..3 {
        assert!(c.overhead_ratio(i).is_finite());
    }
    // The small default exception rate may or may not fire here; only
    // assert consistency, not presence.
    let unpins = run
        .log
        .records
        .iter()
        .filter(|r| matches!(r, LogRecord::Unpin { .. }))
        .count();
    assert_eq!(pins, unpins);
}

#[test]
fn scaled_profiles_shrink_but_keep_shape() {
    let full = benchmark("solitaire").expect("built-in");
    let small = full.scaled_down(8);
    assert!(small.footprint_bytes < full.footprint_bytes);
    assert_eq!(small.phases, full.phases);
    assert_eq!(small.dll_count, full.dll_count);
    let run = record(&small).expect("plans");
    assert!(run.summary.traces_created > 0);
}
