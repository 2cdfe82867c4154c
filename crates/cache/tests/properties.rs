//! Property-based tests: structural invariants that must hold for every
//! local cache policy under arbitrary operation sequences.

use gencache_cache::{
    ClockCache, CodeCache, EvictionCause, FlushCache, LruCache, PseudoCircularCache, TraceId,
    TraceRecord, UnboundedCache,
};
use gencache_program::{Addr, Time};
use proptest::prelude::*;

/// A randomly generated cache operation.
#[derive(Debug, Clone)]
enum Op {
    Insert { id: u64, size: u32 },
    Touch { id: u64 },
    Remove { id: u64 },
    Pin { id: u64, pinned: bool },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..40, 1u32..300).prop_map(|(id, size)| Op::Insert { id, size }),
        3 => (0u64..40).prop_map(|id| Op::Touch { id }),
        1 => (0u64..40).prop_map(|id| Op::Remove { id }),
        1 => (0u64..40, any::<bool>()).prop_map(|(id, pinned)| Op::Pin { id, pinned }),
    ]
}

fn rec(id: u64, size: u32) -> TraceRecord {
    TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id * 0x1000))
}

/// Runs an op sequence, checking invariants after every step.
fn run_ops(cache: &mut dyn CodeCache, ops: &[Op]) {
    let mut pinned_now: Vec<u64> = Vec::new();
    for (step, op) in ops.iter().enumerate() {
        let now = Time::from_micros(step as u64);
        match *op {
            Op::Insert { id, size } => {
                if cache.contains(TraceId::new(id)) {
                    continue;
                }
                match cache.insert(rec(id, size), now) {
                    Ok(report) => {
                        // Pinned traces must never appear among victims.
                        for victim in &report.evicted {
                            assert!(
                                !victim.entry.pinned,
                                "pinned trace {} was evicted",
                                victim.id()
                            );
                            assert!(
                                !pinned_now.contains(&victim.id().as_u64()),
                                "trace pinned by the driver was evicted"
                            );
                        }
                        assert!(cache.contains(TraceId::new(id)));
                    }
                    Err(_) => {
                        // Errors are allowed (too large / no space); the
                        // trace must simply not be resident.
                        assert!(!cache.contains(TraceId::new(id)));
                    }
                }
            }
            Op::Touch { id } => {
                let resident = cache.contains(TraceId::new(id));
                assert_eq!(cache.touch(TraceId::new(id), now), resident);
            }
            Op::Remove { id } => {
                let resident = cache.contains(TraceId::new(id));
                let removed = cache.remove(TraceId::new(id), EvictionCause::Unmapped);
                assert_eq!(removed.is_some(), resident);
                pinned_now.retain(|&p| p != id);
            }
            Op::Pin { id, pinned } => {
                if cache.set_pinned(TraceId::new(id), pinned) {
                    if pinned {
                        if !pinned_now.contains(&id) {
                            pinned_now.push(id);
                        }
                    } else {
                        pinned_now.retain(|&p| p != id);
                    }
                }
            }
        }
        check_structure(cache);
    }
}

/// Structural invariants visible through the public API.
fn check_structure(cache: &dyn CodeCache) {
    let ids = cache.trace_ids();
    assert_eq!(ids.len(), cache.len());

    // used_bytes equals the sum of resident entry sizes.
    let mut total = 0u64;
    let mut extents: Vec<(u64, u64)> = Vec::new();
    for id in &ids {
        let e = cache.entry(*id).expect("listed id must resolve");
        total += u64::from(e.size_bytes());
        extents.push((e.offset, e.end_offset()));
    }
    assert_eq!(total, cache.used_bytes());

    // No two entries overlap in the arena.
    extents.sort_unstable();
    for w in extents.windows(2) {
        assert!(
            w[0].1 <= w[1].0,
            "entries overlap: [{}, {}) and [{}, {})",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }

    // Entries stay within capacity.
    if let Some(cap) = cache.capacity() {
        assert!(cache.used_bytes() <= cap);
        for (_, end) in &extents {
            assert!(*end <= cap, "entry extends past capacity");
        }
    }

    // The fragmentation report is consistent with capacity accounting.
    let frag = cache.fragmentation();
    if let Some(cap) = cache.capacity() {
        assert_eq!(frag.free_bytes, cap - cache.used_bytes());
        assert!(frag.largest_gap <= frag.free_bytes);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pseudo_circular_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 300u64..2000,
    ) {
        let mut cache = PseudoCircularCache::new(capacity);
        run_ops(&mut cache, &ops);
    }

    #[test]
    fn lru_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 300u64..2000,
    ) {
        let mut cache = LruCache::new(capacity);
        run_ops(&mut cache, &ops);
    }

    #[test]
    fn flush_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 300u64..2000,
    ) {
        let mut cache = FlushCache::new(capacity);
        run_ops(&mut cache, &ops);
    }

    #[test]
    fn clock_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 300u64..2000,
    ) {
        let mut cache = ClockCache::new(capacity);
        run_ops(&mut cache, &ops);
    }

    #[test]
    fn lru_with_defrag_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
        capacity in 300u64..2000,
    ) {
        let mut cache = LruCache::with_defrag_threshold(capacity, 0.3);
        run_ops(&mut cache, &ops);
    }

    #[test]
    fn unbounded_invariants(
        ops in proptest::collection::vec(op_strategy(), 1..200),
    ) {
        let mut cache = UnboundedCache::new();
        run_ops(&mut cache, &ops);
    }

    /// FIFO property of the pure circular buffer: with no pins, no forced
    /// deletions, and identically sized traces, victims are evicted in
    /// exactly insertion order.
    #[test]
    fn pseudo_circular_is_fifo_without_pins(
        n_inserts in 10u64..100,
        size in 10u32..50,
    ) {
        let capacity = u64::from(size) * 8; // holds exactly 8 traces
        let mut cache = PseudoCircularCache::new(capacity);
        let mut evicted_order = Vec::new();
        for id in 0..n_inserts {
            let report = cache.insert(rec(id, size), Time::ZERO).unwrap();
            evicted_order.extend(report.evicted.iter().map(|e| e.id().as_u64()));
        }
        // Victims must come out in insertion order: 0, 1, 2, ...
        let expected: Vec<u64> = (0..evicted_order.len() as u64).collect();
        prop_assert_eq!(evicted_order, expected);
    }

    /// LRU property: with uniform sizes and no pins, the victim is always
    /// the least recently touched resident trace.
    #[test]
    fn lru_evicts_least_recent(
        touch_seq in proptest::collection::vec(0u64..8, 0..40),
    ) {
        let size = 10u32;
        let mut cache = LruCache::new(u64::from(size) * 8);
        // Fill with traces 0..8, then apply touches, then insert one more.
        for id in 0..8 {
            cache.insert(rec(id, size), Time::ZERO).unwrap();
        }
        let mut order: Vec<u64> = (0..8).collect(); // LRU -> MRU
        for (i, &id) in touch_seq.iter().enumerate() {
            cache.touch(TraceId::new(id), Time::from_micros(i as u64 + 1));
            order.retain(|&x| x != id);
            order.push(id);
        }
        let report = cache.insert(rec(99, size), Time::from_micros(10_000)).unwrap();
        prop_assert_eq!(report.evicted.len(), 1);
        prop_assert_eq!(report.evicted[0].id().as_u64(), order[0]);
    }
}
