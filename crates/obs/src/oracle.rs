//! An offline Belady-style oracle: furthest-next-use eviction over a
//! recovered frontend trace.
//!
//! Belady's MIN is optimal for uniform block sizes; with variable-size
//! traces the greedy "evict the resident trace whose next use is
//! furthest away, repeat until the newcomer fits" rule is a standard
//! lower-bound *approximation* (exact optimality for variable sizes is
//! NP-hard). The simulator prints the oracle's miss rate as a floor row
//! under the real policies: the gap between a layout and the oracle is
//! the headroom better management could still claim.
//!
//! The oracle honors the frontend semantics the real models do — unmap
//! deletions and pin windows — so its row is comparable, not merely
//! smaller: a pinned trace is never evicted, and an oversized or
//! pin-blocked insertion executes unlinked (a miss with no residency),
//! exactly like [`InsertError`](gencache_cache::InsertError) fallout in
//! the live path.

use std::collections::BTreeSet;

use gencache_cache::{EvictionCause, TraceId, TraceMap};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, FrontendOp, Region};
use crate::simstream::{SimTrace, TraceOp};

/// Position in the op list used for "never used again": later than any
/// real index, ties broken by trace id for determinism.
const NEVER: usize = usize::MAX;

/// Clairvoyant next-use distances over a [`SimTrace`], indexed by
/// *execution position* — the count of executions (creates + accesses)
/// preceding an op, ignoring unmaps and pin toggles.
///
/// Execution positions are the bridge between the frontend trace and
/// any model's event stream: instrumented replays emit exactly one
/// [`Hit`](CacheEvent::Hit) or [`Miss`](CacheEvent::Miss) per
/// execution, in order (the `reconstruct_trace` invariant), so a
/// consumer walking an event stream can count hits and misses and look
/// up, at any point, how far away each trace's next execution is — the
/// quantity Belady's rule compares. "Never executed again" is
/// normalized to [`total`](NextUseIndex::total) so distances stay
/// finite and ties break on trace id, exactly like the oracle's own
/// eviction order.
#[derive(Debug, Clone, Default)]
pub struct NextUseIndex {
    /// `next[j]` = execution position of the next execution of the same
    /// trace as execution `j`, or `total` if there is none.
    next: Vec<usize>,
}

impl NextUseIndex {
    /// Builds the index with one backwards O(n) pass over the trace.
    pub fn build(trace: &SimTrace) -> Self {
        let ids: Vec<TraceId> = trace
            .ops
            .iter()
            .filter_map(|op| match *op {
                TraceOp::Create { id, .. } | TraceOp::Access { id, .. } => Some(id),
                _ => None,
            })
            .collect();
        let total = ids.len();
        let mut next = vec![total; total];
        let mut last_seen: TraceMap<TraceId, usize> = TraceMap::new();
        for j in (0..total).rev() {
            next[j] = last_seen.insert(ids[j], j).unwrap_or(total);
        }
        NextUseIndex { next }
    }

    /// Number of executions the index covers; also the normalized
    /// "never used again" position.
    pub fn total(&self) -> usize {
        self.next.len()
    }

    /// The execution position of the next execution of the same trace
    /// as execution `exec`, or [`total`](NextUseIndex::total) if the
    /// trace is never executed again.
    pub fn next_after(&self, exec: usize) -> usize {
        self.next[exec]
    }

    /// The forward distance, in executions, from execution `exec` to the
    /// next execution of the same trace (distance to end-of-trace when
    /// never executed again).
    pub fn distance_at(&self, exec: usize) -> usize {
        self.next[exec] - exec
    }
}

/// Hit/miss outcome of an oracle replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleResult {
    /// Trace executions presented (creates + accesses).
    pub accesses: u64,
    /// Executions that found their trace resident.
    pub hits: u64,
    /// Executions that required (re)generation.
    pub misses: u64,
    /// Executions whose trace could not be made resident at all
    /// (larger than the cache, or blocked by pinned entries).
    pub uncachable: u64,
    /// Traces deleted by unmaps while resident.
    pub unmap_deletions: u64,
}

impl OracleResult {
    /// Miss rate: `misses / accesses`; zero when no accesses occurred.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// One resident trace in the oracle's cache.
#[derive(Debug, Clone, Copy)]
struct Resident {
    next_use: usize,
    bytes: u32,
    pinned: bool,
}

/// Replays `trace` through a clairvoyant cache of `capacity` bytes,
/// evicting the resident trace with the furthest next use whenever an
/// insertion needs space.
pub fn oracle_replay(trace: &SimTrace, capacity: u64) -> OracleResult {
    replay_core(trace, capacity, |_| {})
}

/// [`oracle_replay`], but also materializes the oracle's decision
/// sequence as a [`CacheEvent`] stream in the single-region
/// ([`Region::Unified`]) shape the instrumented models emit: one
/// `Hit`/`Miss` per execution, capacity evictions for the
/// furthest-next-use victims, unmap deletions, pin toggles.
///
/// The stream inverts back to the frontend trace through
/// [`reconstruct_trace`](crate::reconstruct_trace) and, walked by the
/// regret scorer, carries zero Belady regret by construction — every
/// capacity victim *is* the furthest-next-use resident. Both properties
/// are tested.
pub fn oracle_replay_events(trace: &SimTrace, capacity: u64) -> (OracleResult, Vec<CacheEvent>) {
    let mut events = Vec::new();
    let result = replay_core(trace, capacity, |e| events.push(e));
    (result, events)
}

/// The oracle replay loop, parameterized over an event sink so the
/// plain summary replay pays nothing for emission.
fn replay_core(
    trace: &SimTrace,
    capacity: u64,
    mut emit: impl FnMut(CacheEvent),
) -> OracleResult {
    // Pass 1: for every op index, the index of the *next* execution of
    // the same trace (NEVER if none). Built backwards in O(n).
    let n = trace.ops.len();
    let mut next_use = vec![NEVER; n];
    let mut last_seen: TraceMap<TraceId, usize> = TraceMap::new();
    for i in (0..n).rev() {
        if let TraceOp::Create { id, .. } | TraceOp::Access { id, .. } = trace.ops[i] {
            next_use[i] = last_seen.insert(id, i).unwrap_or(NEVER);
        }
    }

    let mut result = OracleResult::default();
    let mut sizes: TraceMap<TraceId, u32> = TraceMap::new();
    let mut resident: TraceMap<TraceId, Resident> = TraceMap::new();
    // Eviction order: furthest next use first. Pinned entries stay in
    // the map but are skipped here (removed from the set while pinned).
    let mut by_distance: BTreeSet<(usize, TraceId)> = BTreeSet::new();
    let mut used: u64 = 0;
    // Pin toggles carry no timestamp; clock them with the preceding
    // timed op, exactly as the live replay path does.
    let mut clock = Time::ZERO;

    for (i, op) in trace.ops.iter().enumerate() {
        match *op {
            TraceOp::Create { id, time, .. } | TraceOp::Access { id, time } => {
                clock = time;
                let bytes = match trace.ops[i] {
                    TraceOp::Create { bytes, .. } => {
                        sizes.insert(id, bytes);
                        bytes
                    }
                    _ => *sizes.get(id).expect("access precedes create"),
                };
                result.accesses += 1;
                if let Some(entry) = resident.get_mut(id) {
                    result.hits += 1;
                    emit(CacheEvent::Hit {
                        region: Region::Unified,
                        trace: id,
                        reuse_us: 0,
                        time,
                    });
                    // Re-key the entry under its new next use.
                    if !entry.pinned {
                        by_distance.remove(&(entry.next_use, id));
                        by_distance.insert((next_use[i], id));
                    }
                    entry.next_use = next_use[i];
                    continue;
                }
                result.misses += 1;
                emit(CacheEvent::Miss {
                    trace: id,
                    bytes,
                    time,
                });
                if u64::from(bytes) > capacity {
                    result.uncachable += 1;
                    continue;
                }
                // Evict furthest-next-use entries until the newcomer fits.
                let mut evicted = Vec::new();
                while used + u64::from(bytes) > capacity {
                    match by_distance.iter().next_back().copied() {
                        Some(key) => {
                            by_distance.remove(&key);
                            let victim = resident.remove(key.1).expect("set tracks map");
                            used -= u64::from(victim.bytes);
                            evicted.push((key.1, victim));
                        }
                        None => break, // only pinned entries remain
                    }
                }
                if used + u64::from(bytes) > capacity {
                    // Pinned entries block the insertion: restore the
                    // provisional evictions and execute unlinked.
                    for (vid, victim) in evicted {
                        used += u64::from(victim.bytes);
                        resident.insert(vid, victim);
                        by_distance.insert((victim.next_use, vid));
                    }
                    result.uncachable += 1;
                    continue;
                }
                // The insertion is final: the provisional evictions are
                // real decisions now, so they enter the stream.
                for (vid, victim) in evicted {
                    emit(CacheEvent::Evict {
                        region: Region::Unified,
                        trace: vid,
                        bytes: victim.bytes,
                        cause: EvictionCause::Capacity,
                        age_us: 0,
                        idle_us: 0,
                        time,
                    });
                }
                used += u64::from(bytes);
                resident.insert(
                    id,
                    Resident {
                        next_use: next_use[i],
                        bytes,
                        pinned: false,
                    },
                );
                by_distance.insert((next_use[i], id));
                emit(CacheEvent::Insert {
                    region: Region::Unified,
                    trace: id,
                    bytes,
                    used,
                    time,
                });
            }
            TraceOp::Invalidate { id, time } => {
                clock = time;
                if let Some(entry) = resident.remove(id) {
                    result.unmap_deletions += 1;
                    used -= u64::from(entry.bytes);
                    if !entry.pinned {
                        by_distance.remove(&(entry.next_use, id));
                    }
                    emit(CacheEvent::Evict {
                        region: Region::Unified,
                        trace: id,
                        bytes: entry.bytes,
                        cause: EvictionCause::Unmapped,
                        age_us: 0,
                        idle_us: 0,
                        time,
                    });
                } else {
                    emit(CacheEvent::Noop {
                        op: FrontendOp::Unmap,
                        trace: id,
                        time,
                    });
                }
            }
            TraceOp::Pin { id } => {
                if let Some(entry) = resident.get_mut(id) {
                    if !entry.pinned {
                        entry.pinned = true;
                        by_distance.remove(&(entry.next_use, id));
                        emit(CacheEvent::Pin {
                            region: Region::Unified,
                            trace: id,
                            time: clock,
                        });
                        continue;
                    }
                }
                emit(CacheEvent::Noop {
                    op: FrontendOp::Pin,
                    trace: id,
                    time: clock,
                });
            }
            TraceOp::Unpin { id } => {
                if let Some(entry) = resident.get_mut(id) {
                    if entry.pinned {
                        entry.pinned = false;
                        by_distance.insert((entry.next_use, id));
                        emit(CacheEvent::Unpin {
                            region: Region::Unified,
                            trace: id,
                            time: clock,
                        });
                        continue;
                    }
                }
                emit(CacheEvent::Noop {
                    op: FrontendOp::Unpin,
                    trace: id,
                    time: clock,
                });
            }
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Time;

    fn create(id: u64, bytes: u32, t: u64) -> TraceOp {
        TraceOp::Create {
            id: TraceId::new(id),
            bytes,
            time: Time::from_micros(t),
        }
    }

    fn access(id: u64, t: u64) -> TraceOp {
        TraceOp::Access {
            id: TraceId::new(id),
            time: Time::from_micros(t),
        }
    }

    #[test]
    fn keeps_the_sooner_reused_trace() {
        // Cache fits two of the three traces. Trace 3 arrives while 1 is
        // about to be reused and 2 never is: the oracle evicts 2.
        let trace = SimTrace {
            ops: vec![
                create(1, 100, 0),
                create(2, 100, 1),
                create(3, 100, 2), // evicts 2 (furthest next use: never)
                access(1, 3),      // hit — 1 was kept
                access(3, 4),      // hit
            ],
        };
        let r = oracle_replay(&trace, 200);
        assert_eq!(r.accesses, 5);
        assert_eq!(r.misses, 3); // the three creations only
        assert_eq!(r.hits, 2);
    }

    #[test]
    fn lru_pattern_where_oracle_wins() {
        // Cyclic access over 3 traces in a 2-trace cache: LRU misses
        // every time; the oracle hits at least once per cycle.
        let mut ops = vec![create(0, 100, 0), create(1, 100, 1), create(2, 100, 2)];
        let mut t = 3;
        for _ in 0..5 {
            for id in 0..3 {
                ops.push(access(id, t));
                t += 1;
            }
        }
        let r = oracle_replay(&SimTrace { ops }, 200);
        assert!(r.hits >= 5, "oracle must hit once per cycle, got {r:?}");
    }

    #[test]
    fn pinned_traces_survive_pressure() {
        let trace = SimTrace {
            ops: vec![
                create(1, 150, 0),
                TraceOp::Pin {
                    id: TraceId::new(1),
                },
                create(2, 100, 1), // does not fit; 1 is pinned → unlinked
                access(1, 2),      // still a hit
                TraceOp::Unpin {
                    id: TraceId::new(1),
                },
                create(3, 100, 3), // now 1 can be evicted
            ],
        };
        let r = oracle_replay(&trace, 200);
        assert_eq!(r.uncachable, 1);
        assert_eq!(r.hits, 1);
    }

    #[test]
    fn unmap_frees_space() {
        let trace = SimTrace {
            ops: vec![
                create(1, 200, 0),
                TraceOp::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(1),
                },
                create(2, 200, 2),
                access(2, 3),
            ],
        };
        let r = oracle_replay(&trace, 200);
        assert_eq!(r.unmap_deletions, 1);
        assert_eq!(r.hits, 1);
        assert_eq!(r.uncachable, 0);
    }

    #[test]
    fn oversized_trace_is_uncachable() {
        let trace = SimTrace {
            ops: vec![create(1, 300, 0), access(1, 1)],
        };
        let r = oracle_replay(&trace, 200);
        assert_eq!(r.uncachable, 2);
        assert_eq!(r.hits, 0);
    }

    #[test]
    fn next_use_index_distances() {
        // Executions: t1 t2 t1 t2 t1 (the invalidate is not an execution).
        let trace = SimTrace {
            ops: vec![
                create(1, 100, 0),
                create(2, 100, 1),
                access(1, 2),
                TraceOp::Invalidate {
                    id: TraceId::new(3),
                    time: Time::from_micros(3),
                },
                access(2, 4),
                access(1, 5),
            ],
        };
        let idx = NextUseIndex::build(&trace);
        assert_eq!(idx.total(), 5);
        assert_eq!(idx.next_after(0), 2);
        assert_eq!(idx.next_after(1), 3);
        assert_eq!(idx.next_after(2), 4);
        assert_eq!(idx.next_after(3), 5, "never again normalizes to total");
        assert_eq!(idx.next_after(4), 5);
        assert_eq!(idx.distance_at(0), 2);
        assert_eq!(idx.distance_at(3), 2);
    }

    #[test]
    fn event_stream_matches_summary_replay() {
        let mut ops = vec![create(0, 100, 0), create(1, 100, 1), create(2, 100, 2)];
        let mut t = 3;
        for _ in 0..4 {
            for id in 0..3 {
                ops.push(access(id, t));
                t += 1;
            }
        }
        ops.push(TraceOp::Invalidate {
            id: TraceId::new(0),
            time: Time::from_micros(t),
        });
        let trace = SimTrace { ops };
        let plain = oracle_replay(&trace, 200);
        let (emitted, events) = oracle_replay_events(&trace, 200);
        assert_eq!(emitted, plain, "emission must not change decisions");
        let hits = events
            .iter()
            .filter(|e| matches!(e, CacheEvent::Hit { .. }))
            .count() as u64;
        let misses = events
            .iter()
            .filter(|e| matches!(e, CacheEvent::Miss { .. }))
            .count() as u64;
        assert_eq!(hits, plain.hits);
        assert_eq!(misses, plain.misses);
    }

    #[test]
    fn event_stream_inverts_to_the_frontend_trace() {
        // The oracle's stream must satisfy the same inversion invariant
        // as the live models: reconstruct_trace recovers the frontend
        // requests exactly (sizes are distinct per id so re-creations
        // cannot be confused with accesses).
        let trace = SimTrace {
            ops: vec![
                create(1, 150, 0),
                TraceOp::Pin {
                    id: TraceId::new(1),
                },
                create(2, 100, 1), // blocked by the pin: unlinked, a Miss
                access(1, 2),
                TraceOp::Unpin {
                    id: TraceId::new(1),
                },
                create(3, 100, 3),
                TraceOp::Invalidate {
                    id: TraceId::new(3),
                    time: Time::from_micros(4),
                },
                TraceOp::Invalidate {
                    id: TraceId::new(9), // never resident: a Noop
                    time: Time::from_micros(5),
                },
            ],
        };
        let (_, events) = oracle_replay_events(&trace, 200);
        let recovered = crate::simstream::reconstruct_trace(&events).expect("invertible");
        assert_eq!(recovered, trace);
    }
}
