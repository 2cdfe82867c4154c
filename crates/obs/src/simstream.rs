//! Rebuilding the *frontend trace* from an event stream.
//!
//! [`reconstruct_stats`](crate::reconstruct_stats) replays a stream
//! forward into the counters the cache kept — proof the stream fully
//! describes what the cache *did*. This module inverts the other half:
//! it recovers what the frontend *asked for*. The paper's methodology
//! (Section 6) rests on the frontend request stream — creations,
//! re-executions, unmaps, pin windows — being independent of cache
//! management, so the trace recovered from one export can drive a model
//! with any capacity, layout or policy: the offline what-if simulator.
//!
//! The inversion is exact because instrumented models emit exactly one
//! identifying event per frontend request: every access starts with a
//! [`Hit`](CacheEvent::Hit) or [`Miss`](CacheEvent::Miss), every unmap
//! emits an [`Evict`](CacheEvent::Evict) with
//! [`EvictionCause::Unmapped`] or a [`Noop`](CacheEvent::Noop), and
//! every pin toggle emits a [`Pin`](CacheEvent::Pin) /
//! [`Unpin`](CacheEvent::Unpin) or a [`Noop`](CacheEvent::Noop).
//! Everything else in the stream (insertions, capacity evictions,
//! promotions, pointer resets) is a cache-side *effect* and is skipped.

use gencache_cache::{EvictionCause, TraceId, TraceMap};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::event::{CacheEvent, FrontendOp};

/// One frontend request recovered from an event stream.
///
/// Mirrors the shape of the recorder's access-log records, minus the
/// code addresses (which never influence cache management and are
/// re-synthesized deterministically by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TraceOp {
    /// A trace was generated (its first execution) with this body size.
    Create {
        /// The new trace.
        id: TraceId,
        /// Body size in bytes.
        bytes: u32,
        /// When the generating execution happened.
        time: Time,
    },
    /// A subsequent execution of an already-generated trace.
    Access {
        /// The executed trace.
        id: TraceId,
        /// When the execution happened.
        time: Time,
    },
    /// The trace's source memory was unmapped.
    Invalidate {
        /// The unmapped trace.
        id: TraceId,
        /// When the unmap happened.
        time: Time,
    },
    /// The trace became undeletable. Pin requests carry no timestamp in
    /// the recorder's log, so none is recovered here; replay clocks them
    /// with the preceding timed op, exactly as the live path does.
    Pin {
        /// The pinned trace.
        id: TraceId,
    },
    /// The trace became deletable again.
    Unpin {
        /// The unpinned trace.
        id: TraceId,
    },
}

/// A frontend request trace recovered from one exported event stream,
/// ready to drive any hypothetical cache configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SimTrace {
    /// Recovered requests, in stream order.
    pub ops: Vec<TraceOp>,
}

impl SimTrace {
    /// Number of executions (creates + accesses) in the trace.
    pub fn access_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Create { .. } | TraceOp::Access { .. }))
            .count() as u64
    }

    /// Number of distinct trace creations.
    pub fn create_count(&self) -> u64 {
        self.ops
            .iter()
            .filter(|op| matches!(op, TraceOp::Create { .. }))
            .count() as u64
    }
}

/// Incremental event → frontend-request inversion.
///
/// Holds one size entry per distinct trace id seen (never pruned: a
/// re-miss after eviction must still tell a re-access from a
/// regeneration), so a consumer can feed events one at a time — from a
/// file, a pipe, or a bounded channel — and never materialize the event
/// stream. This is the
/// core `reconstruct_trace` loops over, and what the serve daemon's
/// streaming ingest drives directly.
#[derive(Debug, Clone, Default)]
pub struct TraceRebuilder {
    sizes: TraceMap<TraceId, u32>,
}

impl TraceRebuilder {
    /// A rebuilder with no traces seen yet.
    pub fn new() -> Self {
        TraceRebuilder::default()
    }

    /// Inverts one cache event into at most one frontend request.
    ///
    /// The first [`Miss`](CacheEvent::Miss) of a trace id (or a later
    /// miss presenting a *different* body size, i.e. the source was
    /// regenerated differently) becomes a [`TraceOp::Create`]; every
    /// other hit or miss becomes a [`TraceOp::Access`]. Whether a given
    /// re-execution hit or missed is a property of the recorded
    /// configuration and deliberately discarded — the simulator
    /// re-derives it under the hypothetical one. Cache-side effects
    /// (insertions, capacity evictions, promotions, pointer resets)
    /// yield `None`.
    ///
    /// # Errors
    ///
    /// Errors if the stream opens a trace's history with a hit
    /// (impossible for a model that starts empty — the stream is
    /// truncated or mixes models).
    pub fn push(&mut self, event: &CacheEvent) -> Result<Option<TraceOp>, String> {
        Ok(Some(match *event {
            CacheEvent::Miss { trace, bytes, time } => {
                if self.sizes.get(trace) == Some(&bytes) {
                    TraceOp::Access { id: trace, time }
                } else {
                    self.sizes.insert(trace, bytes);
                    TraceOp::Create {
                        id: trace,
                        bytes,
                        time,
                    }
                }
            }
            CacheEvent::Hit { trace, time, .. } => {
                if !self.sizes.contains_key(trace) {
                    return Err(format!(
                        "hit on trace {trace} before any miss: stream is \
                         truncated or mixes models"
                    ));
                }
                TraceOp::Access { id: trace, time }
            }
            CacheEvent::Evict {
                trace,
                cause: EvictionCause::Unmapped,
                time,
                ..
            } => TraceOp::Invalidate { id: trace, time },
            CacheEvent::Noop { op, trace, time } => match op {
                FrontendOp::Unmap => TraceOp::Invalidate { id: trace, time },
                FrontendOp::Pin => TraceOp::Pin { id: trace },
                FrontendOp::Unpin => TraceOp::Unpin { id: trace },
            },
            CacheEvent::Pin { trace, .. } => TraceOp::Pin { id: trace },
            CacheEvent::Unpin { trace, .. } => TraceOp::Unpin { id: trace },
            // Cache-side effects: insertions, capacity/flush/discard
            // evictions, promotions and pointer resets all depend on the
            // recorded layout and are re-derived by the simulator.
            CacheEvent::Insert { .. }
            | CacheEvent::Evict { .. }
            | CacheEvent::Promote { .. }
            | CacheEvent::PromotedIn { .. }
            | CacheEvent::PointerReset { .. }
            | CacheEvent::PolicySwap { .. } => return Ok(None),
        }))
    }
}

/// Recovers the frontend request trace from one model's event stream: a
/// [`TraceRebuilder`] loop that materializes the ops.
///
/// # Errors
///
/// Errors if the stream opens a trace's history with a hit (impossible
/// for a model that starts empty — the stream is truncated or mixes
/// models).
pub fn reconstruct_trace(events: &[CacheEvent]) -> Result<SimTrace, String> {
    let mut rebuilder = TraceRebuilder::new();
    let mut ops = Vec::new();
    for event in events {
        if let Some(op) = rebuilder.push(event)? {
            ops.push(op);
        }
    }
    Ok(SimTrace { ops })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Region;

    fn miss(id: u64, bytes: u32, t: u64) -> CacheEvent {
        CacheEvent::Miss {
            trace: TraceId::new(id),
            bytes,
            time: Time::from_micros(t),
        }
    }

    fn hit(id: u64, t: u64) -> CacheEvent {
        CacheEvent::Hit {
            region: Region::Unified,
            trace: TraceId::new(id),
            reuse_us: 0,
            time: Time::from_micros(t),
        }
    }

    #[test]
    fn first_miss_creates_then_accesses() {
        let events = vec![
            miss(1, 100, 0),
            hit(1, 1),
            miss(2, 50, 2),
            // Conflict miss of trace 1 at its recorded size: an access,
            // not a new creation.
            miss(1, 100, 3),
        ];
        let trace = reconstruct_trace(&events).unwrap();
        assert_eq!(
            trace.ops,
            vec![
                TraceOp::Create {
                    id: TraceId::new(1),
                    bytes: 100,
                    time: Time::ZERO,
                },
                TraceOp::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(1),
                },
                TraceOp::Create {
                    id: TraceId::new(2),
                    bytes: 50,
                    time: Time::from_micros(2),
                },
                TraceOp::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(3),
                },
            ]
        );
        assert_eq!(trace.access_count(), 4);
        assert_eq!(trace.create_count(), 2);
    }

    #[test]
    fn unmap_and_noop_both_invalidate() {
        let events = vec![
            miss(1, 100, 0),
            CacheEvent::Evict {
                region: Region::Unified,
                trace: TraceId::new(1),
                bytes: 100,
                cause: EvictionCause::Unmapped,
                age_us: 5,
                idle_us: 5,
                time: Time::from_micros(5),
            },
            CacheEvent::Noop {
                op: FrontendOp::Unmap,
                trace: TraceId::new(2),
                time: Time::from_micros(6),
            },
        ];
        let trace = reconstruct_trace(&events).unwrap();
        assert_eq!(
            &trace.ops[1..],
            &[
                TraceOp::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(5),
                },
                TraceOp::Invalidate {
                    id: TraceId::new(2),
                    time: Time::from_micros(6),
                },
            ]
        );
    }

    #[test]
    fn capacity_evictions_are_ignored() {
        let events = vec![
            miss(1, 100, 0),
            CacheEvent::Evict {
                region: Region::Unified,
                trace: TraceId::new(1),
                bytes: 100,
                cause: EvictionCause::Capacity,
                age_us: 1,
                idle_us: 1,
                time: Time::from_micros(1),
            },
        ];
        let trace = reconstruct_trace(&events).unwrap();
        assert_eq!(trace.ops.len(), 1);
    }

    #[test]
    fn leading_hit_errors() {
        assert!(reconstruct_trace(&[hit(1, 0)]).is_err());
    }

    #[test]
    fn pins_roundtrip_without_timestamps() {
        let events = vec![
            miss(1, 100, 0),
            CacheEvent::Pin {
                region: Region::Unified,
                trace: TraceId::new(1),
                time: Time::ZERO,
            },
            CacheEvent::Noop {
                op: FrontendOp::Unpin,
                trace: TraceId::new(2),
                time: Time::ZERO,
            },
        ];
        let trace = reconstruct_trace(&events).unwrap();
        assert_eq!(
            &trace.ops[1..],
            &[
                TraceOp::Pin {
                    id: TraceId::new(1)
                },
                TraceOp::Unpin {
                    id: TraceId::new(2)
                },
            ]
        );
    }
}
