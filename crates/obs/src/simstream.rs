//! Rebuilding the *frontend request stream* from an event stream.
//!
//! [`reconstruct_stats`](crate::reconstruct_stats) replays a stream
//! forward into the counters the cache kept — proof the stream fully
//! describes what the cache *did*. This module inverts the other half:
//! it recovers what the frontend *asked for*. The paper's methodology
//! (Section 6) rests on the frontend request stream — creations,
//! re-executions, unmaps, pin windows — being independent of cache
//! management, so the stream recovered from one export can drive a model
//! with any capacity, layout or policy: the offline what-if simulator.
//!
//! The recovered requests are the recorder's own [`LogRecord`]s, so a
//! recovered stream and a recorded log replay through the same cursor.
//! Code addresses are not in an export and never influence cache
//! management, so each [`Create`](LogRecord::Create) carries a head
//! address synthesized from its trace id.
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

use gencache_cache::{EvictionCause, LogRecord, TraceId, TraceMap, TraceRecord};
use gencache_program::Addr;

use crate::event::{CacheEvent, FrontendOp};

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
    /// regenerated differently) becomes a [`LogRecord::Create`]; every
    /// other hit or miss becomes a [`LogRecord::Access`]. Whether a given
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
    pub fn push(&mut self, event: &CacheEvent) -> Result<Option<LogRecord>, String> {
        Ok(Some(match *event {
            CacheEvent::Miss { trace, bytes, time } => {
                if self.sizes.get(trace) == Some(&bytes) {
                    LogRecord::Access { id: trace, time }
                } else {
                    self.sizes.insert(trace, bytes);
                    LogRecord::Create {
                        record: TraceRecord::new(trace, bytes, Addr::new(trace.as_u64())),
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
                LogRecord::Access { id: trace, time }
            }
            CacheEvent::Evict {
                trace,
                cause: EvictionCause::Unmapped,
                time,
                ..
            } => LogRecord::Invalidate { id: trace, time },
            CacheEvent::Noop { op, trace, time } => match op {
                FrontendOp::Unmap => LogRecord::Invalidate { id: trace, time },
                FrontendOp::Pin => LogRecord::Pin { id: trace },
                FrontendOp::Unpin => LogRecord::Unpin { id: trace },
            },
            CacheEvent::Pin { trace, .. } => LogRecord::Pin { id: trace },
            CacheEvent::Unpin { trace, .. } => LogRecord::Unpin { id: trace },
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

/// Recovers the frontend request stream from one model's event stream: a
/// [`TraceRebuilder`] loop that materializes the requests.
///
/// # Errors
///
/// Errors if the stream opens a trace's history with a hit (impossible
/// for a model that starts empty — the stream is truncated or mixes
/// models).
pub fn reconstruct_trace(events: &[CacheEvent]) -> Result<Vec<LogRecord>, String> {
    let mut rebuilder = TraceRebuilder::new();
    let mut records = Vec::new();
    for event in events {
        if let Some(record) = rebuilder.push(event)? {
            records.push(record);
        }
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Region;
    use gencache_program::Time;

    fn create(id: u64, bytes: u32, t: u64) -> LogRecord {
        LogRecord::Create {
            record: TraceRecord::new(TraceId::new(id), bytes, Addr::new(id)),
            time: Time::from_micros(t),
        }
    }

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
            trace,
            vec![
                create(1, 100, 0),
                LogRecord::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(1),
                },
                create(2, 50, 2),
                LogRecord::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(3),
                },
            ]
        );
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
            &trace[1..],
            &[
                LogRecord::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(5),
                },
                LogRecord::Invalidate {
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
        assert_eq!(trace.len(), 1);
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
            &trace[1..],
            &[
                LogRecord::Pin {
                    id: TraceId::new(1)
                },
                LogRecord::Unpin {
                    id: TraceId::new(2)
                },
            ]
        );
    }
}
