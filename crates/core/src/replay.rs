//! Replaying a recovered frontend trace into any [`CacheModel`].
//!
//! The offline simulator recovers a [`SimTrace`] from an exported event
//! stream ([`gencache_obs::reconstruct_trace`]) and needs to drive it
//! into a model exactly the way the live replay harness drives its
//! recorded access log. This is that entry point, kept in `core` next
//! to the models so any consumer of the model trait — not just the
//! `gencache-sim` harness — can replay a recovered trace.
//!
//! Semantics mirror the harness: trace bodies get deterministic
//! synthesized head addresses (code addresses never influence cache
//! management and are not recoverable from a stream), and pin toggles —
//! which carry no timestamp of their own — are clocked with the time of
//! the most recent timed op.

use gencache_cache::{TraceId, TraceMap, TraceRecord};
use gencache_obs::{SimTrace, TraceOp};
use gencache_program::{Addr, Time};

use crate::model::CacheModel;

/// Replays every op of `trace` into `model`, in order.
///
/// Returns the number of executions driven (creates + accesses) so
/// callers can sanity-check against
/// [`SimTrace::access_count`].
pub fn replay_trace(trace: &SimTrace, model: &mut dyn CacheModel) -> u64 {
    let mut catalog: TraceMap<TraceId, TraceRecord> = TraceMap::new();
    let mut executions = 0u64;
    let mut now = Time::ZERO;
    for op in &trace.ops {
        match *op {
            TraceOp::Create { id, bytes, time } => {
                now = time;
                let rec = TraceRecord::new(id, bytes, Addr::new(id.as_u64()));
                catalog.insert(id, rec);
                model.on_access(rec, time);
                executions += 1;
            }
            TraceOp::Access { id, time } => {
                now = time;
                let rec = *catalog.get(id).expect("access precedes create");
                model.on_access(rec, time);
                executions += 1;
            }
            TraceOp::Invalidate { id, time } => {
                now = time;
                model.on_unmap(id, time);
            }
            TraceOp::Pin { id } => {
                model.on_pin(id, true, now);
            }
            TraceOp::Unpin { id } => {
                model.on_pin(id, false, now);
            }
        }
    }
    executions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::unified::UnifiedModel;

    #[test]
    fn drives_creates_accesses_and_unmaps() {
        let trace = SimTrace {
            ops: vec![
                TraceOp::Create {
                    id: TraceId::new(1),
                    bytes: 100,
                    time: Time::ZERO,
                },
                TraceOp::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(2),
                },
                TraceOp::Pin {
                    id: TraceId::new(1),
                },
                TraceOp::Unpin {
                    id: TraceId::new(1),
                },
                TraceOp::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(5),
                },
                TraceOp::Create {
                    id: TraceId::new(1),
                    bytes: 100,
                    time: Time::from_micros(6),
                },
            ],
        };
        let mut model = UnifiedModel::new(1_000);
        let driven = replay_trace(&trace, &mut model);
        assert_eq!(driven, 3);
        assert_eq!(model.metrics().accesses, 3);
        assert_eq!(model.metrics().hits, 1);
        assert_eq!(model.metrics().unmap_deletions, 1);
    }
}
