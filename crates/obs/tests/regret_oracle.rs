//! The regret scorer's calibration property: the Belady oracle's own
//! decision sequence carries zero regret.
//!
//! [`oracle_replay_events`] materializes the clairvoyant replay as the
//! same event stream shape the instrumented models emit. Every capacity
//! victim it picks *is* the furthest-next-use resident, so a
//! [`RegretObserver`] walking that stream against the matching
//! [`NextUseIndex`] must score zero regret on every eviction — for any
//! frontend trace, any capacity, with unmaps and pin windows in play.
//! If this ever fails, either the oracle and the scorer disagree about
//! eviction order (tie-breaks included) or the execution-position
//! alignment between trace and stream has drifted.

use std::collections::HashSet;

use gencache_cache::{LogRecord, TraceId, TraceRecord};
use gencache_obs::{
    oracle_replay_events, reconstruct_trace, NextUseIndex, Observer, RegretObserver,
};
use gencache_program::{Addr, Time};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Execute { id: u64, size: u32 },
    Unmap { id: u64 },
    PinToggle { id: u64 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0u64..40, 50u32..400).prop_map(|(id, size)| Op::Execute { id, size }),
        1 => (0u64..40).prop_map(|id| Op::Unmap { id }),
        1 => (0u64..40).prop_map(|id| Op::PinToggle { id }),
    ]
}

/// Lowers raw ops into a well-formed request stream: the first execution
/// of a live id is a `Create`, unmaps kill the id (a later execution
/// re-creates it), pin toggles only touch live ids.
fn build_trace(ops: &[Op]) -> Vec<LogRecord> {
    let mut trace = Vec::new();
    let mut live: HashSet<u64> = HashSet::new();
    let mut pinned: HashSet<u64> = HashSet::new();
    for (step, op) in ops.iter().enumerate() {
        let time = Time::from_micros(step as u64);
        match *op {
            Op::Execute { id, size } => {
                let tid = TraceId::new(id);
                if live.insert(id) {
                    trace.push(LogRecord::Create {
                        record: TraceRecord::new(tid, size, Addr::new(id)),
                        time,
                    });
                } else {
                    trace.push(LogRecord::Access { id: tid, time });
                }
            }
            Op::Unmap { id } => {
                if live.remove(&id) {
                    pinned.remove(&id);
                    trace.push(LogRecord::Invalidate {
                        id: TraceId::new(id),
                        time,
                    });
                }
            }
            Op::PinToggle { id } => {
                if live.contains(&id) {
                    let tid = TraceId::new(id);
                    if pinned.insert(id) {
                        trace.push(LogRecord::Pin { id: tid });
                    } else {
                        pinned.remove(&id);
                        trace.push(LogRecord::Unpin { id: tid });
                    }
                }
            }
        }
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Scoring the oracle's own stream yields zero regret, and the
    /// stream round-trips back to the frontend trace that drove it.
    #[test]
    fn oracle_decisions_carry_zero_regret(
        ops in proptest::collection::vec(op_strategy(), 1..250),
        capacity in 300u64..4000,
    ) {
        let trace = build_trace(&ops);
        let (result, events) = oracle_replay_events(&trace, capacity);

        prop_assert_eq!(
            &reconstruct_trace(&events).expect("oracle stream inverts"),
            &trace,
            "oracle event stream must invert to its input trace"
        );

        let index = NextUseIndex::build(&trace);
        let mut scorer = RegretObserver::new(&index);
        for event in &events {
            scorer.on_event(event);
        }
        let report = scorer.report();

        prop_assert_eq!(report.accesses, result.accesses, "alignment drift");
        prop_assert_eq!(
            report.total.regret_sum, 0,
            "oracle scored nonzero regret: {:?}",
            report.total
        );
        prop_assert_eq!(report.total.regretful, 0);
        for phase in &report.phases {
            prop_assert_eq!(phase.total.regret_sum, 0);
        }
        for c in &report.contributors {
            prop_assert_eq!(c.regret_sum, 0, "contributor t{} regretted", c.trace);
        }
    }
}
