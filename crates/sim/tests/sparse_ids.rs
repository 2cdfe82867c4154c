//! Trace ids are names, not positions: relabeling a recorded stream's
//! ids with an order-preserving injective map into sparse 64-bit values
//! must replay identically under every spec class.
//!
//! The frontend allocates ids densely from zero, so the per-trace tables
//! of the models and observers normally index by the id itself; sparse
//! ids take their hashed fallback instead. Counters, ledgers and every
//! report section must come out the same, once the few ids a report
//! names (churn entries, regret contributors and their Belady victims)
//! are mapped back.

use gencache_cache::TraceId;
use gencache_obs::{reconstruct_trace, NextUseIndex, SimTrace, TraceOp};
use gencache_sim::{
    collect_events, parse_spec, record, simulate_cell, trace_to_log, CellSections, LocalPolicy,
    ModelSpec, SpecReports,
};
use gencache_workloads::benchmark;

/// Low bits every sparse id carries, so none of them is a small integer.
const TAG: u64 = 0x5a5;
const SHIFT: u32 = 40;

/// The order-preserving injective relabeling: `id << 40 | 0x5a5`.
fn sparse(id: TraceId) -> TraceId {
    assert!(
        id.as_u64() < 1 << (64 - SHIFT),
        "id {id} too large to relabel"
    );
    TraceId::new(id.as_u64() << SHIFT | TAG)
}

/// The inverse of [`sparse`] on report ids.
fn dense(raw: u64) -> u64 {
    assert_eq!(
        raw & ((1 << SHIFT) - 1),
        TAG,
        "{raw:#x} is not a relabeled id"
    );
    raw >> SHIFT
}

fn relabel(trace: &SimTrace) -> SimTrace {
    let ops = trace
        .ops
        .iter()
        .map(|op| match *op {
            TraceOp::Create { id, bytes, time } => TraceOp::Create {
                id: sparse(id),
                bytes,
                time,
            },
            TraceOp::Access { id, time } => TraceOp::Access {
                id: sparse(id),
                time,
            },
            TraceOp::Invalidate { id, time } => TraceOp::Invalidate {
                id: sparse(id),
                time,
            },
            TraceOp::Pin { id } => TraceOp::Pin { id: sparse(id) },
            TraceOp::Unpin { id } => TraceOp::Unpin { id: sparse(id) },
        })
        .collect();
    SimTrace { ops }
}

/// Maps every trace id a report section names back through [`dense`].
fn map_back(mut reports: SpecReports) -> SpecReports {
    for entry in &mut reports.metrics.top_churn {
        entry.trace = dense(entry.trace);
    }
    if let Some(regret) = &mut reports.regret {
        for c in &mut regret.contributors {
            c.trace = dense(c.trace);
            c.worst.victim = dense(c.worst.victim);
        }
    }
    reports
}

#[test]
fn sparse_ids_replay_identically_under_every_spec_class() {
    let profile = benchmark("word").expect("word exists").scaled_down(64);
    let run = record(&profile).expect("calibrated profiles always plan");
    let (_, events) = collect_events(&run.log, ModelSpec::Unified);
    let trace = reconstruct_trace(&events).expect("stream inverts");
    let sparse_trace = relabel(&trace);
    let log_of = |t: &SimTrace| {
        trace_to_log(
            t,
            profile.name.clone(),
            run.log.duration.as_micros(),
            run.log.peak_trace_bytes,
        )
    };
    let (dense_log, sparse_log) = (log_of(&trace), log_of(&sparse_trace));
    let (dense_index, sparse_index) = (
        NextUseIndex::build(&trace),
        NextUseIndex::build(&sparse_trace),
    );
    let capacity = (run.log.peak_trace_bytes / 2).max(1);
    let sections = |index| CellSections {
        sample_every: 64,
        phases: 4,
        regret: Some((index, 16)),
        window_width: Some(256),
    };

    let mut labels = vec!["unified", "45-10-45@hit1", "30-20-50@evict5", "adaptive"];
    labels.extend(LocalPolicy::ALL.iter().map(|p| p.name()));
    let (mut churned, mut regretted) = (0, 0);
    for label in labels {
        let spec = parse_spec(label).unwrap();
        let want = simulate_cell(&dense_log, spec, capacity, &sections(&dense_index));
        let got = simulate_cell(&sparse_log, spec, capacity, &sections(&sparse_index));
        assert_eq!(got.result.model, want.result.model, "{label} model");
        assert_eq!(got.result.metrics, want.result.metrics, "{label} counters");
        assert_eq!(got.result.ledger, want.result.ledger, "{label} ledger");
        assert_eq!(map_back(got.reports), want.reports, "{label} reports");
        churned += want.reports.metrics.top_churn.len();
        regretted += want.reports.regret.map_or(0, |r| r.contributors.len());
    }
    assert!(churned > 0, "no churn entry exercised the id mapping");
    assert!(
        regretted > 0,
        "no regret contributor exercised the id mapping"
    );
}
