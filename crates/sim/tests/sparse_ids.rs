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

use gencache_cache::{LogRecord, TraceId, TraceRecord};
use gencache_obs::NextUseIndex;
use gencache_sim::{
    parse_spec, record, simulate_cell, AccessLog, CellSections, LocalPolicy, SpecReports,
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

fn relabel(records: &[LogRecord]) -> Vec<LogRecord> {
    records
        .iter()
        .map(|r| match *r {
            LogRecord::Create { record, time } => LogRecord::Create {
                record: TraceRecord {
                    id: sparse(record.id),
                    ..record
                },
                time,
            },
            LogRecord::Access { id, time } => LogRecord::Access {
                id: sparse(id),
                time,
            },
            LogRecord::Invalidate { id, time } => LogRecord::Invalidate {
                id: sparse(id),
                time,
            },
            LogRecord::Pin { id } => LogRecord::Pin { id: sparse(id) },
            LogRecord::Unpin { id } => LogRecord::Unpin { id: sparse(id) },
        })
        .collect()
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
    let dense_log = run.log;
    let sparse_log = AccessLog {
        records: relabel(&dense_log.records),
        ..dense_log.clone()
    };
    let (dense_index, sparse_index) = (
        NextUseIndex::build(&dense_log.records),
        NextUseIndex::build(&sparse_log.records),
    );
    let capacity = dense_log.capacity();
    let sections = |index| CellSections {
        sample_every: 64,
        phases: 4,
        sampling: None,
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
