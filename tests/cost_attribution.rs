//! Suite-level reconciliation of the cost-attribution pipeline: the
//! Figure 11 comparison and the `CostObserver` price the *same* run
//! through the *same* Equation 3 ledgers, so their suite totals must be
//! bitwise equal — and the bounded-memory sampling observer must keep
//! every counter exact while its sampled distributions stay faithful.

use gencache_bench::{record_all, HarnessOptions};
use gencache_core::overhead_ratio;
use gencache_obs::{
    CostLedger, CostObserver, CostReport, Log2Histogram, MetricsObserver, SampledReport,
    SamplingObserver, SamplingParams,
};
use gencache_sim::{compare_figure9, replay_observed, AccessLog, SimSpec};
use gencache_workloads::Suite;

fn opts() -> HarnessOptions {
    HarnessOptions {
        scale: 64,
        suite: Some(Suite::Interactive),
        jobs: Some(2),
        ..HarnessOptions::default()
    }
}

fn suite_logs() -> Vec<AccessLog> {
    record_all(&opts())
        .into_iter()
        .map(|(_, r)| r.log)
        .collect()
}

/// Every log's cost report with `phases` phases, merged in log order.
fn merged_costs(logs: &[AccessLog], spec: SimSpec, phases: u32) -> CostReport {
    let mut merged = CostReport::new(phases as usize);
    for log in logs {
        let observer = CostObserver::with_phases(phases, log.duration.as_micros());
        merged.merge(&replay_observed(log, spec, observer).1.into_report());
    }
    merged
}

/// The `CostObserver` totals, folded across the suite, equal the
/// ledgers the Figure 11 comparison computes — bitwise, because both
/// charge the same Table 2 formulas in the same replay order — and so
/// the Equation 3 overhead ratio is identical from either side.
#[test]
fn suite_cost_totals_reconcile_with_figure11_ledgers() {
    let logs = suite_logs();
    let mut unified = CostLedger::new();
    let mut generational = CostLedger::new();
    for log in &logs {
        let comparison = compare_figure9(log);
        unified.merge(&comparison.unified.ledger);
        // Index 1 is 45-10-45 promote-on-first-hit — the same layout
        // `SimSpec::best_generational()` instruments.
        generational.merge(&comparison.generational[1].ledger);
    }

    let unified_costs = merged_costs(&logs, SimSpec::Unified, 8);
    let gen_costs = merged_costs(&logs, SimSpec::best_generational(), 8);
    assert_eq!(
        unified_costs.total, unified,
        "unified suite ledger diverged"
    );
    assert_eq!(
        gen_costs.total, generational,
        "generational suite ledger diverged"
    );
    assert_eq!(
        overhead_ratio(&gen_costs.total, &unified_costs.total),
        overhead_ratio(&generational, &unified),
    );
    assert!(unified_costs.total.total() > 0.0, "suite priced no events");
}

/// Log2-bucket tolerance: `value` must land within `buckets`
/// power-of-two buckets of the exact quantile. A histogram quantile is
/// a bucket *upper bound*, so one bucket of slack is inherent even for
/// a perfect sample.
fn assert_within_buckets(name: &str, q: f64, exact: u64, sampled: u64, buckets: u32) {
    let e = exact.max(1) as f64;
    let s = sampled.max(1) as f64;
    let ratio = if e > s { e / s } else { s / e };
    assert!(
        ratio <= f64::from(1u32 << buckets),
        "{name} q{q}: sampled {s} vs exact {e} (ratio {ratio:.1})"
    );
}

/// The *median* of a strided histogram sample is stable. Tail
/// quantiles are not checked here — systematic striding aliases
/// against periodic workloads; the uniform reservoir covers the tail.
fn assert_median_close(name: &str, exact: &Log2Histogram, sampled: &Log2Histogram) {
    if exact.total() < 64 || sampled.total() < 48 {
        return; // too few samples for a stable quantile
    }
    assert_within_buckets(name, 0.5, exact.quantile(0.5), sampled.quantile(0.5), 2);
}

/// On the recorded Figure 9 workloads, aggressive sampling keeps every
/// counter exact (only distributions are thinned) and the sampled
/// reuse/lifetime quantiles stay within the stated tolerance.
#[test]
fn sampling_keeps_counters_exact_and_quantiles_faithful() {
    let logs = suite_logs();
    for log in &logs {
        let observer = (
            MetricsObserver::new(),
            SamplingObserver::new(SamplingParams::bounded(42)),
        );
        let (_, (exact, sampled)) = replay_observed(log, SimSpec::best_generational(), observer);
        let (exact, sampled) = (exact.report(), sampled.report());
        let m = &sampled.metrics;
        assert_eq!(m.accesses, exact.accesses, "{}", log.benchmark);
        assert_eq!(m.hits, exact.hits, "{}", log.benchmark);
        assert_eq!(m.misses, exact.misses, "{}", log.benchmark);
        let mut exact_reuse = Log2Histogram::new();
        for (er, sr) in exact.regions.iter().zip(&m.regions) {
            assert_eq!(sr.inserts, er.inserts);
            assert_eq!(sr.insert_bytes, er.insert_bytes);
            assert_eq!(sr.capacity_evictions, er.capacity_evictions);
            assert_eq!(sr.promotions_in, er.promotions_in);
            assert_eq!(sr.promotions_out, er.promotions_out);
            assert_eq!(sr.peak_resident_bytes, er.peak_resident_bytes);
            let name = format!("{} reuse", log.benchmark);
            assert_median_close(&name, &er.reuse_us, &sr.reuse_us);
            let name = format!("{} lifetime", log.benchmark);
            assert_median_close(&name, &er.lifetime_us, &sr.lifetime_us);
            exact_reuse.merge(&er.reuse_us);
        }
        // The uniform reservoir carries the full reuse distribution,
        // tail included: its quantiles track the exact histogram's.
        if exact_reuse.total() >= 256 {
            let name = format!("{} reservoir", log.benchmark);
            for (q, buckets) in [(0.5, 2), (0.9, 4)] {
                let s = sampled.reuse_sample.quantile(q).unwrap();
                assert_within_buckets(&name, q, exact_reuse.quantile(q), s, buckets);
            }
        }
    }
}

/// The suite-level report types survive a JSON round-trip intact — the
/// contract the exported documents and the `delta` tool rely on.
#[test]
fn suite_reports_roundtrip_through_json() {
    let logs = suite_logs();
    let spec = SimSpec::best_generational();
    let costs = merged_costs(&logs, spec, 6);
    let json = serde_json::to_string(&costs).unwrap();
    assert_eq!(serde_json::from_str::<CostReport>(&json).unwrap(), costs);

    let mut sampled = SampledReport::default();
    for log in &logs {
        let observer = SamplingObserver::with_timeline(SamplingParams::bounded(7), 64);
        sampled.merge(&replay_observed(log, spec, observer).1.report());
    }
    let json = serde_json::to_string(&sampled).unwrap();
    assert_eq!(
        serde_json::from_str::<SampledReport>(&json).unwrap(),
        sampled
    );
}
