//! End-to-end equivalence of the offline what-if simulator: a recorded
//! event stream, reconstructed and re-simulated, is indistinguishable
//! from re-recording.
//!
//! Three claims, each byte-for-byte:
//!
//! 1. simulating the stream under its *original* configuration
//!    reproduces the recorded replay exactly — miss rate, metrics
//!    report, Equation 3 cost ledger;
//! 2. a *counterfactual* pair of layouts (45-10-45\@hit1 vs
//!    30-20-50\@evict5) simulated from one stream matches a fresh
//!    two-config re-record of the same workload, at any `--jobs`;
//! 3. the full §6 proportions × promotion sweep run on the
//!    reconstructed log equals the sweep re-run on the original log —
//!    one export can stand in for `sweep_proportions` re-recording.
//!
//! Plus the oracle sanity bound: the Belady-style furthest-next-use
//! replayer never misses more than the unified baseline; and the
//! clairvoyant side built over a recorded log equals the one built over
//! the stream reconstructed from it, so `explain --oracle` can read the
//! log directly.

use gencache_bench::ingest::{run_sim_job, SimJobInput, SimJobOptions};
use gencache_bench::sample_interval;
use gencache_cache::LogRecord;
use gencache_obs::{
    oracle_replay, reconstruct_trace, CostObserver, EventBuffer, MetricsObserver, NextUseIndex,
};
use gencache_sim::{
    parse_spec, record, record_with, replay_observed, simulate_costs, simulate_metrics,
    sweep_with_jobs, AccessLog, RecorderOptions, SimSpec,
};
use gencache_workloads::{benchmark, Suite, WorkloadProfile};

/// One recorded run of `word`, its exported stream reconstructed back
/// into a replayable log, plus the paper's capacity for it.
fn recorded_and_reconstructed() -> (AccessLog, AccessLog, u64) {
    let profile = benchmark("word").expect("word exists").scaled_down(32);
    let run = record(&profile).expect("calibrated profiles always plan");
    let reconstructed = AccessLog {
        records: frontend_trace(&run.log),
        ..run.log.clone()
    };
    let capacity = run.log.capacity();
    (run.log, reconstructed, capacity)
}

/// The request stream reconstructed from `log`'s unified event stream.
fn frontend_trace(log: &AccessLog) -> Vec<LogRecord> {
    let (_, buffer) = replay_observed(log, SimSpec::Unified, EventBuffer::new());
    reconstruct_trace(&buffer.events).expect("stream inverts")
}

#[test]
fn simulation_reproduces_recording_and_counterfactuals_bitwise() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let every = sample_interval(&original);
    assert_eq!(
        every,
        sample_interval(&reconstructed),
        "reconstruction must preserve the access count"
    );
    let phases = benchmark("word").expect("word exists").phases.max(1);

    // Original configuration and two counterfactual layouts, one of
    // which (30-20-50@evict5) no live export ever recorded.
    for label in ["unified", "gen-45-10-45@hit1", "30-20-50@evict5"] {
        let spec = parse_spec(label).expect("valid spec label");
        let observer = (
            MetricsObserver::with_timeline(every),
            CostObserver::with_phases(phases, original.duration.as_micros()),
        );
        let (rec_result, (rec_metrics, rec_costs)) = replay_observed(&original, spec, observer);
        let (rec_metrics, rec_costs) = (rec_metrics.report(), rec_costs.into_report());
        let (sim_result, sim_metrics) = simulate_metrics(&reconstructed, spec, capacity, every);
        assert_eq!(
            sim_result.metrics, rec_result.metrics,
            "{label} model metrics"
        );
        assert_eq!(
            sim_result.ledger, rec_result.ledger,
            "{label} Equation 3 ledger"
        );
        assert_eq!(sim_metrics, rec_metrics, "{label} metrics report");
        assert_eq!(
            serde_json::to_string(&sim_metrics).unwrap(),
            serde_json::to_string(&rec_metrics).unwrap(),
            "{label} serialized metrics"
        );

        let (_, sim_costs) = simulate_costs(&reconstructed, spec, capacity, phases);
        assert_eq!(sim_costs, rec_costs, "{label} cost report");
        assert_eq!(
            serde_json::to_string(&sim_costs).unwrap(),
            serde_json::to_string(&rec_costs).unwrap(),
            "{label} serialized costs"
        );
    }
}

#[test]
fn simulated_grid_is_jobs_invariant() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let specs: Vec<SimSpec> = ["unified", "gen-45-10-45@hit1", "30-20-50@evict5", "lru"]
        .iter()
        .map(|l| parse_spec(l).expect("valid spec label"))
        .collect();
    let inputs = [SimJobInput {
        name: reconstructed.benchmark.clone(),
        trace: frontend_trace(&original),
        log: reconstructed,
        capacity,
        phases: 12,
    }];
    let options = SimJobOptions {
        oracle: true,
        windows: true,
        ..SimJobOptions::default()
    };
    let serial = run_sim_job(&inputs, &specs, options, 1, None).expect("job runs");
    let serial = &serial.benches[0].sims;
    assert!(
        serial.iter().all(|s| s.reports.regret.is_some()),
        "every grid cell gets a regret report under the oracle"
    );
    assert!(
        serial.iter().all(|s| s.reports.windows.is_some()),
        "every grid cell gets a windowed report when requested"
    );
    for jobs in [2, 8] {
        let parallel = run_sim_job(&inputs, &specs, options, jobs, None).expect("job runs");
        let parallel = &parallel.benches[0].sims;
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(parallel) {
            assert_eq!(a.label, b.label, "jobs={jobs}");
            assert_eq!(
                a.result.metrics, b.result.metrics,
                "{} jobs={jobs}",
                a.label
            );
            assert_eq!(
                a.reports.metrics, b.reports.metrics,
                "{} jobs={jobs}",
                a.label
            );
            assert_eq!(a.reports.costs, b.reports.costs, "{} jobs={jobs}", a.label);
            assert_eq!(
                serde_json::to_string(&a.reports.regret).unwrap(),
                serde_json::to_string(&b.reports.regret).unwrap(),
                "{} regret jobs={jobs}",
                a.label
            );
            assert_eq!(
                serde_json::to_string(&a.reports.windows).unwrap(),
                serde_json::to_string(&b.reports.windows).unwrap(),
                "{} windows jobs={jobs}",
                a.label
            );
        }
    }
}

#[test]
fn sweep_on_reconstructed_log_matches_rerecording() {
    let (original, reconstructed, _) = recorded_and_reconstructed();
    for jobs in [1, 4] {
        let fresh = sweep_with_jobs(&original, jobs);
        let simulated = sweep_with_jobs(&reconstructed, jobs);
        assert_eq!(
            serde_json::to_string(&fresh).unwrap(),
            serde_json::to_string(&simulated).unwrap(),
            "proportions sweep from one stream must equal re-recording (jobs={jobs})"
        );
    }
}

#[test]
fn oracle_lower_bounds_the_unified_baseline() {
    let (original, reconstructed, capacity) = recorded_and_reconstructed();
    let oracle = oracle_replay(&frontend_trace(&original), capacity);
    let every = sample_interval(&reconstructed);
    let (result, _) = simulate_metrics(
        &reconstructed,
        parse_spec("unified").unwrap(),
        capacity,
        every,
    );
    assert_eq!(oracle.accesses, result.metrics.accesses);
    assert!(
        oracle.misses <= result.metrics.misses,
        "oracle ({}) must not miss more than unified ({})",
        oracle.misses,
        result.metrics.misses
    );
}

/// The DLL-heavy three-thread profile `recording_digest.rs` pins.
fn churn3() -> WorkloadProfile {
    WorkloadProfile::builder("churn3", Suite::Interactive)
        .duration_secs(20.0)
        .footprint_kb(512)
        .phases(6)
        .dlls(8, 0.75)
        .threads(3)
        .seed(11)
        .build()
}

#[test]
fn oracle_over_the_recorded_log_equals_oracle_over_its_reconstruction() {
    let pinned = RecorderOptions {
        exception_rate: 0.2,
        pin_window: 3,
    };
    let scaled = |name: &str, scale| benchmark(name).expect("built-in").scaled_down(scale);
    let cases = [
        (scaled("word", 64), RecorderOptions::default()),
        (scaled("phaseflip", 16), RecorderOptions::default()),
        (scaled("excel", 8), RecorderOptions::default()),
        (churn3(), pinned),
    ];
    for (profile, options) in cases {
        let log = record_with(&profile, options).expect("profile plans").log;
        let name = &profile.name;
        if name == "excel" {
            assert!(
                log.invalidated_bytes() > 0,
                "excel's recording must unload a DLL holding traces"
            );
        }
        if options.exception_rate > 0.0 {
            assert!(
                log.records
                    .iter()
                    .any(|r| matches!(r, LogRecord::Pin { .. })),
                "{name}: the pinned recording must pin traces"
            );
        }
        let rebuilt = frontend_trace(&log);
        assert_eq!(
            NextUseIndex::build(&log.records),
            NextUseIndex::build(&rebuilt),
            "{name}: next-use index"
        );
        for capacity in [log.capacity(), log.capacity() / 4] {
            assert_eq!(
                oracle_replay(&log.records, capacity),
                oracle_replay(&rebuilt, capacity),
                "{name}: oracle at {capacity} bytes"
            );
        }
    }
}
