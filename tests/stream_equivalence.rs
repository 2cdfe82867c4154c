//! The streamed record path (`--stream`: recorder → bounded channel →
//! replay, no materialized `AccessLog`) must be bit-identical to the
//! materialized pipeline — comparisons, summaries, and both telemetry
//! artifacts — at jobs 1/2/8 and across channel depths. Both sources run
//! through the same generic drivers; only the constructor differs.

use gencache_bench::{
    compare_all, export_telemetry, record_all, record_all_streamed, HarnessOptions,
};
use gencache_sim::{ProgressMeter, Recording};
use gencache_workloads::{Suite, WorkloadProfile};

fn opts(jobs: usize) -> HarnessOptions {
    HarnessOptions {
        scale: 64,
        suite: Some(Suite::Interactive),
        jobs: Some(jobs),
        stream: true,
        ..HarnessOptions::default()
    }
}

/// The summaries and the Figure 9 comparisons of `rows`, as JSON.
fn summaries_and_comparisons<R: Recording + Sync>(
    opts: &HarnessOptions,
    rows: &[(WorkloadProfile, R)],
) -> (String, String) {
    let summaries: Vec<_> = rows
        .iter()
        .map(|(_, rec)| rec.summary().expect("recorded runs carry a summary"))
        .collect();
    let meter = ProgressMeter::disabled("replay", 0);
    (
        serde_json::to_string(&summaries).unwrap(),
        serde_json::to_string(&compare_all(opts, rows, &meter)).unwrap(),
    )
}

/// Writes `rows`' events export and metrics doc under `opts` and reads
/// both back.
fn artifacts<R: Recording + Sync>(
    opts: &HarnessOptions,
    rows: &[(WorkloadProfile, R)],
) -> (Vec<u8>, Vec<u8>) {
    export_telemetry(opts, rows).unwrap();
    let read = |p: &Option<String>| std::fs::read(p.as_ref().unwrap()).unwrap();
    (read(&opts.events_out), read(&opts.metrics_out))
}

#[test]
fn streamed_pipeline_is_byte_identical_to_materialized_at_all_job_counts() {
    let runs = record_all(&opts(1));
    let (summaries, materialized) = summaries_and_comparisons(&opts(1), &runs);
    for jobs in [1, 2, 8] {
        let recs = record_all_streamed(&opts(jobs));
        let (streamed_summaries, streamed) = summaries_and_comparisons(&opts(jobs), &recs);
        assert_eq!(
            summaries, streamed_summaries,
            "streamed probe summaries with {jobs} jobs diverged from the materialized record"
        );
        assert_eq!(
            materialized, streamed,
            "streamed comparison with {jobs} jobs diverged from the materialized replay"
        );
    }
}

#[test]
fn streamed_telemetry_artifacts_are_byte_identical_to_materialized() {
    let dir = std::env::temp_dir().join(format!("gencache-stream-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    let mut materialized = opts(2);
    materialized.stream = false;
    materialized.sample = Some(16);
    materialized.events_out = Some(path("events-materialized.jsonl"));
    materialized.metrics_out = Some(path("metrics-materialized.json"));
    let (events_m, metrics_m) = artifacts(&materialized, &record_all(&materialized));

    // A shallow channel forces real producer/consumer interleaving.
    let mut streamed = opts(2);
    streamed.sample = Some(16);
    streamed.stream_depth = Some(8);
    streamed.events_out = Some(path("events-streamed.jsonl"));
    streamed.metrics_out = Some(path("metrics-streamed.json"));
    let (events_s, metrics_s) = artifacts(&streamed, &record_all_streamed(&streamed));

    assert_eq!(
        events_m, events_s,
        "streamed event export differs from the materialized export"
    );
    assert_eq!(
        metrics_m, metrics_s,
        "streamed metrics document differs from the materialized document"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn progress_counts_every_record_once_for_either_source() {
    let runs = record_all(&opts(2));
    let recs = record_all_streamed(&opts(2));
    let total: u64 = runs.iter().map(|(_, run)| run.record_count()).sum();
    assert!(total > 0, "the suite records something");
    let done = |counted: &dyn Fn(&ProgressMeter)| {
        let meter = ProgressMeter::disabled("replay", total);
        counted(&meter);
        meter.done()
    };
    let materialized = done(&|meter| {
        compare_all(&opts(2), &runs, meter);
    });
    let streamed = done(&|meter| {
        compare_all(&opts(2), &recs, meter);
    });
    assert_eq!(
        materialized, total,
        "one Figure 9 pass per benchmark counts each record once"
    );
    assert_eq!(
        streamed, materialized,
        "the streamed passes report the same progress as the materialized ones"
    );
}
