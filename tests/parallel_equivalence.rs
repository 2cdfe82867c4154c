//! Suite-level parallel determinism: `record_all`, `compare_all` and the
//! live `--metrics-out` document must be byte-identical for any `--jobs`
//! value. `record_all` fans whole benchmarks across workers and the
//! document merges their reports, so this guards the
//! reassembly-in-input-order contract end to end.

use gencache_bench::{compare_all, export_telemetry, record_all, HarnessOptions};
use gencache_sim::ProgressMeter;
use gencache_workloads::Suite;

fn opts(jobs: usize) -> HarnessOptions {
    HarnessOptions {
        scale: 64,
        suite: Some(Suite::Interactive),
        jobs: Some(jobs),
        ..HarnessOptions::default()
    }
}

#[test]
fn suite_fanout_is_byte_identical_across_job_counts() {
    let baseline = record_all(&opts(1));
    let baseline_logs =
        serde_json::to_string(&baseline.iter().map(|(_, r)| &r.log).collect::<Vec<_>>()).unwrap();
    let meter = ProgressMeter::disabled("replay", 0);
    let baseline_cmp = serde_json::to_string(&compare_all(&opts(1), &baseline, &meter)).unwrap();
    for jobs in [2, 8] {
        let runs = record_all(&opts(jobs));
        let logs =
            serde_json::to_string(&runs.iter().map(|(_, r)| &r.log).collect::<Vec<_>>()).unwrap();
        assert_eq!(
            baseline_logs, logs,
            "record_all with {jobs} jobs diverged from serial"
        );
        let cmp = serde_json::to_string(&compare_all(&opts(jobs), &runs, &meter)).unwrap();
        assert_eq!(
            baseline_cmp, cmp,
            "compare_all with {jobs} jobs diverged from serial"
        );
    }
}

/// The live `--metrics-out` document for the suite at `jobs` workers,
/// under `--sample N --sample-seed 11` when `sample` is given.
fn export_doc(jobs: usize, sample: Option<u64>) -> String {
    let dir = std::env::temp_dir().join(format!("gencache-par-eq-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("metrics-{jobs}-{sample:?}.json"));
    let opts = HarnessOptions {
        metrics_out: Some(path.to_str().unwrap().to_string()),
        sample,
        sample_seed: 11,
        ..opts(jobs)
    };
    export_telemetry(&opts, &record_all(&opts)).unwrap();
    let doc = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    doc
}

#[test]
fn suite_costs_and_sampled_are_byte_identical_across_job_counts() {
    let serial = export_doc(1, Some(4));
    assert!(serial.contains(r#""costs":{"#) && serial.contains(r#""sampled":{"#));
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            export_doc(jobs, Some(4)),
            "sampled metrics document with {jobs} jobs diverged from serial"
        );
    }
}

#[test]
fn suite_metrics_are_byte_identical_across_job_counts() {
    let serial = export_doc(1, None);
    assert!(serial.contains(r#""metrics":{"#) && !serial.contains(r#""sampled":"#));
    for jobs in [2, 8] {
        assert_eq!(
            serial,
            export_doc(jobs, None),
            "metrics document with {jobs} jobs diverged from serial"
        );
    }
}
