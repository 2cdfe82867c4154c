//! Smoke test of the benchmark: `BENCHMARK.json` is well formed and every
//! per-layer metric in it names what it should move, and every workload
//! runs in `--quick` mode with correct outputs and every metric of
//! `BENCHMARK.json` emitted.

use std::process::{Command, Stdio};

use gencache_perf::metrics::{field, moves, number, Contract, Metric, CONTRACT_JSON};
use gencache_perf::workload::Workload;
use serde::Value;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn get<'v>(v: &'v Value, key: &str) -> &'v Value {
    field(v, key).unwrap_or_else(|| panic!("no {key:?} in {v:?}"))
}

#[test]
fn benchmark_json_lints() {
    let contract = Contract::parse(CONTRACT_JSON).expect("BENCHMARK.json parses");
    assert!((2..=8).contains(&contract.workloads.len()));
    assert!(contract.end_to_end.len() <= 16);
    assert!(contract.per_layer.len() <= 128);
    let mut names: Vec<&str> = contract.workloads.iter().map(String::as_str).collect();
    names.extend(contract.end_to_end.iter().map(|m| m.name.as_str()));
    names.extend(contract.per_layer.iter().map(|m| m.name.as_str()));
    for name in &names {
        assert!(valid_name(name), "invalid name {name:?}");
    }
    let count = names.len();
    names.sort_unstable();
    names.dedup();
    assert_eq!(names.len(), count, "a name is used twice");

    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(contract.workloads, workloads);
    // The bounds are set from measured spreads; the format caps them at
    // 0.25, and setup_s, the noisiest, has the largest.
    let bound = |m: &Metric| m.bound.unwrap_or_else(|| panic!("{} has no bound", m.name));
    for m in &contract.end_to_end {
        assert!(
            bound(m) > 0.0 && bound(m) <= 0.25,
            "{}: bound {}",
            m.name,
            bound(m)
        );
    }
    let setup = contract
        .end_to_end
        .iter()
        .find(|m| m.name == "setup_s" && m.unit == "s" && m.lower_is_better)
        .expect("setup_s in seconds, lower is better");
    assert!(contract.end_to_end.iter().all(|m| bound(m) <= bound(setup)));

    // Every layer metric names the end-to-end metric and the workloads
    // it should move; only the traced run's own health checks do not.
    for layer in &contract.per_layer {
        match moves(&layer.name) {
            Some((metric, on)) => {
                assert!(
                    contract.end_to_end.iter().any(|m| m.name == metric),
                    "{} moves unknown metric {metric}",
                    layer.name
                );
                assert!(!on.is_empty(), "{} names no workload", layer.name);
                for w in on {
                    assert!(
                        workloads.contains(w),
                        "{} names unknown workload {w}",
                        layer.name
                    );
                }
            }
            None => assert!(layer.name.starts_with("trace."), "{}", layer.name),
        }
    }
}

/// Runs every workload in `--quick` mode, plain and traced, all at
/// once, and returns each run's result object in `Workload::ALL` order.
fn quick_runs() -> (Vec<Value>, Vec<Value>) {
    let children: Vec<_> = ["0", "1"]
        .iter()
        .flat_map(|trace| Workload::ALL.iter().map(move |w| (*trace, w.name())))
        .map(|(trace, name)| {
            let child = Command::new(env!("CARGO_BIN_EXE_gencache-perf"))
                .args(["run", "--workload", name, "--quick", "--trace", trace])
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn gencache-perf");
            (trace, name, child)
        })
        .collect();
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    for (trace, name, child) in children {
        let out = child.wait_with_output().expect("wait for gencache-perf");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{name} --trace {trace} failed:\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let last = stdout.lines().last().expect("a result line");
        let result = serde_json::value_from_str(last).expect("result line is JSON");
        if trace == "0" {
            plain.push(result)
        } else {
            traced.push(result)
        }
    }
    (plain, traced)
}

fn check_results(results: &[Value], expected: &[Metric]) {
    for result in results {
        assert_eq!(get(result, "correct"), &Value::Bool(true), "{result:?}");
        assert_eq!(get(result, "failed"), &Value::UInt(0), "{result:?}");
        let metrics = get(result, "metrics").as_object().expect("metrics object");
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, wanted);
        for (metric, (_, m)) in expected.iter().zip(metrics) {
            assert!(
                number(get(m, "value")).is_some_and(f64::is_finite),
                "{} is not a finite number: {m:?}",
                metric.name
            );
            assert_eq!(get(m, "unit"), &Value::Str(metric.unit.clone()));
        }
    }
}

#[test]
fn quick_runs_emit_every_metric_with_agreeing_digests() {
    let contract = Contract::embedded();
    let (plain, traced) = quick_runs();
    check_results(&plain, &contract.end_to_end);
    check_results(&traced, &contract.per_layer);
}
