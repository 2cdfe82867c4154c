//! Sensitivity of trace formation to the trace-creation threshold
//! (Section 4.1 fixes it at DynamoRIO's default of 50; this extension
//! sweeps it). Lower thresholds create more, colder traces — inflating
//! the cache and the management load; higher thresholds delay trace-cache
//! entry and shrink coverage.

use gencache_bench::HarnessOptions;
use gencache_frontend::Engine;
use gencache_sim::report::{fmt_bytes, TextTable};
use gencache_workloads::{benchmark, ExecutionPlan, Run, TimedEvent, WorkloadEvent};

fn main() {
    let opts = HarnessOptions::from_env();
    let mut profile = benchmark("excel").expect("built-in benchmark");
    let scale = if opts.scale > 1 { opts.scale } else { 8 };
    profile = profile.scaled_down(scale);
    let plan = ExecutionPlan::from_profile(&profile).expect("calibrated profile");

    println!("Trace-creation-threshold sweep on `excel` (1/{scale} scale).");
    let mut table = TextTable::new([
        "threshold",
        "traces",
        "trace bytes",
        "accesses",
        "trace exits",
    ]);
    for threshold in [10u32, 25, 50, 75, 100, 200] {
        eprintln!("running threshold {threshold} ...");
        let mut engine = Engine::with_threshold(plan.image().clone(), threshold);
        let mut stream = plan.stream();
        while let Some(run) = stream.next_run() {
            match run {
                Run::Blocks { first, addrs, .. } => {
                    engine.on_blocks(addrs, first, |k| plan.exec_time(k), &mut |_, _| {})
                }
                Run::Unload { time, module } => {
                    let ev = TimedEvent::new(time, WorkloadEvent::Unload { module });
                    engine.on_event(ev, &mut |_| {});
                }
            }
        }
        let s = engine.stats();
        table.row([
            threshold.to_string(),
            s.traces_created.to_string(),
            fmt_bytes(s.trace_bytes_created),
            s.trace_accesses.to_string(),
            s.trace_exits.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!("\n(the paper, like DynamoRIO, uses threshold 50)");
}
