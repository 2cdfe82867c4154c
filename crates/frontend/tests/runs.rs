//! Run-at-a-time execution is block-at-a-time execution: feeding a
//! plan's runs to `Engine::on_blocks` whole, one block at a time, or cut
//! anywhere gives the same frontend events, at the same exec-event
//! indices, and the same counters as one `on_event` per streamed event.

use gencache_frontend::{Engine, FrontendEvent, FrontendStats};
use gencache_program::Addr;
use gencache_workloads::{benchmark, ExecutionPlan, Run, Suite, WorkloadEvent, WorkloadProfile};
use proptest::prelude::*;

/// A frontend event with the engine that reported it and, for block
/// executions, the exec-event index of the block that caused it.
type Tagged = (usize, Option<u64>, FrontendEvent);

/// The reference: one `on_event` per event of `plan.stream()`, one
/// engine per guest thread, unloads to every engine.
fn by_event(plan: &ExecutionPlan) -> (Vec<Tagged>, Vec<FrontendStats>) {
    let threads = plan.profile().threads.max(1) as usize;
    let mut engines: Vec<Engine> = (0..threads)
        .map(|_| Engine::new(plan.image().clone()))
        .collect();
    let mut out = Vec::new();
    let mut k = 0u64;
    for ev in plan.stream() {
        match ev.event {
            WorkloadEvent::Exec { .. } => {
                let t = (ev.thread as usize).min(threads - 1);
                engines[t].on_event(ev, &mut |fe| out.push((t, Some(k), fe)));
                k += 1;
            }
            WorkloadEvent::Unload { .. } => {
                for (t, engine) in engines.iter_mut().enumerate() {
                    engine.on_event(ev, &mut |fe| out.push((t, None, fe)));
                }
            }
        }
    }
    (out, engines.iter().map(|e| *e.stats()).collect())
}

/// Feeds every run of `plan` to `on_blocks`, cut into the pieces `cut`
/// returns for it.
fn by_runs<'a>(
    plan: &'a ExecutionPlan,
    mut cut: impl FnMut(&'a [Addr]) -> Vec<&'a [Addr]>,
) -> (Vec<Tagged>, Vec<FrontendStats>) {
    let threads = plan.profile().threads.max(1) as usize;
    let mut engines: Vec<Engine> = (0..threads)
        .map(|_| Engine::new(plan.image().clone()))
        .collect();
    let mut out = Vec::new();
    let mut stream = plan.stream();
    while let Some(run) = stream.next_run() {
        match run {
            Run::Blocks {
                thread,
                first,
                addrs,
            } => {
                let t = (thread as usize).min(threads - 1);
                let mut start = first;
                for piece in cut(addrs) {
                    engines[t].on_blocks(piece, start, |k| plan.exec_time(k), &mut |k, fe| {
                        out.push((t, Some(k), fe))
                    });
                    start += piece.len() as u64;
                }
            }
            Run::Unload { time, module } => {
                let ev =
                    gencache_workloads::TimedEvent::new(time, WorkloadEvent::Unload { module });
                for (t, engine) in engines.iter_mut().enumerate() {
                    engine.on_event(ev, &mut |fe| out.push((t, None, fe)));
                }
            }
        }
    }
    (out, engines.iter().map(|e| *e.stats()).collect())
}

fn assert_same_as_events(profile: &WorkloadProfile) {
    let plan = ExecutionPlan::from_profile(profile).expect("plans");
    let reference = by_event(&plan);
    assert!(
        reference.1.iter().any(|s| s.traces_created > 0),
        "{}: no traces",
        profile.name
    );
    assert!(
        by_runs(&plan, |addrs| vec![addrs]) == reference,
        "{}: whole runs differ from events",
        profile.name
    );
    assert!(
        by_runs(&plan, |addrs| addrs.chunks(1).collect()) == reference,
        "{}: runs split at every index differ from events",
        profile.name
    );
}

#[test]
fn runs_whole_or_split_at_every_index_match_events() {
    for name in ["gzip", "word", "phaseflip"] {
        let profile = benchmark(name).expect("built-in profile").scaled_down(64);
        assert_same_as_events(&profile);
    }
    let churn3 = WorkloadProfile::builder("churn3", Suite::Interactive)
        .duration_secs(20.0)
        .footprint_kb(512)
        .phases(6)
        .dlls(8, 0.75)
        .threads(3)
        .seed(11)
        .build();
    assert_same_as_events(&churn3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Cutting each run at an arbitrary point changes nothing.
    #[test]
    fn runs_cut_anywhere_match_events(
        kb in 16u64..96,
        phases in 1u32..6,
        dlls in 0u32..5,
        threads in 1u32..4,
        seed in any::<u64>(),
        cut_seed in any::<u64>(),
    ) {
        let profile = WorkloadProfile::builder("cut", Suite::Interactive)
            .footprint_kb(kb)
            .phases(phases)
            .dlls(dlls, 0.6)
            .threads(threads)
            .seed(seed)
            .duration_secs(5.0)
            .build();
        let plan = ExecutionPlan::from_profile(&profile).expect("plans");
        let mut state = cut_seed | 1;
        let cut = |addrs| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let (a, b) = <[Addr]>::split_at(addrs, state as usize % (addrs.len() + 1));
            vec![a, b]
        };
        prop_assert!(by_runs(&plan, cut) == by_event(&plan));
    }
}
