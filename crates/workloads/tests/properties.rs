//! Property-based tests over randomly generated workload profiles: any
//! valid profile must plan successfully and stream a well-formed,
//! deterministic event sequence.

use gencache_program::Time;
use gencache_workloads::{
    benchmark, ExecutionPlan, PlanStep, Run, Suite, TimedEvent, WorkloadEvent, WorkloadProfile,
};
use proptest::prelude::*;

fn profile_strategy() -> impl Strategy<Value = WorkloadProfile> {
    (
        16u64..128,      // footprint KB (small for speed)
        1u32..8,         // phases
        0.05f64..0.45,   // persistent fraction
        0.0f64..0.25,    // medium fraction
        0u32..6,         // dll count
        0.0f64..1.0,     // unload fraction
        1u32..6,         // hot revisits
        any::<u64>(),    // seed
        prop::bool::ANY, // suite
    )
        .prop_map(
            |(kb, phases, persistent, medium, dlls, unload, revisits, seed, spec)| {
                let suite = if spec {
                    Suite::Spec2000
                } else {
                    Suite::Interactive
                };
                WorkloadProfile::builder("prop", suite)
                    .footprint_kb(kb)
                    .phases(phases)
                    .lifetime_mix(persistent, medium.min(1.0 - persistent))
                    .dlls(dlls, unload)
                    .hot_revisits(revisits)
                    .seed(seed)
                    .duration_secs(5.0)
                    .build()
            },
        )
}

/// The plan's runs flattened to one event per block, checking that
/// each run's `first` counts the exec events before it.
fn flattened_runs(plan: &ExecutionPlan) -> Vec<TimedEvent> {
    let mut stream = plan.stream();
    let mut events = Vec::new();
    let mut execs = 0u64;
    while let Some(run) = stream.next_run() {
        match run {
            Run::Blocks {
                thread,
                first,
                addrs,
            } => {
                assert!(!addrs.is_empty(), "a run holds at least one block");
                assert_eq!(first, execs, "run starts after {execs} exec events");
                for (k, &addr) in (first..).zip(addrs) {
                    let exec = WorkloadEvent::Exec { addr };
                    events.push(TimedEvent::with_thread(plan.exec_time(k), thread, exec));
                }
                execs += addrs.len() as u64;
            }
            Run::Unload { time, module } => {
                events.push(TimedEvent::new(time, WorkloadEvent::Unload { module }));
            }
        }
    }
    assert_eq!(execs, plan.total_exec_events());
    events
}

/// Runs flatten to exactly the event stream for a profile from each
/// family, a threaded profile and a DLL-churn profile.
#[test]
fn flattened_runs_are_the_event_stream() {
    let mut profiles: Vec<WorkloadProfile> = ["gzip", "word", "phaseflip"]
        .iter()
        .map(|name| benchmark(name).expect("built-in profile").scaled_down(64))
        .collect();
    profiles.push(
        WorkloadProfile::builder("threaded", Suite::Interactive)
            .footprint_kb(96)
            .phases(4)
            .threads(3)
            .seed(5)
            .build(),
    );
    profiles.push(
        WorkloadProfile::builder("churn", Suite::Interactive)
            .footprint_kb(128)
            .phases(6)
            .dlls(8, 0.75)
            .seed(11)
            .build(),
    );
    for profile in &profiles {
        let plan = ExecutionPlan::from_profile(profile).expect("plans");
        assert_eq!(
            flattened_runs(&plan),
            plan.events(),
            "{}: runs and events differ",
            profile.name
        );
    }
}

/// `next_run` after some `next` calls hands out the rest of the current
/// run, so the two walks can be mixed.
#[test]
fn next_run_resumes_after_next() {
    let plan = ExecutionPlan::from_profile(&benchmark("gzip").unwrap().scaled_down(64)).unwrap();
    let mut mixed = Vec::new();
    let mut stream = plan.stream();
    for step in 0usize.. {
        if step % 3 == 0 {
            let Some(ev) = stream.next() else { break };
            mixed.push(ev);
            continue;
        }
        match stream.next_run() {
            Some(Run::Blocks {
                thread,
                first,
                addrs,
            }) => {
                for (k, &addr) in (first..).zip(addrs) {
                    let exec = WorkloadEvent::Exec { addr };
                    mixed.push(TimedEvent::with_thread(plan.exec_time(k), thread, exec));
                }
            }
            Some(Run::Unload { time, module }) => {
                mixed.push(TimedEvent::new(time, WorkloadEvent::Unload { module }));
            }
            None => break,
        }
    }
    assert_eq!(mixed, plan.events());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn runs_flatten_to_the_stream(profile in profile_strategy(), threads in 1u32..4) {
        let mut profile = profile;
        profile.threads = threads;
        let plan = ExecutionPlan::from_profile(&profile).expect("plans");
        prop_assert_eq!(flattened_runs(&plan), plan.events());
    }

    #[test]
    fn any_valid_profile_plans(profile in profile_strategy()) {
        let plan = ExecutionPlan::from_profile(&profile).expect("valid profile plans");
        prop_assert!(plan.total_exec_events() > 0);
        prop_assert!(!plan.regions().is_empty());
        prop_assert!(!plan.steps().is_empty());
    }

    #[test]
    fn stream_matches_plan_accounting(profile in profile_strategy()) {
        let plan = ExecutionPlan::from_profile(&profile).expect("plans");
        let mut execs = 0u64;
        let mut unloads = 0usize;
        let mut last = Time::ZERO;
        for ev in plan.stream() {
            prop_assert!(ev.time >= last, "timestamps must be monotone");
            prop_assert!(ev.time <= plan.duration());
            last = ev.time;
            match ev.event {
                WorkloadEvent::Exec { addr } => {
                    execs += 1;
                    prop_assert!(
                        plan.image().block_at(addr).is_some(),
                        "exec of unknown block {addr}"
                    );
                }
                WorkloadEvent::Unload { .. } => unloads += 1,
            }
        }
        prop_assert_eq!(execs, plan.total_exec_events());
        let planned_unloads = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, PlanStep::Unload { .. }))
            .count();
        prop_assert_eq!(unloads, planned_unloads);
    }

    #[test]
    fn planning_is_a_pure_function_of_the_profile(profile in profile_strategy()) {
        let a = ExecutionPlan::from_profile(&profile).expect("plans");
        let b = ExecutionPlan::from_profile(&profile).expect("plans");
        prop_assert_eq!(a.total_exec_events(), b.total_exec_events());
        prop_assert_eq!(a.steps(), b.steps());
        prop_assert_eq!(a.image().total_code_bytes(), b.image().total_code_bytes());
    }

    #[test]
    fn unloaded_modules_never_execute_afterwards(profile in profile_strategy()) {
        let plan = ExecutionPlan::from_profile(&profile).expect("plans");
        let mut unloaded: Vec<gencache_program::ModuleId> = Vec::new();
        for ev in plan.stream() {
            match ev.event {
                WorkloadEvent::Unload { module } => unloaded.push(module),
                WorkloadEvent::Exec { addr } => {
                    if let Some(module) = plan.image().module_containing(addr) {
                        prop_assert!(
                            !unloaded.contains(&module.id()),
                            "executed code in unloaded module {}",
                            module.id()
                        );
                    }
                }
            }
        }
    }
}
