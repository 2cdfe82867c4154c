//! Streaming execution of an [`ExecutionPlan`].
//!
//! The stream walks the plan's steps and hands out one [`Run`] per loop
//! iteration, region exit or unload, never materializing the whole run in
//! memory — full-scale benchmarks produce tens of millions of block
//! executions. As an iterator it yields the same runs one
//! [`TimedEvent`] per executed block.

use gencache_program::{Addr, ModuleId, Time};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::{TimedEvent, WorkloadEvent};
use crate::plan::{ExecutionPlan, PlanStep};

/// One stretch of the stream that a consumer can take whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Run<'a> {
    /// Consecutive block executions on one guest thread: the rest of one
    /// iteration path, or a region's exit block. Block `i` is exec event
    /// `first + i`, at [`ExecutionPlan::exec_time`]`(first + i)`.
    Blocks {
        /// The guest thread executing the blocks.
        thread: u32,
        /// Exec-event index of `addrs[0]`.
        first: u64,
        /// Start addresses of the executed blocks, in order.
        addrs: &'a [Addr],
    },
    /// The program unmapped `module` at `time`.
    Unload {
        /// When the unmap happened.
        time: Time,
        /// The unmapped module.
        module: ModuleId,
    },
}

/// A walk over the dynamic events of one planned run, by [`Run`]
/// ([`EventStream::next_run`]) or by event (the [`Iterator`]).
///
/// Timestamps are assigned by position: exec event `k` of `n` occurs at
/// `duration * k / n`, so the simulated clock advances uniformly with
/// executed code.
#[derive(Debug)]
pub struct EventStream<'a> {
    plan: &'a ExecutionPlan,
    step_idx: usize,
    state: Option<RunState>,
    /// Exec events handed out in runs so far.
    emitted: u64,
    /// Thread and blocks of the last run that the iterator has not yet
    /// yielded.
    rest: (u32, &'a [Addr]),
}

#[derive(Debug)]
struct RunState {
    region: usize,
    iterations_left: u32,
    variant: usize,
    exit_pending: bool,
    thread: u32,
    rng: StdRng,
}

impl<'a> EventStream<'a> {
    pub(crate) fn new(plan: &'a ExecutionPlan) -> Self {
        EventStream {
            plan,
            step_idx: 0,
            state: None,
            emitted: 0,
            rest: (0, &[]),
        }
    }

    /// The next run, or `None` at the end of the plan. Blocks the
    /// iterator has not yet yielded from the last run come first.
    pub fn next_run(&mut self) -> Option<Run<'a>> {
        let plan = self.plan;
        let (thread, rest) = std::mem::take(&mut self.rest);
        if !rest.is_empty() {
            let first = self.emitted - rest.len() as u64;
            return Some(Run::Blocks {
                thread,
                first,
                addrs: rest,
            });
        }
        loop {
            if let Some(state) = &mut self.state {
                let region = &plan.regions()[state.region].region;
                let thread = state.thread;
                let addrs = if state.exit_pending {
                    self.state = None;
                    std::slice::from_ref(&region.exit_block)
                } else {
                    let path = region.path(state.variant);
                    state.iterations_left -= 1;
                    if state.iterations_left == 0 {
                        state.exit_pending = true;
                    } else {
                        state.variant = state.rng.gen_range(0..region.path_count());
                    }
                    path
                };
                if addrs.is_empty() {
                    continue;
                }
                let first = self.emitted;
                self.emitted += addrs.len() as u64;
                return Some(Run::Blocks {
                    thread,
                    first,
                    addrs,
                });
            }
            // No active run: advance to the next step.
            let step = *plan.steps().get(self.step_idx)?;
            self.step_idx += 1;
            match step {
                PlanStep::Run {
                    region,
                    iterations,
                    variant_seed,
                    thread,
                } => {
                    let mut rng = StdRng::seed_from_u64(variant_seed);
                    let paths = plan.regions()[region].region.path_count();
                    let variant = rng.gen_range(0..paths);
                    self.state = Some(RunState {
                        region,
                        iterations_left: iterations,
                        variant,
                        exit_pending: false,
                        thread,
                        rng,
                    });
                }
                PlanStep::Unload { module } => {
                    return Some(Run::Unload {
                        time: plan.exec_time(self.emitted),
                        module,
                    });
                }
            }
        }
    }
}

impl Iterator for EventStream<'_> {
    type Item = TimedEvent;

    fn next(&mut self) -> Option<TimedEvent> {
        if self.rest.1.is_empty() {
            match self.next_run()? {
                Run::Blocks { thread, addrs, .. } => self.rest = (thread, addrs),
                Run::Unload { time, module } => {
                    return Some(TimedEvent::new(time, WorkloadEvent::Unload { module }));
                }
            }
        }
        let (thread, rest) = self.rest;
        let (&addr, tail) = rest.split_first()?;
        self.rest.1 = tail;
        let k = self.emitted - rest.len() as u64;
        Some(TimedEvent::with_thread(
            self.plan.exec_time(k),
            thread,
            WorkloadEvent::Exec { addr },
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{Suite, WorkloadProfile};

    fn plan() -> ExecutionPlan {
        let p = WorkloadProfile::builder("streamtest", Suite::Interactive)
            .footprint_kb(32)
            .phases(3)
            .dlls(2, 1.0)
            .build();
        ExecutionPlan::from_profile(&p).unwrap()
    }

    #[test]
    fn exec_event_count_matches_plan() {
        let plan = plan();
        let events = plan.events();
        let execs = events
            .iter()
            .filter(|e| matches!(e.event, WorkloadEvent::Exec { .. }))
            .count() as u64;
        assert_eq!(execs, plan.total_exec_events());
    }

    #[test]
    fn timestamps_are_monotonic_and_bounded() {
        let plan = plan();
        let mut last = Time::ZERO;
        for e in plan.stream() {
            assert!(e.time >= last, "time went backwards");
            assert!(e.time <= plan.duration());
            last = e.time;
        }
        // The run should span most of the declared duration.
        assert!(last.as_secs_f64() > plan.duration().as_secs_f64() * 0.95);
    }

    #[test]
    fn stream_is_deterministic() {
        let plan = plan();
        let a = plan.events();
        let b = plan.events();
        assert_eq!(a, b);
    }

    #[test]
    fn unload_events_match_plan_steps() {
        let plan = plan();
        let expected = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, PlanStep::Unload { .. }))
            .count();
        let got = plan
            .events()
            .iter()
            .filter(|e| matches!(e.event, WorkloadEvent::Unload { .. }))
            .count();
        assert_eq!(expected, got);
    }

    #[test]
    fn every_exec_address_is_a_real_block() {
        let plan = plan();
        // Unloads only happen at phase ends, after their module's code ran;
        // validate addresses against the full (never-unmapped) image by
        // checking before applying unloads. Here we simply verify against
        // the static image since nothing is ever re-mapped differently.
        for e in plan.stream() {
            if let WorkloadEvent::Exec { addr } = e.event {
                assert!(
                    plan.image().block_at(addr).is_some(),
                    "unknown block {addr}"
                );
            }
        }
    }

    #[test]
    fn branchy_regions_alternate_variants() {
        // Over a long stream, both variants of at least one branchy region
        // should be exercised. We detect this indirectly: the set of
        // distinct executed addresses should cover every variant path of
        // every region that was scheduled with enough iterations.
        let plan = plan();
        use std::collections::HashSet;
        let mut seen: HashSet<u64> = HashSet::new();
        for e in plan.stream() {
            if let WorkloadEvent::Exec { addr } = e.event {
                seen.insert(addr.as_u64());
            }
        }
        let mut multi_variant_regions = 0;
        for r in plan.regions() {
            if r.region.path_count() > 1 {
                multi_variant_regions += 1;
                // At minimum the shared prefix must have run.
                assert!(seen.contains(&r.region.path(0)[0].as_u64()));
            }
        }
        assert!(
            multi_variant_regions > 0,
            "plan should contain branchy loops"
        );
    }
}
