//! # gencache-frontend
//!
//! The dynamic-binary-translation frontend for the `gencache`
//! reproduction of *Generational Cache Management of Code Traces in
//! Dynamic Optimization Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! This crate stands in for DynamoRIO's execution machinery: it consumes
//! a workload's basic-block execution stream, a run of blocks at a time,
//! and produces the *trace event stream* (creations, accesses, invalidations) that drives every
//! cache simulation in the paper's evaluation. It implements:
//!
//! * the basic-block cache and trace-head counters (threshold 50);
//! * **Next-Executed-Tail** trace selection — superblocks grown along the
//!   executed path until a backward branch or an existing trace head;
//! * trace exits: divergence from a trace body spawns new trace heads;
//! * module-unload invalidation (stale traces must die immediately);
//! * code relocation with PC-relative fix-up ([`relocate_trace`],
//!   Section 5.4).
//!
//! ```
//! use gencache_frontend::{Engine, FrontendEvent};
//! use gencache_workloads::{ExecutionPlan, Run, Suite, TimedEvent, WorkloadEvent, WorkloadProfile};
//!
//! let profile = WorkloadProfile::builder("demo", Suite::Spec2000)
//!     .footprint_kb(16)
//!     .build();
//! let plan = ExecutionPlan::from_profile(&profile)?;
//! let mut engine = Engine::new(plan.image().clone());
//! let mut accesses = 0u64;
//! let mut count = |fe: FrontendEvent| {
//!     if matches!(fe, FrontendEvent::TraceAccess { .. }) {
//!         accesses += 1;
//!     }
//! };
//! // One loop iteration at a time; `plan.stream()` with `on_event`
//! // gives the same events one block at a time.
//! let mut stream = plan.stream();
//! while let Some(run) = stream.next_run() {
//!     match run {
//!         Run::Blocks { first, addrs, .. } => {
//!             engine.on_blocks(addrs, first, |k| plan.exec_time(k), &mut |_k, fe| count(fe));
//!         }
//!         Run::Unload { time, module } => {
//!             let unload = TimedEvent::new(time, WorkloadEvent::Unload { module });
//!             engine.on_event(unload, &mut count);
//!         }
//!     }
//! }
//! assert!(engine.stats().traces_created > 0);
//! assert!(accesses > 0);
//! # Ok::<(), gencache_workloads::PlanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod engine;
mod relocate;
mod trace;

pub use engine::{Engine, FrontendEvent, FrontendStats};
pub use relocate::{relocate_trace, RelocationReport};
pub use trace::Trace;
