//! # gencache-sim
//!
//! The trace-driven evaluation harness for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! The paper's methodology (Section 6) is a two-step pipeline:
//!
//! 1. **Record** — run the benchmark under the dynamic optimizer with an
//!    *unbounded* code cache and capture the verbose log of trace
//!    creations, trace-cache accesses, and unmap invalidations. A
//!    [`Recording`] has two constructors: [`record`] materializes the log
//!    as an [`AccessLog`] inside a [`RecordedRun`], and
//!    [`StreamedRecording::probe`] keeps only the run facts and
//!    re-records through a bounded channel for every replay pass.
//! 2. **Replay** — drive bounded cache simulators from the recording: a
//!    unified pseudo-circular cache sized at half the benchmark's
//!    unbounded peak ([`standard_capacity`]), versus generational
//!    hierarchies of identical total size ([`compare`],
//!    [`compare_figure9`]). Every replay driver takes any [`Recording`]
//!    and drives all its models from one pass, so the two constructors
//!    give byte-identical results.
//!
//! Plus [`sweep`] for the proportion × promotion-threshold configuration
//! study, [`par`] for the deterministic thread-scoped fan-out that
//! drives it (and the suite-level drivers in `gencache-bench`), and
//! [`report`] helpers for rendering the paper's tables and figures as
//! text.
//!
//! ```
//! use gencache_sim::{compare_figure9, record};
//! use gencache_workloads::{Suite, WorkloadProfile};
//!
//! let profile = WorkloadProfile::builder("demo", Suite::Spec2000)
//!     .footprint_kb(24)
//!     .build();
//! let run = record(&profile)?;
//! let comparison = compare_figure9(&run.log);
//! println!(
//!     "unified miss rate {:.2}%, best generational {:.2}%",
//!     comparison.unified.miss_rate() * 100.0,
//!     comparison.generational[1].miss_rate() * 100.0,
//! );
//! # Ok::<(), gencache_workloads::PlanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod analysis;
mod linking;
mod log;
pub mod par;
mod progress;
mod recorder;
mod recording;
mod replay;
pub mod report;
mod simulate;
mod streamed;
mod sweep;
mod threads;

pub use analysis::{occupancy_series, reuse_profile, ReuseProfile};
pub use linking::{replay_with_linking, LinkReport, LinkableModel};
pub use log::{AccessLog, LogRecord};
pub use progress::{ProgressMeter, PROGRESS_BATCH};
pub use recorder::{
    record, record_stream_with, record_with, RecordFacts, RecordedRun, RecorderOptions, RunSummary,
};
pub use recording::{standard_capacity, Metered, Recording};
pub use replay::{
    compare, compare_figure9, replay_into, Comparison, ReplayCursor, ReplayResult, ReplayStep,
};
pub use simulate::{
    parse_spec, replay_observed, replay_sim_observed, replay_spec, simulate_cell, simulate_costs,
    simulate_metrics, simulate_regret_top, simulate_switches, simulate_windows, trace_to_log,
    CellSections, LocalPolicy, SimSpec, SimulatedSpec, SpecReports,
};
pub use streamed::{StreamedRecording, DEFAULT_STREAM_DEPTH};
pub use sweep::{best_point, policy_grid, proportion_grid, sweep, sweep_with_jobs, SweepPoint};
pub use threads::{
    partition_by_module, replay_thread_private, replay_thread_shared, BudgetSplit, ThreadCacheKind,
    ThreadedOutcome,
};
