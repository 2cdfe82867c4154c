//! # gencache-workloads
//!
//! Synthetic benchmark workloads for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! The paper evaluated DynamoRIO over SPEC CPU2000 and twelve large
//! interactive Windows applications (Table 1). Neither the applications
//! nor DynamoRIO's verbose logs are available, so this crate synthesizes
//! equivalent workloads: each benchmark is a [`WorkloadProfile`] whose
//! parameters (footprint, phase structure, lifetime mix, DLL churn) are
//! calibrated to reproduce the paper's characterization — cache sizes
//! (Figure 1), code expansion (Figure 2), insertion rates (Figure 3),
//! unmapped-memory deletions (Figure 4), and U-shaped trace lifetimes
//! (Figure 6).
//!
//! A profile becomes an [`ExecutionPlan`] (a synthetic program image plus
//! a phase schedule), which streams [`TimedEvent`]s — executed basic
//! blocks and module unloads — for the DBT frontend to consume.
//!
//! ```
//! use gencache_workloads::{interactive_benchmark, ExecutionPlan};
//!
//! // A down-scaled `word` for quick experiments.
//! let profile = interactive_benchmark("word").unwrap().scaled_down(256);
//! let plan = ExecutionPlan::from_profile(&profile)?;
//! let events: Vec<_> = plan.stream().take(100).collect();
//! assert_eq!(events.len(), 100);
//! # Ok::<(), gencache_workloads::PlanError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adversarial;
mod events;
mod interactive;
mod plan;
mod profile;
mod spec;
mod stream;

pub use adversarial::{adversarial, adversarial_benchmark};
pub use events::{TimedEvent, WorkloadEvent};
pub use interactive::{interactive, interactive_benchmark};
pub use plan::{ExecutionPlan, PlanError, PlanStep, PlannedRegion, Role};
pub use profile::{RegimeShift, Suite, WorkloadProfile, WorkloadProfileBuilder};
pub use spec::{spec2000, spec_benchmark};
pub use stream::{EventStream, Run};

/// Every benchmark profile in the evaluation: 26 SPEC2000 followed by the
/// 12 interactive applications.
pub fn all_benchmarks() -> Vec<WorkloadProfile> {
    let mut all = spec2000();
    all.extend(interactive());
    all
}

/// Looks up any benchmark by name: both paper suites, plus the
/// adversarial stress profiles (which stay out of [`all_benchmarks`]).
pub fn benchmark(name: &str) -> Option<WorkloadProfile> {
    spec_benchmark(name)
        .or_else(|| interactive_benchmark(name))
        .or_else(|| adversarial_benchmark(name))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn combined_suite_has_38_benchmarks() {
        assert_eq!(all_benchmarks().len(), 38);
    }

    #[test]
    fn cross_suite_lookup() {
        assert_eq!(benchmark("gcc").unwrap().suite, Suite::Spec2000);
        assert_eq!(benchmark("word").unwrap().suite, Suite::Interactive);
        assert!(benchmark("nope").is_none());
    }

    #[test]
    fn names_are_unique() {
        let all = all_benchmarks();
        let mut names: Vec<&str> = all.iter().map(|p| p.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len());
    }
}
