//! Adversarial stress profiles: workloads built so that *no single
//! static cache configuration wins*.
//!
//! The paper's benchmarks are stationary — one lifetime mix for the
//! whole run — so some fixed §6 grid point is always (near-)optimal for
//! each. These profiles use [`RegimeShift`] to alternate between a calm,
//! persistent-heavy regime (rewarding a large persistent cache) and a
//! transient flood regime (rewarding a large nursery and punishing
//! anything that hoards capacity for long-lived code). Whatever split a
//! static configuration picks, one regime penalizes it; the adaptive
//! policy engine is judged on beating every static grid point here,
//! on the oracle-regret scale.
//!
//! These profiles are reachable through
//! [`benchmark`](crate::benchmark) / [`adversarial_benchmark`] but are
//! deliberately **not** part of [`all_benchmarks`](crate::all_benchmarks):
//! they are stress instruments, not part of the paper's 38-benchmark
//! evaluation roster.

use crate::profile::{RegimeShift, Suite, WorkloadProfile};

/// The adversarial stress profiles, in display order.
pub fn adversarial() -> Vec<WorkloadProfile> {
    vec![
        // One hard mid-run flip: a long calm half with a large stable
        // hot set, then a churning half where the hot set is replaced
        // and transient code floods in at 3x the calm rate. Static
        // persistent-heavy layouts win the first half and lose the
        // second; nursery-heavy layouts the reverse.
        WorkloadProfile::builder("phaseflip", Suite::Adversarial)
            .description("Mid-run regime flip: calm/persistent, then flooding/transient")
            .duration_secs(120.0)
            .footprint_kb(4_000)
            .phases(8)
            .lifetime_mix(0.34, 0.04)
            .dlls(10, 0.70)
            .hot_revisits(6)
            .iteration_tuning(25, 8)
            .regime_shift(RegimeShift {
                period: 4,
                persistent_frac: 0.05,
                medium_frac: 0.03,
                flood: 3.0,
            })
            .build(),
        // Rapid alternation every other phase with a violent flood
        // factor and heavy DLL unmapping: re-miss churn spikes each
        // time the regime turns over, and the productive layout flips
        // with it — adversarial for any fixed split and for promotion
        // rules tuned to either regime.
        WorkloadProfile::builder("churnstorm", Suite::Adversarial)
            .description("Alternating calm/flood phases with heavy DLL churn")
            .duration_secs(90.0)
            .footprint_kb(3_000)
            .phases(10)
            .lifetime_mix(0.30, 0.03)
            .dlls(12, 0.85)
            .hot_revisits(5)
            .iteration_tuning(22, 7)
            .regime_shift(RegimeShift {
                period: 2,
                persistent_frac: 0.04,
                medium_frac: 0.02,
                flood: 4.0,
            })
            .build(),
    ]
}

/// Looks up one adversarial profile by name.
pub fn adversarial_benchmark(name: &str) -> Option<WorkloadProfile> {
    adversarial().into_iter().find(|p| p.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::Role;
    use crate::plan::{ExecutionPlan, PlanStep};

    #[test]
    fn profiles_are_valid_and_shifted() {
        let all = adversarial();
        assert_eq!(all.len(), 2);
        for p in &all {
            assert!(p.validate().is_ok(), "{} invalid", p.name);
            assert_eq!(p.suite, Suite::Adversarial);
            assert!(p.shift.is_some(), "{} must carry a regime shift", p.name);
        }
    }

    #[test]
    fn lookup_finds_both() {
        assert!(adversarial_benchmark("phaseflip").is_some());
        assert!(adversarial_benchmark("churnstorm").is_some());
        assert!(adversarial_benchmark("calm").is_none());
    }

    #[test]
    fn plans_are_deterministic() {
        for p in adversarial() {
            let p = p.scaled_down(64);
            let a = ExecutionPlan::from_profile(&p).unwrap();
            let b = ExecutionPlan::from_profile(&p).unwrap();
            assert_eq!(a.total_exec_events(), b.total_exec_events());
            assert_eq!(a.steps().len(), b.steps().len());
        }
    }

    #[test]
    fn flood_phases_host_more_transient_code() {
        let p = adversarial_benchmark("phaseflip").unwrap().scaled_down(16);
        let shift = p.shift.unwrap();
        let plan = ExecutionPlan::from_profile(&p).unwrap();
        let mut calm = 0u64;
        let mut flood = 0u64;
        for r in plan.regions() {
            if let Role::PhaseLocal { phase } = r.role {
                if (phase / shift.period) % 2 == 1 {
                    flood += r.path_bytes;
                } else {
                    calm += r.path_bytes;
                }
            }
        }
        assert!(
            flood > calm,
            "flood phases must carry more transient code (calm {calm}, flood {flood})"
        );
    }

    #[test]
    fn both_regimes_run_their_own_hot_set() {
        // The schedule must keep executing *some* persistent region in
        // every phase of both regimes (each regime has its own group).
        let p = adversarial_benchmark("churnstorm").unwrap().scaled_down(16);
        let plan = ExecutionPlan::from_profile(&p).unwrap();
        let persistent: Vec<usize> = plan
            .regions()
            .iter()
            .enumerate()
            .filter(|(_, r)| r.role == Role::Persistent)
            .map(|(i, _)| i)
            .collect();
        assert!(!persistent.is_empty());
        let runs_of_persistent = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, PlanStep::Run { region, .. } if persistent.contains(region)))
            .count();
        assert!(runs_of_persistent > 0);
    }
}
