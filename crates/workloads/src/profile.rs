//! Workload profiles: the tunable description of one benchmark.
//!
//! The paper evaluates two suites — SPEC2000 and large interactive Windows
//! applications (Table 1). We cannot rerun DynamoRIO over the originals,
//! so each benchmark becomes a *profile*: a parameterized synthetic
//! program whose code footprint, phase structure, trace-lifetime mix, and
//! DLL churn are calibrated to land near the characterization the paper
//! reports (Figures 1–4 and 6).

use serde::{Deserialize, Serialize};

/// Which benchmark suite a profile belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Suite {
    /// The SPEC CPU2000 suite, run to completion on reference inputs.
    Spec2000,
    /// Large interactive Windows applications (Table 1).
    Interactive,
    /// Synthetic stress workloads outside the paper's evaluation:
    /// phase-shifting and churn-adversarial streams built to defeat any
    /// single static configuration.
    Adversarial,
}

impl std::fmt::Display for Suite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Suite::Spec2000 => f.write_str("SPEC2000"),
            Suite::Interactive => f.write_str("Interactive"),
            Suite::Adversarial => f.write_str("Adversarial"),
        }
    }
}

/// An optional mid-run regime alternation: every `period` phases the
/// workload flips between the profile's own lifetime mix and this
/// alternate mix, with its *own* set of long-lived regions and a
/// `flood`-weighted share of the short-lived code.
///
/// The two regimes deliberately reward different cache layouts — a
/// persistent-lean calm regime and a nursery-hungry flood regime — so a
/// run containing both has no single best static configuration. This is
/// the lever behind the [`Suite::Adversarial`] profiles the adaptive
/// policy engine is judged on.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RegimeShift {
    /// Phases per regime segment; segment index `phase / period` is even
    /// for the base regime, odd for the alternate one.
    pub period: u32,
    /// Alternate-regime fraction of hot-code bytes that is long-lived.
    pub persistent_frac: f64,
    /// Alternate-regime fraction with medium lifetimes.
    pub medium_frac: f64,
    /// Weight of alternate-regime phases when spreading short-lived
    /// code: `2.0` gives flood phases twice the transient code of calm
    /// ones.
    pub flood: f64,
}

/// The synthetic description of one benchmark.
///
/// # Examples
///
/// ```
/// use gencache_workloads::{Suite, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("toy", Suite::Spec2000)
///     .description("tiny example workload")
///     .duration_secs(5.0)
///     .footprint_kb(64)
///     .phases(4)
///     .build();
/// assert_eq!(profile.name, "toy");
/// assert!(profile.footprint_bytes > 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Benchmark name (e.g. `"gcc"` or `"word"`).
    pub name: String,
    /// Which suite the benchmark belongs to.
    pub suite: Suite,
    /// Human-readable description (Table 1's "Description" column).
    pub description: String,
    /// Wall-clock duration of the run in seconds (Table 1's "Seconds").
    pub duration_secs: f64,
    /// Static code bytes the program executes (its application footprint,
    /// the denominator of Equation 1).
    pub footprint_bytes: u64,
    /// Number of program phases. Phase-local code lives for roughly
    /// `1/phases` of the run, so more phases ⇒ shorter short-lived
    /// lifetimes.
    pub phases: u32,
    /// Fraction of hot-code bytes that is *long-lived* — re-executed in
    /// every phase (event dispatch, main loops).
    pub persistent_frac: f64,
    /// Fraction of hot-code bytes with *medium* lifetimes, spanning a few
    /// consecutive phases.
    pub medium_frac: f64,
    /// Number of shared libraries the program maps.
    pub dll_count: u32,
    /// Fraction of DLLs that get unmapped during the run (drives the
    /// Figure 4 unmapped-memory deletions; ≈ 0 for SPEC).
    pub dll_unload_frac: f64,
    /// How many times per phase the long-lived regions are re-executed.
    pub hot_revisits: u32,
    /// Iterations to run a region's loop beyond the trace-creation
    /// threshold on its first activation (controls post-creation trace
    /// accesses).
    pub warmup_extra_iters: u32,
    /// Iterations per re-visit burst of an already-hot region.
    pub revisit_iters: u32,
    /// RNG seed; derived from the name by default so every profile is
    /// deterministic.
    pub seed: u64,
    /// Number of guest threads. Long-lived (persistent) regions are
    /// *shared*: every thread executes them, so per-thread code caches
    /// each build their own copy of the shared hot traces. Phase-local
    /// regions are thread-private. Defaults to 1 (the paper's
    /// single-threaded evaluation).
    pub threads: u32,
    /// Optional regime alternation (see [`RegimeShift`]); `None` — the
    /// default, and every paper benchmark — keeps one stationary regime
    /// for the whole run.
    pub shift: Option<RegimeShift>,
}

impl WorkloadProfile {
    /// Starts building a profile with sensible defaults.
    pub fn builder(name: impl Into<String>, suite: Suite) -> WorkloadProfileBuilder {
        let name = name.into();
        let seed = name.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        WorkloadProfileBuilder {
            profile: WorkloadProfile {
                name,
                suite,
                description: String::new(),
                duration_secs: 10.0,
                footprint_bytes: 256 * 1024,
                phases: 8,
                persistent_frac: 0.20,
                medium_frac: 0.10,
                dll_count: if suite == Suite::Interactive { 12 } else { 2 },
                dll_unload_frac: if suite == Suite::Interactive {
                    0.5
                } else {
                    0.0
                },
                hot_revisits: 3,
                warmup_extra_iters: 25,
                revisit_iters: 6,
                seed,
                threads: 1,
                shift: None,
            },
        }
    }

    /// Returns a copy with the footprint divided by `factor` (for fast
    /// tests and smoke runs). Durations and fractions are unchanged, so
    /// rates scale down with size but the figure *shapes* are preserved.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is zero.
    #[must_use]
    pub fn scaled_down(&self, factor: u64) -> WorkloadProfile {
        assert!(factor > 0, "scale factor must be nonzero");
        let mut p = self.clone();
        p.footprint_bytes = (p.footprint_bytes / factor).max(8 * 1024);
        p
    }

    /// Validates internal consistency (fractions in range, nonzero sizes).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("profile name must not be empty".into());
        }
        if self.duration_secs <= 0.0 || self.duration_secs.is_nan() {
            return Err(format!(
                "duration must be positive, got {}",
                self.duration_secs
            ));
        }
        if self.footprint_bytes < 4096 {
            return Err(format!(
                "footprint {} too small to lay out a program",
                self.footprint_bytes
            ));
        }
        if self.phases == 0 {
            return Err("phase count must be nonzero".into());
        }
        if self.threads == 0 {
            return Err("thread count must be nonzero".into());
        }
        let frac_sum = self.persistent_frac + self.medium_frac;
        if !(0.0..=1.0).contains(&self.persistent_frac)
            || !(0.0..=1.0).contains(&self.medium_frac)
            || frac_sum > 1.0
        {
            return Err(format!(
                "persistent ({}) + medium ({}) fractions must fit in [0,1]",
                self.persistent_frac, self.medium_frac
            ));
        }
        if !(0.0..=1.0).contains(&self.dll_unload_frac) {
            return Err(format!(
                "dll_unload_frac {} out of [0,1]",
                self.dll_unload_frac
            ));
        }
        if let Some(shift) = &self.shift {
            if shift.period == 0 {
                return Err("regime shift period must be nonzero".into());
            }
            if shift.period >= self.phases {
                return Err(format!(
                    "regime shift period {} must leave room for both regimes in {} phases",
                    shift.period, self.phases
                ));
            }
            let frac_sum = shift.persistent_frac + shift.medium_frac;
            if !(0.0..=1.0).contains(&shift.persistent_frac)
                || !(0.0..=1.0).contains(&shift.medium_frac)
                || frac_sum > 1.0
            {
                return Err(format!(
                    "shift persistent ({}) + medium ({}) fractions must fit in [0,1]",
                    shift.persistent_frac, shift.medium_frac
                ));
            }
            if shift.flood <= 0.0 || !shift.flood.is_finite() {
                return Err(format!(
                    "shift flood weight {} must be positive",
                    shift.flood
                ));
            }
        }
        Ok(())
    }
}

/// Builder for [`WorkloadProfile`] (see `C-BUILDER`).
#[derive(Debug, Clone)]
pub struct WorkloadProfileBuilder {
    profile: WorkloadProfile,
}

impl WorkloadProfileBuilder {
    /// Sets the human-readable description.
    pub fn description(mut self, d: impl Into<String>) -> Self {
        self.profile.description = d.into();
        self
    }

    /// Sets the run duration in seconds.
    pub fn duration_secs(mut self, secs: f64) -> Self {
        self.profile.duration_secs = secs;
        self
    }

    /// Sets the application footprint in kilobytes.
    pub fn footprint_kb(mut self, kb: u64) -> Self {
        self.profile.footprint_bytes = kb * 1024;
        self
    }

    /// Sets the number of program phases.
    pub fn phases(mut self, phases: u32) -> Self {
        self.profile.phases = phases;
        self
    }

    /// Sets the long-lived and medium-lived byte fractions.
    pub fn lifetime_mix(mut self, persistent: f64, medium: f64) -> Self {
        self.profile.persistent_frac = persistent;
        self.profile.medium_frac = medium;
        self
    }

    /// Sets the shared-library count and the fraction unmapped mid-run.
    pub fn dlls(mut self, count: u32, unload_frac: f64) -> Self {
        self.profile.dll_count = count;
        self.profile.dll_unload_frac = unload_frac;
        self
    }

    /// Sets how often long-lived regions re-run per phase.
    pub fn hot_revisits(mut self, revisits: u32) -> Self {
        self.profile.hot_revisits = revisits;
        self
    }

    /// Sets warmup and revisit iteration counts.
    pub fn iteration_tuning(mut self, warmup_extra: u32, revisit: u32) -> Self {
        self.profile.warmup_extra_iters = warmup_extra;
        self.profile.revisit_iters = revisit;
        self
    }

    /// Overrides the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.profile.seed = seed;
        self
    }

    /// Sets the number of guest threads (see [`WorkloadProfile::threads`]).
    pub fn threads(mut self, threads: u32) -> Self {
        self.profile.threads = threads;
        self
    }

    /// Enables mid-run regime alternation (see [`RegimeShift`]).
    pub fn regime_shift(mut self, shift: RegimeShift) -> Self {
        self.profile.shift = Some(shift);
        self
    }

    /// Finalizes the profile.
    ///
    /// # Panics
    ///
    /// Panics if the assembled profile fails [`WorkloadProfile::validate`];
    /// builder misuse is a programming error.
    pub fn build(self) -> WorkloadProfile {
        if let Err(e) = self.profile.validate() {
            panic!("invalid workload profile: {e}");
        }
        self.profile
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_valid() {
        let p = WorkloadProfile::builder("x", Suite::Spec2000).build();
        assert!(p.validate().is_ok());
        assert_eq!(p.suite, Suite::Spec2000);
    }

    #[test]
    fn seed_is_name_derived_and_stable() {
        let a = WorkloadProfile::builder("gcc", Suite::Spec2000).build();
        let b = WorkloadProfile::builder("gcc", Suite::Spec2000).build();
        let c = WorkloadProfile::builder("gzip", Suite::Spec2000).build();
        assert_eq!(a.seed, b.seed);
        assert_ne!(a.seed, c.seed);
    }

    #[test]
    fn scaled_down_clamps() {
        let p = WorkloadProfile::builder("x", Suite::Spec2000)
            .footprint_kb(1024)
            .build();
        assert_eq!(p.scaled_down(4).footprint_bytes, 256 * 1024);
        // Clamped to the 8 KB minimum.
        assert_eq!(p.scaled_down(1_000_000).footprint_bytes, 8 * 1024);
    }

    #[test]
    #[should_panic(expected = "scale factor")]
    fn zero_scale_rejected() {
        let p = WorkloadProfile::builder("x", Suite::Spec2000).build();
        let _ = p.scaled_down(0);
    }

    #[test]
    fn validation_catches_bad_fractions() {
        let mut p = WorkloadProfile::builder("x", Suite::Spec2000).build();
        p.persistent_frac = 0.8;
        p.medium_frac = 0.5;
        assert!(p.validate().is_err());
        p.medium_frac = 0.1;
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_catches_zero_duration_and_phases() {
        let mut p = WorkloadProfile::builder("x", Suite::Spec2000).build();
        p.duration_secs = 0.0;
        assert!(p.validate().is_err());
        p.duration_secs = 1.0;
        p.phases = 0;
        assert!(p.validate().is_err());
        p.phases = 2;
        p.threads = 0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn threads_default_to_one() {
        let p = WorkloadProfile::builder("x", Suite::Spec2000).build();
        assert_eq!(p.threads, 1);
        let p = WorkloadProfile::builder("x", Suite::Spec2000)
            .threads(4)
            .build();
        assert_eq!(p.threads, 4);
    }

    #[test]
    #[should_panic(expected = "invalid workload profile")]
    fn builder_panics_on_invalid() {
        let _ = WorkloadProfile::builder("x", Suite::Spec2000)
            .lifetime_mix(0.9, 0.9)
            .build();
    }
}
