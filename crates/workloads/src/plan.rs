//! Turning a [`WorkloadProfile`] into a concrete, deterministic execution
//! plan: a synthetic program image plus a phase-structured schedule of
//! loop-region activations and module unloads.
//!
//! The planner is what encodes the paper's workload observations:
//!
//! * **U-shaped lifetimes** (Figure 6): regions are *persistent*
//!   (re-executed every phase), *phase-local* (executed in one phase,
//!   then never again), or *medium* (spanning a few phases).
//! * **Code expansion** (Figure 2): loop bodies call shared helper
//!   functions, which Next-Executed-Tail trace selection inlines into
//!   every calling trace, duplicating their code in the cache.
//! * **Unmapped memory** (Figure 4): shared libraries host phase-local
//!   code and a fraction of them are unmapped when their phase ends.

use gencache_program::{
    Addr, BuildError, ImageError, ModuleBuilder, ModuleId, ModuleKind, ProgramImage, Region, Time,
    TRACE_CREATION_THRESHOLD,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::events::TimedEvent;
use crate::profile::WorkloadProfile;
use crate::stream::EventStream;

/// The expected lifetime class of a region's traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Role {
    /// Re-executed in every phase: long-lived traces.
    Persistent,
    /// Executed during `span` consecutive phases starting at
    /// `first_phase`: middle-lifetime traces.
    Medium {
        /// First phase in which the region runs.
        first_phase: u32,
        /// Number of consecutive phases it stays active.
        span: u32,
    },
    /// Executed only within one phase: short-lived traces.
    PhaseLocal {
        /// The region's home phase.
        phase: u32,
    },
}

/// A region of the synthetic program plus its planning metadata.
#[derive(Debug, Clone)]
pub struct PlannedRegion {
    /// The region's layout and iteration paths.
    pub region: Region,
    /// The module hosting the region's code.
    pub module: ModuleId,
    /// Expected lifetime class.
    pub role: Role,
    /// Average bytes of code executed per iteration, including called
    /// helpers — an estimate of the trace size NET will produce.
    pub path_bytes: u64,
    /// Home thread for phase-local regions; persistent regions are shared
    /// and executed by every thread in rotation.
    pub home_thread: u32,
}

/// One scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanStep {
    /// Run a region's loop for `iterations` iterations, then exit it.
    Run {
        /// Index into [`ExecutionPlan::regions`].
        region: usize,
        /// Loop iterations to execute.
        iterations: u32,
        /// Seed for per-iteration path-variant choices.
        variant_seed: u64,
        /// Guest thread performing the run. Persistent (shared) regions
        /// rotate across threads; phase-local regions stay on their home
        /// thread.
        thread: u32,
    },
    /// Unmap a module.
    Unload {
        /// The module to unmap.
        module: ModuleId,
    },
}

/// Errors raised while planning a workload.
#[derive(Debug)]
pub enum PlanError {
    /// The profile failed validation.
    Profile(String),
    /// Laying out a module failed.
    Build(BuildError),
    /// Assembling the program image failed.
    Image(ImageError),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::Profile(msg) => write!(f, "invalid profile: {msg}"),
            PlanError::Build(e) => write!(f, "module layout failed: {e}"),
            PlanError::Image(e) => write!(f, "image assembly failed: {e}"),
        }
    }
}

impl std::error::Error for PlanError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PlanError::Build(e) => Some(e),
            PlanError::Image(e) => Some(e),
            PlanError::Profile(_) => None,
        }
    }
}

impl From<BuildError> for PlanError {
    fn from(e: BuildError) -> Self {
        PlanError::Build(e)
    }
}

impl From<ImageError> for PlanError {
    fn from(e: ImageError) -> Self {
        PlanError::Image(e)
    }
}

/// A fully planned benchmark run: program image, regions with roles, and
/// the step schedule. Feed it to [`ExecutionPlan::stream`] to obtain the
/// dynamic event sequence.
///
/// # Examples
///
/// ```
/// use gencache_workloads::{ExecutionPlan, Suite, WorkloadProfile};
///
/// let profile = WorkloadProfile::builder("demo", Suite::Spec2000)
///     .footprint_kb(32)
///     .build();
/// let plan = ExecutionPlan::from_profile(&profile)?;
/// assert!(plan.total_exec_events() > 0);
/// let first = plan.stream().next().unwrap();
/// assert_eq!(first.time, gencache_program::Time::ZERO);
/// # Ok::<(), gencache_workloads::PlanError>(())
/// ```
#[derive(Debug)]
pub struct ExecutionPlan {
    profile: WorkloadProfile,
    image: ProgramImage,
    regions: Vec<PlannedRegion>,
    steps: Vec<PlanStep>,
    total_exec_events: u64,
    duration: Time,
}

impl ExecutionPlan {
    /// Plans the run described by `profile`. Deterministic: the same
    /// profile (same seed) always yields an identical plan.
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the profile is invalid or layout fails.
    pub fn from_profile(profile: &WorkloadProfile) -> Result<Self, PlanError> {
        profile.validate().map_err(PlanError::Profile)?;
        let mut rng = StdRng::seed_from_u64(profile.seed);

        // ---- 1. Module byte budgets -----------------------------------
        // Persistent and medium regions live in the executable (it is
        // never unmapped), so the executable must be large enough to host
        // them.
        let reserved = profile.persistent_frac + profile.medium_frac;
        let exe_frac = (0.55f64).max(reserved + 0.15).min(1.0);
        let dll_count = if exe_frac >= 0.999 {
            0
        } else {
            profile.dll_count
        };
        let exe_bytes = if dll_count == 0 {
            profile.footprint_bytes
        } else {
            (profile.footprint_bytes as f64 * exe_frac) as u64
        };
        let dll_pool = profile.footprint_bytes.saturating_sub(exe_bytes);

        // ---- 2. Lay out modules ----------------------------------------
        let mut image = ProgramImage::new();
        let mut regions: Vec<PlannedRegion> = Vec::new();

        let exe_id = ModuleId::new(0);
        let (exe_module, exe_regions) = build_module(
            &mut rng,
            exe_id,
            format!("{}.exe", profile.name),
            ModuleKind::Executable,
            Addr::new(0x0040_0000),
            exe_bytes,
        )?;
        image.map(exe_module)?;
        let exe_region_range = 0..exe_regions.len();
        regions.extend(exe_regions);

        let mut dll_home_phase: Vec<(ModuleId, u32)> = Vec::new();
        for d in 0..dll_count {
            let share = dll_pool / u64::from(dll_count);
            if share < 4096 {
                break;
            }
            let id = ModuleId::new(d + 1);
            let (module, dll_regions) = build_module(
                &mut rng,
                id,
                format!("lib{d:02}.dll"),
                ModuleKind::SharedLibrary,
                Addr::new(0x1000_0000 + u64::from(d) * 0x0100_0000),
                share,
            )?;
            image.map(module)?;
            let home = rng.gen_range(0..profile.phases);
            for mut r in dll_regions {
                r.role = Role::PhaseLocal { phase: home };
                regions.push(r);
            }
            dll_home_phase.push((id, home));
        }

        // ---- 3. Assign lifetime roles to executable regions ------------
        let total_path: u64 = regions.iter().map(|r| r.path_bytes).sum();
        let mut exe_indices: Vec<usize> = exe_region_range.collect();
        exe_indices.shuffle(&mut rng);

        let persistent_target = (total_path as f64 * profile.persistent_frac) as u64;
        let mut base_persistents: Vec<usize> = Vec::new();
        let mut alt_persistents: Vec<usize> = Vec::new();
        let mut assigned = 0u64;
        let mut cursor = 0usize;
        while cursor < exe_indices.len() && assigned < persistent_target {
            let idx = exe_indices[cursor];
            regions[idx].role = Role::Persistent;
            base_persistents.push(idx);
            assigned += regions[idx].path_bytes;
            cursor += 1;
        }
        if let Some(shift) = &profile.shift {
            // The alternate regime gets its own, disjoint long-lived
            // working set, sized by its own fraction: when the regime
            // flips, the hot set flips with it.
            let alt_target = (total_path as f64 * shift.persistent_frac) as u64;
            assigned = 0;
            while cursor < exe_indices.len() && assigned < alt_target {
                let idx = exe_indices[cursor];
                regions[idx].role = Role::Persistent;
                alt_persistents.push(idx);
                assigned += regions[idx].path_bytes;
                cursor += 1;
            }
        }
        let medium_frac = profile.shift.map_or(profile.medium_frac, |s| {
            (profile.medium_frac + s.medium_frac) / 2.0
        });
        let medium_target = (total_path as f64 * medium_frac) as u64;
        assigned = 0;
        while cursor < exe_indices.len() && assigned < medium_target {
            let idx = exe_indices[cursor];
            let span = rng.gen_range(2..=3.min(profile.phases.max(2)));
            let first_phase = if profile.phases > span {
                rng.gen_range(0..profile.phases - span)
            } else {
                0
            };
            regions[idx].role = Role::Medium { first_phase, span };
            assigned += regions[idx].path_bytes;
            cursor += 1;
        }
        // Remaining executable regions are phase-local, spread evenly —
        // or, under a regime shift, weighted so flood-regime phases
        // receive `flood`× the transient code of calm ones.
        let local_phases: Vec<u32> = match &profile.shift {
            None => (0..profile.phases).collect(),
            Some(shift) => {
                let mut slots = Vec::new();
                for p in 0..profile.phases {
                    let w = if (p / shift.period) % 2 == 1 {
                        shift.flood
                    } else {
                        1.0
                    };
                    let count = (w * 4.0).round().max(1.0) as usize;
                    slots.extend(std::iter::repeat_n(p, count));
                }
                slots
            }
        };
        for (i, &idx) in exe_indices[cursor..].iter().enumerate() {
            regions[idx].role = Role::PhaseLocal {
                phase: local_phases[i % local_phases.len()],
            };
        }

        // ---- 3b. Assign home threads ------------------------------------
        // Phase-local regions are thread-private, spread round-robin;
        // every DLL's regions stay on one thread (a worker thread runs a
        // worker library). Persistent/medium regions are shared and get
        // their executing thread at schedule time.
        if profile.threads > 1 {
            let mut next_thread = 0u32;
            let mut dll_thread: std::collections::HashMap<ModuleId, u32> =
                std::collections::HashMap::new();
            for r in regions.iter_mut() {
                if !matches!(r.role, Role::PhaseLocal { .. }) {
                    continue;
                }
                let t = if r.module == exe_id {
                    let t = next_thread;
                    next_thread = (next_thread + 1) % profile.threads;
                    t
                } else {
                    *dll_thread
                        .entry(r.module)
                        .or_insert_with(|| rng.gen_range(0..profile.threads))
                };
                r.home_thread = t;
            }
        }

        // ---- 4. Choose which DLLs get unmapped -------------------------
        let mut unload_at_phase: Vec<Vec<ModuleId>> = vec![Vec::new(); profile.phases as usize];
        for &(id, home) in &dll_home_phase {
            if rng.gen_bool(profile.dll_unload_frac) {
                unload_at_phase[home as usize].push(id);
            }
        }

        // ---- 5. Build the phase schedule --------------------------------
        // Ascending region order (the pre-shift schedule's order); the
        // alternate group is empty without a shift, so regime 0 — the
        // only regime — sees every persistent region.
        base_persistents.sort_unstable();
        alt_persistents.sort_unstable();
        let persistent_groups: [Vec<usize>; 2] = [base_persistents, alt_persistents];
        let regime_of = |p: u32| -> usize {
            profile
                .shift
                .map_or(0, |s| usize::from((p / s.period) % 2 == 1))
        };
        let mut warmed = vec![false; regions.len()];
        let mut steps: Vec<PlanStep> = Vec::new();
        let warmup = |rng: &mut StdRng, profile: &WorkloadProfile| -> u32 {
            let extra = profile.warmup_extra_iters.max(5);
            TRACE_CREATION_THRESHOLD + rng.gen_range(extra / 2..=extra * 3 / 2)
        };
        let revisit = |rng: &mut StdRng, profile: &WorkloadProfile| -> u32 {
            let base = profile.revisit_iters.max(2);
            rng.gen_range(base / 2..=base * 3 / 2).max(1)
        };

        for p in 0..profile.phases {
            let persistents: &[usize] = &persistent_groups[regime_of(p)];
            let locals: Vec<usize> = regions
                .iter()
                .enumerate()
                .filter(|(_, r)| r.role == Role::PhaseLocal { phase: p })
                .map(|(i, _)| i)
                .collect();
            let mediums: Vec<(usize, bool)> = regions
                .iter()
                .enumerate()
                .filter_map(|(i, r)| match r.role {
                    Role::Medium { first_phase, span }
                        if p >= first_phase && p < first_phase + span =>
                    {
                        Some((i, p == first_phase))
                    }
                    _ => None,
                })
                .collect();

            let chunk_count = (profile.hot_revisits as usize + 1).max(1);
            let chunk_size = locals.len().div_ceil(chunk_count).max(1);
            let chunks: Vec<&[usize]> = locals.chunks(chunk_size).collect();
            let rounds = chunk_count.max(chunks.len());

            let mut prev_chunk: &[usize] = &[];
            for round in 0..rounds {
                // Persistent regions run every round of every phase —
                // *interleaved* with the new chunk's warmups, the way an
                // event loop's dispatch code keeps running between bursts
                // of freshly loaded code. The interleaving is what keeps
                // a displaced long-lived trace alive: evicted into a
                // small probation cache mid-flood, it is re-executed
                // after the next warmup burst (a few KB of churn), not
                // after the whole flood (which would flush it and lock
                // the hierarchy into a regenerate-discard cycle).
                // Shared across threads: each step picks a (seeded)
                // random thread, so over the run every thread executes
                // every shared region and each thread's private code
                // cache ends up building its own copy of the hot traces.
                let run_persistent = |rng: &mut StdRng,
                                      steps: &mut Vec<PlanStep>,
                                      warmed: &mut [bool],
                                      per: usize| {
                    // First activation warms the region past the trace
                    // threshold — for the base group that is phase 0
                    // round 0 (the pre-shift behavior, bit for bit); an
                    // alternate-regime group warms when its first
                    // regime segment begins.
                    let iters = if !warmed[per] {
                        warmed[per] = true;
                        warmup(rng, profile)
                    } else {
                        revisit(rng, profile)
                    };
                    let thread = if profile.threads > 1 {
                        rng.gen_range(0..profile.threads)
                    } else {
                        0
                    };
                    steps.push(PlanStep::Run {
                        region: per,
                        iterations: iters,
                        variant_seed: rng.gen(),
                        thread,
                    });
                };
                let mut drained = 0usize;
                // New phase-local regions warm up (on their home thread),
                // with the round's persistent runs spread evenly between
                // them.
                let chunk: &[usize] = chunks.get(round).copied().unwrap_or(&[]);
                for (k, &r) in chunk.iter().enumerate() {
                    let iters = warmup(&mut rng, profile);
                    steps.push(PlanStep::Run {
                        region: r,
                        iterations: iters,
                        variant_seed: rng.gen(),
                        thread: regions[r].home_thread,
                    });
                    let target = (k + 1) * persistents.len() / chunk.len();
                    while drained < target {
                        run_persistent(&mut rng, &mut steps, &mut warmed, persistents[drained]);
                        drained += 1;
                    }
                }
                // The previous chunk gets one more short burst, so
                // short-lived traces see a few accesses after creation.
                for &r in prev_chunk {
                    steps.push(PlanStep::Run {
                        region: r,
                        iterations: revisit(&mut rng, profile),
                        variant_seed: rng.gen(),
                        thread: regions[r].home_thread,
                    });
                }
                // Medium regions run once per phase (in the first round).
                if round == 0 {
                    for &(m, is_first) in &mediums {
                        let iters = if is_first {
                            warmup(&mut rng, profile)
                        } else {
                            revisit(&mut rng, profile) * 2
                        };
                        steps.push(PlanStep::Run {
                            region: m,
                            iterations: iters,
                            variant_seed: rng.gen(),
                            thread: regions[m].home_thread,
                        });
                    }
                }
                // Any persistents not drained by the interleave (always
                // all of them when the round has no new chunk).
                while drained < persistents.len() {
                    run_persistent(&mut rng, &mut steps, &mut warmed, persistents[drained]);
                    drained += 1;
                }
                prev_chunk = chunk;
            }
            // Phase ends: unmap this phase's doomed DLLs.
            for &id in &unload_at_phase[p as usize] {
                steps.push(PlanStep::Unload { module: id });
            }
        }

        // ---- 6. Count execution events for exact timestamps ------------
        let total_exec_events: u64 = steps
            .iter()
            .map(|s| match *s {
                PlanStep::Run {
                    region, iterations, ..
                } => {
                    let path_len = regions[region].region.path(0).len() as u64;
                    u64::from(iterations) * path_len + 1
                }
                PlanStep::Unload { .. } => 0,
            })
            .sum();

        Ok(ExecutionPlan {
            profile: profile.clone(),
            image,
            regions,
            steps,
            total_exec_events,
            duration: Time::from_secs_f64(profile.duration_secs),
        })
    }

    /// The profile this plan was built from.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The synthetic program image (share it with the DBT frontend).
    pub fn image(&self) -> &ProgramImage {
        &self.image
    }

    /// All planned regions with their roles.
    pub fn regions(&self) -> &[PlannedRegion] {
        &self.regions
    }

    /// The step schedule.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// Exact number of block-execution events the stream will yield.
    pub fn total_exec_events(&self) -> u64 {
        self.total_exec_events
    }

    /// Total run duration on the simulated clock.
    pub fn duration(&self) -> Time {
        self.duration
    }

    /// The program time of exec event `k`: `duration * k / n` over the
    /// plan's `n` exec events, so the clock advances uniformly with
    /// executed code.
    pub fn exec_time(&self, k: u64) -> Time {
        let total = self.total_exec_events.max(1);
        Time::from_micros(self.duration.as_micros() * k / total)
    }

    /// Streams the dynamic events of this run.
    pub fn stream(&self) -> EventStream<'_> {
        EventStream::new(self)
    }

    /// Collects the entire event stream (tests and small plans only).
    pub fn events(&self) -> Vec<TimedEvent> {
        self.stream().collect()
    }

    /// Bytes of path (≈ future trace) code per role, for diagnostics and
    /// calibration: `(persistent, medium, phase_local)`.
    pub fn path_bytes_by_role(&self) -> (u64, u64, u64) {
        let mut out = (0u64, 0u64, 0u64);
        for r in &self.regions {
            match r.role {
                Role::Persistent => out.0 += r.path_bytes,
                Role::Medium { .. } => out.1 += r.path_bytes,
                Role::PhaseLocal { .. } => out.2 += r.path_bytes,
            }
        }
        out
    }
}

/// Lays out one module: shared helper functions plus loop regions that
/// call them. Returns the module and its regions (roles default to
/// phase-local of phase 0 and are reassigned by the planner).
fn build_module(
    rng: &mut StdRng,
    id: ModuleId,
    name: String,
    kind: ModuleKind,
    base: Addr,
    code_budget: u64,
) -> Result<(gencache_program::Module, Vec<PlannedRegion>), PlanError> {
    let capacity = code_budget * 3 + 8192;
    let mut builder = ModuleBuilder::new(id, name, kind, base, capacity);

    // Helpers take roughly a sixth of the module's code; every loop region
    // calls 2–3 of them, so helper code is heavily duplicated into traces.
    let helper_budget = (code_budget / 6).clamp(400, 64 * 1024);
    let mut helpers: Vec<(Region, u64)> = Vec::new();
    let mut spent = 0u64;
    while spent < helper_budget {
        let sizes: Vec<u32> = (0..rng.gen_range(3..=4))
            .map(|_| rng.gen_range(60..=140))
            .collect();
        let bytes: u64 = sizes.iter().map(|&s| u64::from(s)).sum();
        let h = builder.add_function(&sizes)?;
        spent += h.code_bytes;
        helpers.push((h, bytes));
    }

    let mut regions = Vec::new();
    while spent < code_budget {
        let (region, path_bytes) = if rng.gen_bool(0.25) {
            // A diamond loop: two same-block-count paths of different
            // sizes, yielding two distinct traces from one head.
            let prefix: Vec<u32> = (0..rng.gen_range(1..=2))
                .map(|_| rng.gen_range(30..=110))
                .collect();
            let k = rng.gen_range(1..=2);
            let path_a: Vec<u32> = (0..k).map(|_| rng.gen_range(30..=110)).collect();
            let path_b: Vec<u32> = (0..k).map(|_| rng.gen_range(30..=110)).collect();
            let suffix = vec![rng.gen_range(30..=110)];
            let region = builder.add_branchy_loop(&prefix, &path_a, &path_b, &suffix)?;
            let fixed: u64 = prefix.iter().chain(&suffix).map(|&s| u64::from(s)).sum();
            let avg_mid = (path_a.iter().map(|&s| u64::from(s)).sum::<u64>()
                + path_b.iter().map(|&s| u64::from(s)).sum::<u64>())
                / 2;
            (region, fixed + avg_mid)
        } else {
            // A loop calling 2–3 shared helpers.
            let body: Vec<u32> = (0..rng.gen_range(3..=5))
                .map(|_| rng.gen_range(30..=110))
                .collect();
            let n_calls = rng.gen_range(2..=3).min(body.len() - 1);
            let mut call_indices: Vec<usize> = (0..body.len() - 1).collect();
            call_indices.shuffle(rng);
            call_indices.truncate(n_calls);
            call_indices.sort_unstable();
            let chosen: Vec<(usize, usize)> = call_indices
                .iter()
                .map(|&i| (i, rng.gen_range(0..helpers.len())))
                .collect();
            let calls: Vec<(usize, &Region)> =
                chosen.iter().map(|&(i, h)| (i, &helpers[h].0)).collect();
            let region = builder.add_loop_calling(&body, &calls)?;
            let body_bytes: u64 = body.iter().map(|&s| u64::from(s)).sum();
            let helper_bytes: u64 = chosen.iter().map(|&(_, h)| helpers[h].1).sum();
            (region, body_bytes + helper_bytes)
        };
        spent += region.code_bytes;
        regions.push(PlannedRegion {
            region,
            module: id,
            role: Role::PhaseLocal { phase: 0 },
            path_bytes,
            home_thread: 0,
        });
    }

    Ok((builder.finish(), regions))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Suite;

    fn small_profile() -> WorkloadProfile {
        WorkloadProfile::builder("plantest", Suite::Interactive)
            .footprint_kb(64)
            .phases(4)
            .lifetime_mix(0.25, 0.10)
            .dlls(3, 0.5)
            .build()
    }

    #[test]
    fn plan_is_deterministic() {
        let p = small_profile();
        let a = ExecutionPlan::from_profile(&p).unwrap();
        let b = ExecutionPlan::from_profile(&p).unwrap();
        assert_eq!(a.total_exec_events(), b.total_exec_events());
        assert_eq!(a.steps().len(), b.steps().len());
        assert_eq!(a.regions().len(), b.regions().len());
    }

    #[test]
    fn roles_cover_all_classes() {
        let plan = ExecutionPlan::from_profile(&small_profile()).unwrap();
        let (pers, med, local) = plan.path_bytes_by_role();
        assert!(pers > 0, "no persistent bytes");
        assert!(med > 0, "no medium bytes");
        assert!(local > 0, "no phase-local bytes");
        let total = (pers + med + local) as f64;
        // Within loose tolerance of the requested mix.
        assert!((pers as f64 / total - 0.25).abs() < 0.15);
        assert!((med as f64 / total - 0.10).abs() < 0.15);
    }

    #[test]
    fn persistent_regions_live_in_executable() {
        let plan = ExecutionPlan::from_profile(&small_profile()).unwrap();
        for r in plan.regions() {
            if matches!(r.role, Role::Persistent | Role::Medium { .. }) {
                assert_eq!(r.module, ModuleId::new(0));
            }
        }
    }

    #[test]
    fn footprint_close_to_target() {
        let p = small_profile();
        let plan = ExecutionPlan::from_profile(&p).unwrap();
        let actual = plan.image().total_code_bytes();
        let target = p.footprint_bytes;
        let ratio = actual as f64 / target as f64;
        assert!(
            (0.8..1.3).contains(&ratio),
            "footprint {actual} vs target {target} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn unloads_present_with_dll_churn() {
        let p = WorkloadProfile::builder("churny", Suite::Interactive)
            .footprint_kb(64)
            .phases(4)
            .dlls(6, 1.0)
            .build();
        let plan = ExecutionPlan::from_profile(&p).unwrap();
        let unloads = plan
            .steps()
            .iter()
            .filter(|s| matches!(s, PlanStep::Unload { .. }))
            .count();
        assert_eq!(unloads, 6, "every DLL must be unloaded at frac 1.0");
    }

    #[test]
    fn no_unloads_for_spec_defaults() {
        let p = WorkloadProfile::builder("speclike", Suite::Spec2000)
            .footprint_kb(64)
            .build();
        let plan = ExecutionPlan::from_profile(&p).unwrap();
        assert!(plan
            .steps()
            .iter()
            .all(|s| !matches!(s, PlanStep::Unload { .. })));
    }

    #[test]
    fn all_run_steps_reference_valid_regions() {
        let plan = ExecutionPlan::from_profile(&small_profile()).unwrap();
        for s in plan.steps() {
            if let PlanStep::Run {
                region, iterations, ..
            } = s
            {
                assert!(*region < plan.regions().len());
                assert!(*iterations > 0);
            }
        }
    }

    #[test]
    fn branchy_paths_have_equal_lengths() {
        let plan = ExecutionPlan::from_profile(&small_profile()).unwrap();
        for r in plan.regions() {
            let lens: Vec<usize> = r.region.iteration_paths.iter().map(|p| p.len()).collect();
            assert!(
                lens.windows(2).all(|w| w[0] == w[1]),
                "variant paths must have equal block counts for exact timing"
            );
        }
    }

    #[test]
    fn every_path_block_resolves_in_image() {
        let plan = ExecutionPlan::from_profile(&small_profile()).unwrap();
        for r in plan.regions() {
            for path in &r.region.iteration_paths {
                for &addr in path {
                    assert!(
                        plan.image().block_at(addr).is_some(),
                        "path block {addr} missing from image"
                    );
                }
            }
            assert!(plan.image().block_at(r.region.exit_block).is_some());
        }
    }
}
