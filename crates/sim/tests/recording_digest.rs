//! Pins the frontend's output: the recorded log, the frontend counters
//! and the run summary of one small profile from each workload family
//! must hash to the values committed here.
//!
//! The recorder's output is a pure function of the profile, so any
//! change to the engine's trace selection, bb-cache accounting, peak
//! tracking or invalidation order shows up as a digest mismatch. A
//! deliberate change to that behaviour updates the constants in the same
//! commit and says why.

use gencache_frontend::FrontendStats;
use gencache_sim::record;
use gencache_workloads::{benchmark, Suite, WorkloadProfile};
use serde::Serialize;

/// Footprint divisor: small enough for a debug-build test run, large
/// enough that every profile creates, accesses and invalidates traces.
const SCALE: u64 = 64;

/// FNV-1a 64-bit over the JSON serialization of `value`, continuing
/// from `state`.
fn fnv1a_json(mut state: u64, value: &impl Serialize) -> u64 {
    let json = serde_json::to_string(value).expect("recording output serializes");
    for &b in json.as_bytes() {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01b3);
    }
    state
}

/// Records `profile` and checks the digest of every log record, then
/// the frontend stats, then the summary. Returns the frontend stats.
fn check(profile: &WorkloadProfile, want: u64) -> FrontendStats {
    let run = record(profile).expect("profile plans");
    assert!(
        run.frontend.traces_created > 0,
        "{}: no traces",
        profile.name
    );
    let mut got = 0xcbf2_9ce4_8422_2325;
    for r in &run.log.records {
        got = fnv1a_json(got, r);
    }
    got = fnv1a_json(got, &run.frontend);
    got = fnv1a_json(got, &run.summary);
    assert_eq!(
        got, want,
        "{}: recording digest {got:#018x}, committed {want:#018x}",
        profile.name
    );
    run.frontend
}

fn named(name: &str) -> WorkloadProfile {
    benchmark(name)
        .unwrap_or_else(|| panic!("{name} is a built-in profile"))
        .scaled_down(SCALE)
}

#[test]
fn spec2000_recording_is_pinned() {
    check(&named("gzip"), 0xfcf8_711c_13ce_8441);
}

#[test]
fn interactive_recording_is_pinned() {
    check(&named("word"), 0xa39d_2a66_e788_a2a9);
}

#[test]
fn adversarial_recording_is_pinned() {
    check(&named("phaseflip"), 0xcc07_2750_9781_42a1);
}

/// Three guest threads over a DLL-heavy image: one engine per thread,
/// per-thread id namespaces and module unloads that invalidate traces.
#[test]
fn threaded_dll_churn_recording_is_pinned() {
    let profile = WorkloadProfile::builder("churn3", Suite::Interactive)
        .duration_secs(20.0)
        .footprint_kb(512)
        .phases(6)
        .dlls(8, 0.75)
        .threads(3)
        .seed(11)
        .build();
    let stats = check(&profile, 0x61e3_039e_09b9_390c);
    assert!(
        stats.traces_invalidated > 0,
        "the churn profile must unload modules holding traces"
    );
}
