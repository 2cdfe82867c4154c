//! Unmapped memory in action (Section 3.4).
//!
//! Builds a custom workload whose shared libraries load and unload
//! aggressively, then shows the chain of consequences: the frontend
//! invalidates stale traces the instant a module unmaps, forced deletions
//! punch holes in the bounded cache, and the pseudo-circular policy
//! absorbs the fragmentation without a defragmentation pass.
//!
//! Run with: `cargo run --release --example dll_churn -p gencache-sim`

use gencache_core::{CacheModel, UnifiedModel};
use gencache_sim::report::fmt_bytes;
use gencache_sim::{record, replay_into, LogRecord};
use gencache_workloads::{Suite, WorkloadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every DLL is unmapped when its phase ends.
    let profile = WorkloadProfile::builder("churner", Suite::Interactive)
        .description("synthetic DLL-churn stress")
        .duration_secs(30.0)
        .footprint_kb(512)
        .phases(8)
        .lifetime_mix(0.15, 0.05)
        .dlls(12, 1.0)
        .hot_revisits(5)
        .build();

    println!(
        "recording a DLL-churn workload ({} DLLs, all unmapped mid-run)...",
        profile.dll_count
    );
    let run = record(&profile)?;
    let s = &run.summary;
    println!("  traces created      : {}", s.traces_created);
    println!(
        "  trace bytes created : {}",
        fmt_bytes(run.frontend.trace_bytes_created)
    );
    println!(
        "  invalidated by unmap: {} traces, {} ({:.1}% of bytes)",
        run.frontend.traces_invalidated,
        fmt_bytes(run.frontend.trace_bytes_invalidated),
        s.unmapped_frac * 100.0
    );

    let invalidations = run
        .log
        .records
        .iter()
        .filter(|r| matches!(r, LogRecord::Invalidate { .. }))
        .count();
    println!("  forced-deletion log records: {invalidations}");

    // Replay into a bounded cache and observe the holes.
    let capacity = run.log.capacity();
    let mut model = UnifiedModel::new(capacity);
    replay_into(&run.log, &mut model);
    let frag = model.cache().fragmentation();
    println!("\nbounded pseudo-circular cache ({}):", fmt_bytes(capacity));
    println!(
        "  miss rate           : {:.2}%",
        model.metrics().miss_rate() * 100.0
    );
    println!(
        "  unmap deletions     : {}",
        model.metrics().unmap_deletions
    );
    println!(
        "  free space          : {} in {} gaps (largest {})",
        fmt_bytes(frag.free_bytes),
        frag.gap_count,
        fmt_bytes(frag.largest_gap)
    );
    println!(
        "  fragmentation ratio : {:.2} (0 = one contiguous gap)",
        frag.fragmentation_ratio()
    );
    Ok(())
}
