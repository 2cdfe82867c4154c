//! Why generational caches win: the reuse-distance view.
//!
//! Computes the byte-weighted stack-distance profile of a recorded
//! benchmark and renders the cache-occupancy timeline of both cache
//! organizations. The distance distribution is bimodal — immediate
//! nursery-style reuse plus a far spike at the long-lived working set —
//! which is exactly the structure a nursery/persistent split exploits.
//!
//! Run with:
//! `cargo run --release --example reuse_analysis -p gencache-sim [benchmark] [scale]`

use gencache_core::{GenerationalConfig, GenerationalModel, UnifiedModel};
use gencache_sim::report::{fmt_bytes, sparkline};
use gencache_sim::{occupancy_series, record, reuse_profile};
use gencache_workloads::benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "excel".into());
    let scale: u64 = std::env::args()
        .nth(2)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(8);
    let profile = benchmark(&name)
        .ok_or_else(|| format!("unknown benchmark {name:?}"))?
        .scaled_down(scale);

    println!("recording `{name}` at 1/{scale} scale...");
    let run = record(&profile)?;
    let peak = run.log.peak_trace_bytes;

    let reuse = reuse_profile(&run.log);
    println!(
        "\nbyte-weighted reuse distances ({} accesses):",
        reuse.total_accesses()
    );
    for pct in [10u8, 50, 90, 99] {
        if let Some(d) = reuse.percentile(pct) {
            println!("  p{pct:<2} {:>10}", fmt_bytes(d));
        }
    }
    println!("\nanalytic LRU miss-rate curve:");
    for frac in [10u64, 25, 50, 75, 100] {
        let capacity = peak * frac / 100;
        println!(
            "  {:>3}% of peak ({:>9}) -> {:>6.2}% misses",
            frac,
            fmt_bytes(capacity),
            reuse.miss_rate_at(capacity) * 100.0
        );
    }

    // Occupancy timelines at the paper's operating point.
    let capacity = run.log.capacity();
    let mut unified = UnifiedModel::new(capacity);
    let unified_series = occupancy_series(&run.log, &mut unified, 60);
    let mut generational = GenerationalModel::new(GenerationalConfig::figure9_configs(capacity)[1]);
    let gen_series = occupancy_series(&run.log, &mut generational, 60);

    println!(
        "\ncache occupancy over the run (0.5 x maxCache = {}):",
        fmt_bytes(capacity)
    );
    println!("  unified      {}", sparkline(&unified_series));
    println!("  generational {}", sparkline(&gen_series));
    Ok(())
}
