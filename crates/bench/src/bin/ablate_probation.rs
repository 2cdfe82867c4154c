//! Probation-cache ablation (Section 5.3): the full three-generation
//! hierarchy versus a two-generation variant with no probation cache
//! (every nursery evictee is promoted straight to the persistent cache).
//!
//! Expected shape: without the probation filter, short-lived traces flood
//! the persistent cache and evict long-lived tenants, giving up much of
//! the generational win.

use gencache_bench::{record_all, HarnessOptions};
use gencache_core::{GenerationalConfig, PromotionPolicy, Proportions};
use gencache_sim::compare;
use gencache_sim::report::{arithmetic_mean, fmt_pct, TextTable};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("Probation ablation: 45-10-45 promote-on-hit(1) vs 50-0-50 (no probation).");
    let runs = record_all(&opts);
    let mut table = TextTable::new([
        "Benchmark",
        "with probation",
        "no probation",
        "ratio w/",
        "ratio w/o",
    ]);
    let mut with = Vec::new();
    let mut without = Vec::new();
    for (p, r) in &runs {
        eprintln!("replaying {} ...", p.name);
        let config = |proportions| {
            GenerationalConfig::new(
                r.log.capacity(),
                proportions,
                PromotionPolicy::OnHit { hits: 1 },
            )
        };
        // Both hierarchies and the unified baseline, from one pass.
        let c = compare(
            &r.log,
            &[
                config(Proportions::best_overall()),
                config(Proportions::new(0.5, 0.0, 0.5)),
            ],
        );
        with.push(c.miss_rate_reduction(0));
        without.push(c.miss_rate_reduction(1));
        table.row([
            p.name.clone(),
            fmt_pct(c.miss_rate_reduction(0)),
            fmt_pct(c.miss_rate_reduction(1)),
            format!("{:.1}%", c.overhead_ratio(0) * 100.0),
            format!("{:.1}%", c.overhead_ratio(1) * 100.0),
        ]);
    }
    print!("{}", table.render());
    println!(
        "average miss-rate reduction: with probation {}  without {}",
        fmt_pct(arithmetic_mean(&with).unwrap_or(0.0)),
        fmt_pct(arithmetic_mean(&without).unwrap_or(0.0)),
    );
}
