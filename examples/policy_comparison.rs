//! Local replacement policies head to head on one benchmark.
//!
//! Replays a recorded `crafty` log into a unified cache under each local
//! policy — pseudo-circular (the paper's), LRU, and Dynamo-style
//! flush-on-full — plus the generational hierarchy, and reports miss
//! rates, management-instruction overhead, and fragmentation.
//!
//! Run with:
//! `cargo run --release --example policy_comparison -p gencache-sim [scale]`

use gencache_cache::{CodeCache, FlushCache, LruCache, PseudoCircularCache};
use gencache_core::{
    CacheModel, GenerationalConfig, GenerationalModel, PromotionPolicy, Proportions, UnifiedModel,
};
use gencache_sim::report::TextTable;
use gencache_sim::{record, replay_into};
use gencache_workloads::benchmark;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale: u64 = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);
    let profile = benchmark("crafty")
        .expect("built-in benchmark")
        .scaled_down(scale);
    println!("recording `crafty` at 1/{scale} scale...");
    let run = record(&profile)?;
    let capacity = run.log.capacity();
    println!(
        "replaying {} accesses into {} byte caches\n",
        run.log.access_count(),
        capacity
    );

    let mut table = TextTable::new(["policy", "miss rate", "mgmt instructions", "fragmentation"]);

    let policies: Vec<(&str, Box<dyn CodeCache>)> = vec![
        (
            "pseudo-circular",
            Box::new(PseudoCircularCache::new(capacity)),
        ),
        ("LRU first-fit", Box::new(LruCache::new(capacity))),
        ("flush-on-full", Box::new(FlushCache::new(capacity))),
    ];
    for (name, cache) in policies {
        let mut model = UnifiedModel::with_cache(name, cache);
        replay_into(&run.log, &mut model);
        table.row([
            name.to_owned(),
            format!("{:.2}%", model.metrics().miss_rate() * 100.0),
            format!("{:.2e}", model.ledger().total()),
            format!("{:.2}", model.cache().fragmentation().fragmentation_ratio()),
        ]);
    }

    let mut generational = GenerationalModel::new(GenerationalConfig::new(
        capacity,
        Proportions::best_overall(),
        PromotionPolicy::OnHit { hits: 1 },
    ));
    replay_into(&run.log, &mut generational);
    table.row([
        generational.name(),
        format!("{:.2}%", generational.metrics().miss_rate() * 100.0),
        format!("{:.2e}", generational.ledger().total()),
        "-".to_owned(),
    ]);

    print!("{}", table.render());
    Ok(())
}
