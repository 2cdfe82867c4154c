//! Local-policy ablation (Section 4): pseudo-circular (the paper's
//! choice) versus LRU and Dynamo-style flush-on-full, each as the single
//! unified trace cache at 0.5 × maxCache.
//!
//! Expected shape (prior work, INTERACT 2002): pseudo-circular matches or beats LRU
//! at far lower bookkeeping cost and with zero placement-induced
//! fragmentation; preemptive flushing trails both.

use gencache_bench::{record_all, HarnessOptions};
use gencache_cache::{ClockCache, CodeCache, FlushCache, LruCache, PseudoCircularCache};
use gencache_core::{CacheModel, UnifiedModel};
use gencache_sim::replay_into;
use gencache_sim::report::{arithmetic_mean, TextTable};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("Local-policy ablation: unified cache at 0.5 x maxCache per policy.");
    let runs = record_all(&opts);
    let mut table = TextTable::new([
        "Benchmark",
        "pseudo-circ miss",
        "LRU miss",
        "clock miss",
        "flush miss",
        "LRU frag",
        "pc frag",
    ]);
    let mut pc_rates = Vec::new();
    let mut lru_rates = Vec::new();
    let mut clock_rates = Vec::new();
    let mut flush_rates = Vec::new();
    for (p, r) in &runs {
        eprintln!("replaying {} ...", p.name);
        let cap = r.log.capacity();
        let caches: [(&str, Box<dyn CodeCache>); 4] = [
            ("pseudo-circular", Box::new(PseudoCircularCache::new(cap))),
            ("lru", Box::new(LruCache::new(cap))),
            ("clock", Box::new(ClockCache::new(cap))),
            ("flush", Box::new(FlushCache::new(cap))),
        ];
        let mut results = Vec::new();
        for (name, cache) in caches {
            let mut model = UnifiedModel::with_cache(name, cache);
            replay_into(&r.log, &mut model);
            results.push((model.metrics().miss_rate(), model.cache().fragmentation()));
        }
        pc_rates.push(results[0].0);
        lru_rates.push(results[1].0);
        clock_rates.push(results[2].0);
        flush_rates.push(results[3].0);
        table.row([
            p.name.clone(),
            format!("{:.2}%", results[0].0 * 100.0),
            format!("{:.2}%", results[1].0 * 100.0),
            format!("{:.2}%", results[2].0 * 100.0),
            format!("{:.2}%", results[3].0 * 100.0),
            format!("{:.2}", results[1].1.fragmentation_ratio()),
            format!("{:.2}", results[0].1.fragmentation_ratio()),
        ]);
    }
    print!("{}", table.render());
    println!(
        "average miss rates: pseudo-circular {:.2}%  LRU {:.2}%  clock {:.2}%  flush {:.2}%",
        arithmetic_mean(&pc_rates).unwrap_or(0.0) * 100.0,
        arithmetic_mean(&lru_rates).unwrap_or(0.0) * 100.0,
        arithmetic_mean(&clock_rates).unwrap_or(0.0) * 100.0,
        arithmetic_mean(&flush_rates).unwrap_or(0.0) * 100.0,
    );
}
