//! Thread-private versus thread-shared code caches (extension).
//!
//! DynamoRIO's caches are thread-private; the paper's generational
//! design multiplies the caches per thread further. Privacy removes
//! synchronization but fragments the capacity budget. This study splits
//! each benchmark's traces across simulated threads (by code module),
//! gives each thread `1/T` of the 0.5 × maxCache budget, and compares
//! the summed miss behaviour against a single shared cache.

use gencache_bench::{record_all, HarnessOptions};
use gencache_sim::report::{arithmetic_mean, TextTable};
use gencache_sim::{replay_thread_private, replay_thread_shared, BudgetSplit, ThreadCacheKind};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("Thread-private vs thread-shared caches (generational 45-10-45).");
    let runs = record_all(&opts);
    let mut table = TextTable::new([
        "Benchmark",
        "shared miss",
        "4T equal",
        "4T peak-prop",
        "8T peak-prop",
    ]);
    let mut penalties = Vec::new();
    for (p, r) in &runs {
        eprintln!("replaying {} ...", p.name);
        let capacity = r.log.capacity();
        let shared = replay_thread_shared(&r.log, capacity, ThreadCacheKind::Generational);
        let mut cells = vec![
            p.name.clone(),
            format!("{:.2}%", shared.miss_rate() * 100.0),
        ];
        for (threads, split) in [
            (4u32, BudgetSplit::Equal),
            (4, BudgetSplit::PeakProportional),
            (8, BudgetSplit::PeakProportional),
        ] {
            let private = replay_thread_private(
                &r.log,
                threads,
                capacity,
                ThreadCacheKind::Generational,
                split,
            );
            if threads == 4 && split == BudgetSplit::PeakProportional && shared.miss_rate() > 0.0 {
                penalties.push(private.miss_rate() / shared.miss_rate());
            }
            cells.push(format!("{:.2}%", private.miss_rate() * 100.0));
        }
        table.row(cells);
    }
    print!("{}", table.render());
    println!(
        "average 4-thread (peak-proportional) private/shared miss-rate ratio: {:.2}x",
        arithmetic_mean(&penalties).unwrap_or(0.0)
    );
}
