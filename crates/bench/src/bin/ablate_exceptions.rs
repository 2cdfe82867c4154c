//! Undeletable-trace ablation (Section 4.2): sensitivity of the unified
//! pseudo-circular cache to the rate of exceptions pinning traces in the
//! cache. Pinned traces force the eviction pointer to reset past them;
//! higher pin rates mean more disturbed FIFO order and more fragmentation
//! pressure.

use gencache_bench::HarnessOptions;
use gencache_core::{CacheModel, UnifiedModel};
use gencache_sim::report::TextTable;
use gencache_sim::{record_with, replay_into, RecorderOptions};
use gencache_workloads::benchmark;

fn main() {
    let opts = HarnessOptions::from_env();
    let mut profile = benchmark("word").expect("known benchmark");
    if opts.scale > 1 {
        profile = profile.scaled_down(opts.scale);
    }
    println!("Undeletable-trace sensitivity on `word`: exception rate vs miss rate.");
    let mut table = TextTable::new(["exception rate", "pins", "miss rate", "uncachable inserts"]);
    for rate in [0.0, 1e-4, 1e-3, 1e-2] {
        eprintln!("recording at exception rate {rate} ...");
        let run = record_with(
            &profile,
            RecorderOptions {
                exception_rate: rate,
                pin_window: 64,
            },
        )
        .expect("calibrated profile");
        let pins = run
            .log
            .records
            .iter()
            .filter(|r| matches!(r, gencache_sim::LogRecord::Pin { .. }))
            .count();
        let cap = run.log.capacity();
        let mut model = UnifiedModel::new(cap);
        replay_into(&run.log, &mut model);
        table.row([
            format!("{rate:.0e}"),
            pins.to_string(),
            format!("{:.3}%", model.metrics().miss_rate() * 100.0),
            model.metrics().uncachable.to_string(),
        ]);
    }
    print!("{}", table.render());
}
