//! Defragmentation ablation (Section 4.2): the paper argues a local
//! policy "must either include a defragmentation step, or make efforts to
//! minimize the fragmentation". This extension quantifies the trade:
//! plain LRU (fragmentation → extra evictions) versus LRU with automatic
//! compaction (relocation work instead), with the relocation bill priced
//! by the Table 2 promotion formula.

use std::collections::HashMap;

use gencache_bench::{record_all, HarnessOptions};
use gencache_cache::{CodeCache, EvictionCause, LruCache, TraceId, TraceRecord};
use gencache_core::cost;
use gencache_sim::report::{arithmetic_mean, TextTable};
use gencache_sim::{AccessLog, LogRecord};

/// Replays a log directly into a bare cache, returning
/// `(accesses, misses)`.
fn replay_cache(log: &AccessLog, cache: &mut LruCache) -> (u64, u64) {
    let mut catalog: HashMap<TraceId, TraceRecord> = HashMap::new();
    let mut accesses = 0u64;
    let mut misses = 0u64;
    for record in &log.records {
        match *record {
            LogRecord::Create { record, time } => {
                catalog.insert(record.id, record);
                accesses += 1;
                misses += 1;
                let _ = cache.insert(record, time);
            }
            LogRecord::Access { id, time } => {
                accesses += 1;
                if !cache.touch(id, time) {
                    misses += 1;
                    let rec = catalog[&id];
                    let _ = cache.insert(rec, time);
                }
            }
            LogRecord::Invalidate { id, .. } => {
                cache.remove(id, EvictionCause::Unmapped);
            }
            LogRecord::Pin { id } => {
                cache.set_pinned(id, true);
            }
            LogRecord::Unpin { id } => {
                cache.set_pinned(id, false);
            }
        }
    }
    (accesses, misses)
}

fn main() {
    let opts = HarnessOptions::from_env();
    println!("Defragmentation ablation: plain LRU vs LRU with compaction (0.5 x maxCache).");
    let runs = record_all(&opts);
    let mut table = TextTable::new([
        "Benchmark",
        "LRU miss",
        "LRU+defrag miss",
        "defrag runs",
        "moved bytes",
        "relocation cost",
    ]);
    let mut plain_rates = Vec::new();
    let mut defrag_rates = Vec::new();
    for (p, r) in &runs {
        eprintln!("replaying {} ...", p.name);
        let cap = r.log.capacity();

        let mut plain = LruCache::new(cap);
        let (acc, plain_misses) = replay_cache(&r.log, &mut plain);

        let mut compacting = LruCache::with_defrag_threshold(cap, 0.25);
        let (_, defrag_misses) = replay_cache(&r.log, &mut compacting);

        // Price the relocations: moved bytes at the Table 2 promotion
        // formula's rate, approximating each moved trace by the median
        // trace size.
        let median = r.log.median_trace_bytes().max(1);
        let moved_traces = compacting.defrag_moved_bytes() / u64::from(median);
        let relocation_cost = moved_traces as f64 * cost::promotion(median);

        plain_rates.push(plain_misses as f64 / acc as f64);
        defrag_rates.push(defrag_misses as f64 / acc as f64);
        table.row([
            p.name.clone(),
            format!("{:.2}%", plain_misses as f64 / acc as f64 * 100.0),
            format!("{:.2}%", defrag_misses as f64 / acc as f64 * 100.0),
            compacting.defrag_runs().to_string(),
            compacting.defrag_moved_bytes().to_string(),
            format!("{relocation_cost:.2e} instr"),
        ]);
    }
    print!("{}", table.render());
    println!(
        "average miss rates: LRU {:.2}%  LRU+defrag {:.2}%",
        arithmetic_mean(&plain_rates).unwrap_or(0.0) * 100.0,
        arithmetic_mean(&defrag_rates).unwrap_or(0.0) * 100.0,
    );
}
