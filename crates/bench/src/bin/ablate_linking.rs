//! Trace-linking analysis (extension).
//!
//! Dynamic optimizers link traces so inter-trace transitions bypass the
//! dispatcher; an eviction severs every link into the victim. This study
//! replays each benchmark while tracking the link graph, comparing how
//! many transitions run linked under the unified baseline versus the
//! generational hierarchy — cache organizations that keep long-lived
//! traces resident also keep their links warm.

use gencache_bench::{record_all, HarnessOptions};
use gencache_core::{GenerationalConfig, GenerationalModel, UnifiedModel};
use gencache_sim::replay_with_linking;
use gencache_sim::report::{arithmetic_mean, TextTable};

fn main() {
    let opts = HarnessOptions::from_env();
    println!("Trace-linking analysis: linked-transition fraction and dispatcher switches.");
    let runs = record_all(&opts);
    let mut table = TextTable::new([
        "Benchmark",
        "unified linked",
        "gen linked",
        "unified ctx-sw",
        "gen ctx-sw",
        "severed (uni/gen)",
    ]);
    let mut uni_fracs = Vec::new();
    let mut gen_fracs = Vec::new();
    for (p, r) in &runs {
        eprintln!("replaying {} ...", p.name);
        let cap = r.log.capacity();
        let mut unified = UnifiedModel::new(cap);
        let uni = replay_with_linking(&r.log, &mut unified);
        let mut gen = GenerationalModel::new(GenerationalConfig::figure9_configs(cap)[1]);
        let g = replay_with_linking(&r.log, &mut gen);
        uni_fracs.push(uni.linked_fraction());
        gen_fracs.push(g.linked_fraction());
        table.row([
            p.name.clone(),
            format!("{:.1}%", uni.linked_fraction() * 100.0),
            format!("{:.1}%", g.linked_fraction() * 100.0),
            uni.context_switches().to_string(),
            g.context_switches().to_string(),
            format!("{}/{}", uni.links_severed, g.links_severed),
        ]);
    }
    print!("{}", table.render());
    println!(
        "average linked-transition fraction: unified {:.1}%  generational {:.1}%",
        arithmetic_mean(&uni_fracs).unwrap_or(0.0) * 100.0,
        arithmetic_mean(&gen_fracs).unwrap_or(0.0) * 100.0,
    );
}
