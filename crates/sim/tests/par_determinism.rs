//! The parallel fan-out must be a pure reordering of work: for any job
//! count the results are byte-identical (via serde_json) to the serial
//! run. Covers both grains — `par_map` itself (property test) and the
//! grid sweep over real recorded logs across several seeds.

use gencache_sim::par::par_map;
use gencache_sim::{record, sweep_with_jobs};
use gencache_workloads::benchmark;
use proptest::prelude::*;

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // Two benchmarks spanning both suites, each under a few seed
    // perturbations, swept at every job count the harness is expected
    // to see (serial, undersubscribed, oversubscribed).
    for (name, scale) in [("word", 32), ("excel", 32)] {
        for salt in [0u64, 0x1234_5678] {
            let mut profile = benchmark(name)
                .expect("built-in benchmark")
                .scaled_down(scale);
            profile.seed ^= salt;
            let run = record(&profile).expect("calibrated profiles always plan");
            let serial = serde_json::to_string(&sweep_with_jobs(&run.log, 1)).unwrap();
            for jobs in [2, 8] {
                let parallel = serde_json::to_string(&sweep_with_jobs(&run.log, jobs)).unwrap();
                assert_eq!(
                    serial, parallel,
                    "{name} salt {salt:#x}: sweep with {jobs} jobs diverged from serial"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn par_map_equals_serial_map_for_any_jobs(
        items in proptest::collection::vec(any::<u64>(), 0..200),
        jobs in 1usize..12,
    ) {
        let f = |&x: &u64| x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17);
        let serial: Vec<u64> = items.iter().map(f).collect();
        prop_assert_eq!(par_map(&items, jobs, f), serial);
    }
}
