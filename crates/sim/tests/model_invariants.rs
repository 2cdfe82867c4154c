//! An invariant-checking [`Observer`] run over every spec class and one
//! recorded profile from each workload family.
//!
//! The observer rebuilds each region's resident set from the event
//! stream alone, with plain std maps, and asserts after every event:
//!
//! * every `Evict`, `Promote`, `Hit`, `Pin` and `Unpin` names a trace
//!   with a live `Insert` (or promotion arrival) in that region;
//! * `Insert` and `Miss` name a trace resident nowhere;
//! * a `Promote` leaves with the bytes the trace was inserted with and
//!   arrives (`PromotedIn`) or is discarded with those same bytes;
//! * per-region resident bytes never exceed the region's capacity,
//!   both in each insertion's reported `used` and in the rebuilt
//!   resident set once an access's eviction cascade has settled.
//!
//! This guards the per-trace tables inside the arena, LRU and CLOCK
//! caches and the generational manager: a lost or stale entry shows up
//! as an eviction of a trace that was never resident, or as occupancy
//! the event stream cannot account for.

use std::collections::HashMap;

use gencache_cache::TraceId;
use gencache_core::{CandidateSet, GenerationalConfig};
use gencache_obs::{CacheEvent, FrontendOp, Observer, Region};
use gencache_sim::{parse_spec, record, replay_sim_observed, LocalPolicy, ModelSpec, SimSpec};
use gencache_workloads::benchmark;

#[derive(Debug)]
struct InvariantObserver {
    /// Byte capacity per region, by [`Region::index`].
    capacity: [u64; 4],
    /// The adaptive roster and budget, to resize regions on a swap.
    roster: Option<(CandidateSet, u64)>,
    resident: [HashMap<TraceId, u32>; 4],
    bytes: [u64; 4],
    /// Promoted traces between their `Promote` and their arrival or
    /// discard: destination region and bytes.
    in_transit: HashMap<TraceId, (Region, u32)>,
    evictions: u64,
    promotions: u64,
}

fn generational_capacity(config: &GenerationalConfig) -> [u64; 4] {
    [
        0,
        config.nursery_bytes,
        config.probation_bytes,
        config.persistent_bytes,
    ]
}

impl InvariantObserver {
    fn for_spec(spec: SimSpec, capacity: u64) -> Self {
        let (capacity, roster) = match spec {
            SimSpec::Model(ModelSpec::Unified) => ([capacity, 0, 0, 0], None),
            SimSpec::Model(ModelSpec::Generational {
                proportions,
                policy,
            }) => {
                let config = GenerationalConfig::new(capacity, proportions, policy);
                (generational_capacity(&config), None)
            }
            SimSpec::Local(policy) => {
                let bound = policy.build(capacity).capacity().unwrap_or(u64::MAX);
                ([bound, 0, 0, 0], None)
            }
            SimSpec::Adaptive(set) => (
                generational_capacity(&set.get(0).config(capacity)),
                Some((set, capacity)),
            ),
        };
        InvariantObserver {
            capacity,
            roster,
            resident: Default::default(),
            bytes: [0; 4],
            in_transit: HashMap::new(),
            evictions: 0,
            promotions: 0,
        }
    }

    fn region_of(&self, trace: TraceId) -> Option<Region> {
        Region::ALL
            .into_iter()
            .find(|r| self.resident[r.index()].contains_key(&trace))
    }

    fn add(&mut self, region: Region, trace: TraceId, bytes: u32, used: u64) {
        let r = region.index();
        assert!(
            used <= self.capacity[r],
            "{region} reports {used} bytes used over its capacity {}",
            self.capacity[r]
        );
        self.resident[r].insert(trace, bytes);
        self.bytes[r] += u64::from(bytes);
    }

    fn take(&mut self, region: Region, trace: TraceId, what: &str) -> u32 {
        let r = region.index();
        let bytes = self.resident[r]
            .remove(&trace)
            .unwrap_or_else(|| panic!("{what} of {trace}, which has no live insert in {region}"));
        self.bytes[r] -= u64::from(bytes);
        bytes
    }

    /// Checks occupancy once an access's cascade has finished.
    fn settled(&self) {
        assert!(
            self.in_transit.is_empty(),
            "promotions never arrived: {:?}",
            self.in_transit
        );
        for region in Region::ALL {
            let r = region.index();
            assert!(
                self.bytes[r] <= self.capacity[r],
                "{region} holds {} bytes over its capacity {}",
                self.bytes[r],
                self.capacity[r]
            );
        }
    }
}

impl Observer for InvariantObserver {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Hit { region, trace, .. } => {
                self.settled();
                assert_eq!(self.region_of(trace), Some(region), "hit on {trace}");
            }
            CacheEvent::Miss { trace, .. } => {
                self.settled();
                assert_eq!(self.region_of(trace), None, "miss on resident {trace}");
            }
            CacheEvent::Insert {
                region,
                trace,
                bytes,
                used,
                ..
            } => {
                assert_eq!(self.region_of(trace), None, "{trace} inserted twice");
                assert!(!self.in_transit.contains_key(&trace));
                self.add(region, trace, bytes, used);
            }
            CacheEvent::Evict {
                region,
                trace,
                bytes,
                ..
            } => {
                self.evictions += 1;
                let held = match self.in_transit.get(&trace) {
                    Some(&(to, held)) if to == region => {
                        self.in_transit.remove(&trace);
                        held
                    }
                    _ => self.take(region, trace, "evict"),
                };
                assert_eq!(bytes, held, "{trace} evicted with different bytes");
            }
            CacheEvent::Promote {
                from,
                to,
                trace,
                bytes,
                ..
            } => {
                self.promotions += 1;
                let held = self.take(from, trace, "promote");
                assert_eq!(bytes, held, "promotion of {trace} changed its bytes");
                self.in_transit.insert(trace, (to, bytes));
            }
            CacheEvent::PromotedIn {
                region,
                trace,
                bytes,
                used,
                ..
            } => {
                let transit = self.in_transit.remove(&trace);
                assert_eq!(transit, Some((region, bytes)), "arrival of {trace}");
                self.add(region, trace, bytes, used);
            }
            CacheEvent::Pin { region, trace, .. } | CacheEvent::Unpin { region, trace, .. } => {
                assert_eq!(self.region_of(trace), Some(region), "pin toggle of {trace}");
            }
            CacheEvent::Noop { op, trace, .. } => {
                if op == FrontendOp::Unmap {
                    assert_eq!(
                        self.region_of(trace),
                        None,
                        "unmap no-op on resident {trace}"
                    );
                }
            }
            CacheEvent::PolicySwap { to, .. } => {
                let (set, total) = self.roster.expect("only adaptive specs swap");
                self.capacity = generational_capacity(&set.get(usize::from(to)).config(total));
            }
            CacheEvent::PointerReset { .. } => {}
        }
    }
}

#[test]
fn every_spec_class_keeps_region_invariants_on_every_family() {
    let mut labels = vec![
        "unified",
        "45-10-45@hit1",
        "30-20-50@evict5",
        "50-0-50@evict1",
        "adaptive",
    ];
    labels.extend(LocalPolicy::ALL.iter().map(|p| p.name()));
    for name in ["gcc", "word", "churnstorm"] {
        let profile = benchmark(name).expect("profile exists").scaled_down(64);
        let run = record(&profile).expect("calibrated profiles always plan");
        let capacity = (run.log.peak_trace_bytes / 2).max(1);
        for label in &labels {
            let spec = parse_spec(label).unwrap();
            let observer = InvariantObserver::for_spec(spec, capacity);
            let (result, observer) = replay_sim_observed(&run.log, spec, capacity, observer);
            observer.settled();
            assert!(
                result.metrics.accesses > 0,
                "{name}/{label} replayed nothing"
            );
            if label.contains('@') {
                assert!(
                    observer.evictions > 0 && observer.promotions > 0,
                    "{name}/{label} never evicted or promoted"
                );
            }
        }
    }
}
