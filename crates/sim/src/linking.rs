//! Trace linking analysis (extension).
//!
//! Real dynamic optimizers *link* traces: when one trace's exit branch
//! targets another resident trace, the exit is patched to jump directly
//! there, skipping the two context switches through the dispatcher. The
//! catch — and the reason linking interacts with cache management — is
//! that evicting a trace requires severing every link into it, and a
//! regenerated trace starts unlinked. A cache organization that churns
//! long-lived traces therefore pays twice: once to regenerate the trace
//! and again in dispatcher transitions until its links re-form.
//!
//! This module replays a recorded log while tracking the link graph over
//! a cache model's resident set, quantifying how many inter-trace
//! transitions run linked versus through the dispatcher.

use std::collections::{HashMap, HashSet};

use gencache_cache::{LogRecord, ReplayCursor, ReplayStep, TraceId};
use gencache_core::{apply_step, CacheModel, GenerationalModel, UnifiedModel};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

use crate::log::AccessLog;

/// Outcome counters of a linking-aware replay.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkReport {
    /// Consecutive trace-to-trace transitions observed.
    pub transitions: u64,
    /// Transitions that followed an established link (no dispatcher).
    pub linked: u64,
    /// Transitions through the dispatcher (missing or severed link).
    pub unlinked: u64,
    /// Links patched in.
    pub links_created: u64,
    /// Links severed because an endpoint left the cache.
    pub links_severed: u64,
}

impl LinkReport {
    /// Fraction of transitions that ran linked; zero when none occurred.
    pub fn linked_fraction(&self) -> f64 {
        if self.transitions == 0 {
            0.0
        } else {
            self.linked as f64 / self.transitions as f64
        }
    }

    /// Dispatcher context switches incurred: two per unlinked transition
    /// (trace → dispatcher → trace).
    pub fn context_switches(&self) -> u64 {
        2 * self.unlinked
    }
}

/// A cache model whose per-trace residency epoch can be queried, so the
/// link graph can detect evictions lazily.
pub trait LinkableModel: CacheModel {
    /// When the trace's *current* residency began, or `None` if absent.
    /// A re-inserted trace reports its latest insertion time, which
    /// invalidates links created against an earlier residency.
    fn resident_since(&self, id: TraceId) -> Option<Time>;
}

impl LinkableModel for UnifiedModel {
    fn resident_since(&self, id: TraceId) -> Option<Time> {
        self.cache().entry(id).map(|e| e.insert_time)
    }
}

impl LinkableModel for GenerationalModel {
    fn resident_since(&self, id: TraceId) -> Option<Time> {
        // Promotion relocates the trace but re-links it as part of the
        // move (Section 5.4's fix-up includes exit branches), so the
        // *nursery* insertion epoch is what matters; we approximate it by
        // the earliest insert time across the hierarchy.
        [self.nursery(), self.probation(), self.persistent()]
            .into_iter()
            .filter_map(|c| gencache_cache::CodeCache::entry(c, id))
            .map(|e| e.insert_time)
            .min()
    }
}

/// Replays `log` into `model` while simulating trace linking.
///
/// A link `a → b` is created the first time `b` executes directly after
/// `a` with both resident; it is considered severed when either endpoint
/// has been evicted (and possibly re-inserted) since creation.
pub fn replay_with_linking(log: &AccessLog, model: &mut dyn LinkableModel) -> LinkReport {
    let mut report = LinkReport::default();
    // Established links with the endpoint epochs they were created at.
    let mut links: HashMap<(TraceId, TraceId), (Time, Time)> = HashMap::new();
    let mut cursor = ReplayCursor::new();
    let mut prev: Option<TraceId> = None;

    for record in &log.records {
        match (cursor.step(record), record) {
            (ReplayStep::Access(rec, time), LogRecord::Create { .. }) => {
                model.on_access(rec, time);
                prev = Some(rec.id);
            }
            (ReplayStep::Access(rec, time), _) => {
                let id = rec.id;
                // Epochs *before* this access services (a miss will
                // re-insert and change the epoch).
                let to_epoch_before = model.resident_since(id);
                model.on_access(rec, time);

                if let Some(from) = prev {
                    if from != id {
                        report.transitions += 1;
                        let from_epoch = model.resident_since(from);
                        let link_ok = match (links.get(&(from, id)), from_epoch, to_epoch_before) {
                            (Some(&(fe, te)), Some(cur_fe), Some(cur_te)) => {
                                fe == cur_fe && te == cur_te
                            }
                            _ => false,
                        };
                        if link_ok {
                            report.linked += 1;
                        } else {
                            report.unlinked += 1;
                            if links.remove(&(from, id)).is_some() {
                                report.links_severed += 1;
                            }
                            // Patch a fresh link if both ends are now
                            // resident.
                            if let (Some(fe), Some(te)) = (from_epoch, model.resident_since(id)) {
                                links.insert((from, id), (fe, te));
                                report.links_created += 1;
                            }
                        }
                    } else {
                        // Self-transition (the trace looped back into
                        // itself): always intra-trace, never dispatched.
                    }
                }
                prev = Some(id);
            }
            (ReplayStep::Unmap(id, time), _) => {
                model.on_unmap(id, time);
                let stale: Vec<(TraceId, TraceId)> = links
                    .keys()
                    .filter(|(a, b)| *a == id || *b == id)
                    .copied()
                    .collect();
                for key in stale {
                    links.remove(&key);
                    report.links_severed += 1;
                }
                if prev == Some(id) {
                    prev = None;
                }
            }
            (step @ ReplayStep::Pin(..), _) => apply_step(model, step),
        }
    }

    // Defensive: the link map only ever holds pairs of once-resident
    // traces.
    debug_assert!(links
        .keys()
        .flat_map(|(a, b)| [a, b])
        .collect::<HashSet<_>>()
        .iter()
        .all(|&&id| cursor.created(id)));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_cache::TraceRecord;
    use gencache_program::Addr;

    fn rec(id: u64) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), 100, Addr::new(0x1000 + id))
    }

    fn log_of(records: Vec<LogRecord>) -> AccessLog {
        AccessLog {
            benchmark: "link-test".into(),
            records,
            duration: Time::from_secs_f64(1.0),
            peak_trace_bytes: 10_000,
        }
    }

    #[test]
    fn alternating_traces_link_after_first_pass() {
        let mut records = vec![
            LogRecord::Create {
                record: rec(1),
                time: Time::from_micros(1),
            },
            LogRecord::Create {
                record: rec(2),
                time: Time::from_micros(2),
            },
        ];
        for i in 0..10u64 {
            records.push(LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(10 + 2 * i),
            });
            records.push(LogRecord::Access {
                id: TraceId::new(2),
                time: Time::from_micros(11 + 2 * i),
            });
        }
        let log = log_of(records);
        let mut model = UnifiedModel::new(10_000);
        let report = replay_with_linking(&log, &mut model);
        // Transitions: 2→1 (after creates: create2 then access1) plus the
        // alternation; first 1→2 and 2→1 are unlinked, later ones linked.
        assert!(report.linked > 0);
        assert_eq!(report.links_created, 2); // 1→2 and 2→1
        assert!(report.linked_fraction() > 0.8, "{report:?}");
        assert_eq!(report.linked + report.unlinked, report.transitions);
    }

    #[test]
    fn eviction_severs_links() {
        // Cache fits exactly one 100-byte trace: every transition evicts,
        // so no link can ever be used.
        let mut records = vec![
            LogRecord::Create {
                record: rec(1),
                time: Time::from_micros(1),
            },
            LogRecord::Create {
                record: rec(2),
                time: Time::from_micros(2),
            },
        ];
        for i in 0..6u64 {
            records.push(LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(10 + 2 * i),
            });
            records.push(LogRecord::Access {
                id: TraceId::new(2),
                time: Time::from_micros(11 + 2 * i),
            });
        }
        let log = log_of(records);
        let mut model = UnifiedModel::new(150);
        let report = replay_with_linking(&log, &mut model);
        assert_eq!(report.linked, 0, "{report:?}");
        assert_eq!(report.context_switches(), 2 * report.transitions);
    }

    #[test]
    fn unmap_severs_links_immediately() {
        let records = vec![
            LogRecord::Create {
                record: rec(1),
                time: Time::from_micros(1),
            },
            LogRecord::Create {
                record: rec(2),
                time: Time::from_micros(2),
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(3),
            },
            LogRecord::Access {
                id: TraceId::new(2),
                time: Time::from_micros(4),
            },
            LogRecord::Invalidate {
                id: TraceId::new(2),
                time: Time::from_micros(5),
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(6),
            },
        ];
        let log = log_of(records);
        let mut model = UnifiedModel::new(10_000);
        let report = replay_with_linking(&log, &mut model);
        assert!(report.links_severed >= 1);
    }

    #[test]
    fn generational_model_is_linkable() {
        use gencache_core::{GenerationalConfig, PromotionPolicy, Proportions};
        let records = vec![
            LogRecord::Create {
                record: rec(1),
                time: Time::from_micros(1),
            },
            LogRecord::Access {
                id: TraceId::new(1),
                time: Time::from_micros(2),
            },
        ];
        let log = log_of(records);
        let mut model = GenerationalModel::new(GenerationalConfig::new(
            10_000,
            Proportions::best_overall(),
            PromotionPolicy::OnHit { hits: 1 },
        ));
        let report = replay_with_linking(&log, &mut model);
        assert_eq!(report.transitions, 0); // single trace, self-transitions only
        assert!(model.resident_since(TraceId::new(1)).is_some());
    }

    #[test]
    fn empty_log_yields_empty_report() {
        let log = log_of(Vec::new());
        let mut model = UnifiedModel::new(1000);
        let report = replay_with_linking(&log, &mut model);
        assert_eq!(report, LinkReport::default());
        assert_eq!(report.linked_fraction(), 0.0);
    }
}
