//! Decision-level Belady-regret attribution: *why* a configuration
//! loses to the oracle, one eviction at a time.
//!
//! The offline oracle ([`oracle_replay`](crate::oracle_replay)) prints
//! a clairvoyant floor under every configuration, but a floor is not an
//! explanation. This module walks any recorded event stream next to the
//! [`NextUseIndex`] of its reconstructed frontend trace and scores every
//! cause-tagged [`Evict`](CacheEvent::Evict) against the choice Belady's
//! rule would have made at that instant: the **regret** of an eviction
//! is how many executions sooner the evicted trace runs again than the
//! furthest-next-use resident the policy could have evicted instead.
//! Zero regret means the decision was clairvoyantly defensible; the sum
//! of regret over a run is the decision-level account of the gap
//! between a configuration and the oracle row.
//!
//! Each regretful eviction is also tagged with its *realized* cost: the
//! evicted-then-remissed misses it caused (the same churn rule
//! [`MetricsObserver`](crate::MetricsObserver) counts — a property test
//! reconciles the two), priced through the Table 2
//! [`miss_service`](crate::cost::miss_service) formula. The result
//! aggregates into a [`RegretReport`] keyed by phase × region ×
//! eviction cause, with the same input-index-deterministic merge
//! discipline as [`MetricsReport`](crate::MetricsReport): shard reports
//! folded in input order are byte-identical for any worker count.
//!
//! Unmap deletions and whole-cache flushes are *forced* — the frontend
//! or the flush dictated the victim, no alternative existed — so they
//! score zero regret by definition, but their evictions and any
//! re-misses they cause still land in their phase × region × cause
//! cell: a flush that churns is real cost even though it was nobody's
//! decision.

use std::collections::{BinaryHeap, HashMap};

use gencache_cache::{EvictionCause, TraceId, TraceMap};
use serde::{Deserialize, Serialize};

use crate::cost::{miss_service, phase_of};
use crate::event::{CacheEvent, Region};
use crate::observer::Observer;
use crate::oracle::NextUseIndex;

/// Default cap on the contributor traces a report keeps; override with
/// [`RegretObserver::with_top`] (the CLI's `--regret-top`).
pub const TOP_REGRET: usize = 20;

/// Regret aggregates for one phase × region × cause cell (and for the
/// phase- and run-level totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RegretCell {
    /// Evictions scored in this cell.
    pub evictions: u64,
    /// Evictions with positive regret (a sooner-reused trace was evicted
    /// while a further-reused victim was available).
    pub regretful: u64,
    /// Total regret, in executions: how much sooner the evicted traces
    /// run again than the best alternative victims would have.
    pub regret_sum: u64,
    /// The single worst decision's regret.
    pub max_regret: u64,
    /// Re-misses attributed to this cell's evictions (the churn rule:
    /// every miss on a trace after its most recent eviction from here).
    pub remisses: u64,
    /// Table 2 miss-service instructions those re-misses cost.
    pub remiss_instructions: f64,
}

impl RegretCell {
    fn score(&mut self, regret: u64) {
        self.evictions += 1;
        if regret > 0 {
            self.regretful += 1;
            self.regret_sum += regret;
            self.max_regret = self.max_regret.max(regret);
        }
    }

    fn remiss(&mut self, instructions: f64) {
        self.remisses += 1;
        self.remiss_instructions += instructions;
    }

    /// Folds `other` into `self`, field by field in declaration order.
    pub fn merge(&mut self, other: &RegretCell) {
        self.evictions += other.evictions;
        self.regretful += other.regretful;
        self.regret_sum += other.regret_sum;
        self.max_regret = self.max_regret.max(other.max_regret);
        self.remisses += other.remisses;
        self.remiss_instructions += other.remiss_instructions;
    }
}

/// Per-cause regret cells within one region, bucketed exactly like
/// [`RegionCost`](crate::RegionCost): management discards and
/// promotion-path deletions share the `discard` slot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RegionRegret {
    /// Replacement-policy evictions — the decisions Belady judges.
    pub capacity: RegretCell,
    /// Unmapped-memory deletions (forced; always zero regret).
    pub unmapped: RegretCell,
    /// Whole-cache-flush removals (forced; always zero regret).
    pub flush: RegretCell,
    /// Management discards (failed probation, unfit promotions).
    pub discarded: RegretCell,
}

impl RegionRegret {
    fn slot_mut(&mut self, slot: usize) -> &mut RegretCell {
        match slot {
            0 => &mut self.capacity,
            1 => &mut self.unmapped,
            2 => &mut self.flush,
            _ => &mut self.discarded,
        }
    }

    fn merge(&mut self, other: &RegionRegret) {
        self.capacity.merge(&other.capacity);
        self.unmapped.merge(&other.unmapped);
        self.flush.merge(&other.flush);
        self.discarded.merge(&other.discarded);
    }

    /// The cause slices by name, in the same fixed render order as
    /// [`RegionCost::causes`](crate::RegionCost::causes).
    pub fn causes(&self) -> [(&'static str, RegretCell); 4] {
        [
            ("capacity", self.capacity),
            ("unmap", self.unmapped),
            ("flush", self.flush),
            ("discard", self.discarded),
        ]
    }
}

/// The cause bucket an eviction cause lands in, mirroring
/// [`RegionCost`](crate::RegionCost)'s four-way split.
fn cause_slot(cause: EvictionCause) -> usize {
    match cause {
        EvictionCause::Capacity => 0,
        EvictionCause::Unmapped => 1,
        EvictionCause::Flush => 2,
        EvictionCause::Discarded | EvictionCause::Promoted => 3,
    }
}

fn cause_name(slot: usize) -> &'static str {
    match slot {
        0 => "capacity",
        1 => "unmap",
        2 => "flush",
        _ => "discard",
    }
}

/// Whether the cause dictated the victim (no alternative existed, so
/// Belady regret is zero by definition).
fn forced(cause: EvictionCause) -> bool {
    matches!(cause, EvictionCause::Unmapped | EvictionCause::Flush)
}

/// Regret attributed to one workload phase: the phase-local total plus
/// its per-region × per-cause decomposition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseRegret {
    /// Everything scored in this phase.
    pub total: RegretCell,
    /// Region × cause attribution, indexed by [`Region::index`].
    pub regions: Vec<RegionRegret>,
}

impl PhaseRegret {
    fn new() -> Self {
        PhaseRegret {
            total: RegretCell::default(),
            regions: vec![RegionRegret::default(); 4],
        }
    }

    fn merge(&mut self, other: &PhaseRegret) {
        self.total.merge(&other.total);
        if self.regions.len() < other.regions.len() {
            self.regions
                .resize(other.regions.len(), RegionRegret::default());
        }
        for (mine, theirs) in self.regions.iter_mut().zip(&other.regions) {
            mine.merge(theirs);
        }
    }
}

/// The single worst (highest-regret) eviction of a contributor trace —
/// everything a trace-grounded narrative needs to name the decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorstEviction {
    /// Execution position of the decision (executions consumed before
    /// it).
    pub exec: u64,
    /// Phase the eviction fell in.
    pub phase: u32,
    /// Region the trace was evicted from, by name.
    pub region: String,
    /// Cause bucket, by name (`capacity` / `unmap` / `flush` /
    /// `discard`).
    pub cause: String,
    /// Executions until the evicted trace ran again (distance to end of
    /// run when it never did).
    pub next_use: u64,
    /// Whether the evicted trace was ever executed again.
    pub reused: bool,
    /// The furthest-next-use resident the policy could have evicted
    /// instead (the evicted trace's own id when no alternative existed).
    pub victim: u64,
    /// Executions until that alternative victim ran again.
    pub victim_next_use: u64,
    /// Whether the alternative victim was ever executed again.
    pub victim_reused: bool,
    /// `victim_next_use - next_use` when positive: how much sooner the
    /// evicted trace was needed than the Belady choice.
    pub regret: u64,
}

/// One trace's aggregate contribution to a run's regret, plus its worst
/// single decision.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegretContributor {
    /// The trace's raw id.
    pub trace: u64,
    /// Trace body size in bytes (as of its last eviction).
    pub bytes: u32,
    /// Times the trace was evicted from the hierarchy.
    pub evictions: u64,
    /// Total regret across those evictions, in executions.
    pub regret_sum: u64,
    /// Misses on the trace after it had been evicted at least once.
    pub remisses: u64,
    /// Table 2 miss-service instructions those re-misses cost.
    pub remiss_instructions: f64,
    /// The highest-regret eviction of this trace.
    pub worst: WorstEviction,
}

/// The serializable end product of a [`RegretObserver`] walk: the
/// decision-level account of one configuration's distance from the
/// Belady oracle.
///
/// Reports merge associatively; shard reports folded in input-index
/// order produce byte-identical JSON for any worker count.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RegretReport {
    /// Executions walked (hits + misses), for context and alignment
    /// validation.
    pub accesses: u64,
    /// The contributor-table truncation cap this report was built with
    /// ([`TOP_REGRET`] unless overridden by `--regret-top`). Kept in the
    /// document so merged reports know the honest cap.
    pub top: u64,
    /// Run-wide regret aggregates.
    pub total: RegretCell,
    /// Per-phase attribution, in phase order.
    pub phases: Vec<PhaseRegret>,
    /// The worst contributor traces, sorted by (regret desc, remisses
    /// desc, trace asc), truncated to the report's `top` cap.
    pub contributors: Vec<RegretContributor>,
}

impl RegretReport {
    /// An empty report with `phases` phase slots present.
    pub fn new(phases: usize) -> Self {
        RegretReport {
            top: TOP_REGRET as u64,
            phases: (0..phases.max(1)).map(|_| PhaseRegret::new()).collect(),
            ..RegretReport::default()
        }
    }

    /// Folds `other` into `self`: cells add field-by-field, phases
    /// combine by index (growing to the longer list), contributor tables
    /// combine by trace id and re-truncate. Merging in input-index order
    /// is deterministic for any job count.
    pub fn merge(&mut self, other: &RegretReport) {
        self.accesses += other.accesses;
        // Honest cap after a merge: the larger of the two inputs'
        // (a default-constructed accumulator starts at 0).
        self.top = self.top.max(other.top);
        self.total.merge(&other.total);
        if self.phases.len() < other.phases.len() {
            self.phases.resize(other.phases.len(), PhaseRegret::new());
        }
        for (mine, theirs) in self.phases.iter_mut().zip(&other.phases) {
            mine.merge(theirs);
        }
        let mut by_trace: HashMap<u64, RegretContributor> = HashMap::new();
        for e in self.contributors.iter().chain(&other.contributors) {
            by_trace
                .entry(e.trace)
                .and_modify(|m| {
                    m.evictions += e.evictions;
                    m.regret_sum += e.regret_sum;
                    m.remisses += e.remisses;
                    m.remiss_instructions += e.remiss_instructions;
                    if e.worst.regret > m.worst.regret {
                        m.worst = e.worst.clone();
                        m.bytes = e.bytes;
                    }
                })
                .or_insert_with(|| e.clone());
        }
        self.contributors = sort_contributors(by_trace.into_values().collect(), self.top as usize);
    }
}

/// Sorts contributors by (regret desc, remisses desc, trace asc) and
/// keeps the top `top`.
fn sort_contributors(mut entries: Vec<RegretContributor>, top: usize) -> Vec<RegretContributor> {
    entries.sort_by(|a, b| {
        b.regret_sum
            .cmp(&a.regret_sum)
            .then(b.remisses.cmp(&a.remisses))
            .then(a.trace.cmp(&b.trace))
    });
    entries.truncate(top);
    entries
}

/// Per-trace walker state: aggregates plus the attribution target of the
/// trace's most recent eviction (where its future re-misses are charged).
#[derive(Debug, Clone)]
struct TraceRegret {
    bytes: u32,
    evictions: u64,
    regret_sum: u64,
    remisses: u64,
    remiss_instructions: f64,
    last: (usize, usize, usize), // (phase, region index, cause slot)
    worst: WorstEviction,
}

#[derive(Debug, Clone, Copy)]
struct ResidentState {
    next: usize,
    pinned: bool,
}

/// An [`Observer`] that scores every eviction in an event stream against
/// the clairvoyant alternative.
///
/// The walker leans on the `reconstruct_trace` invariant: instrumented
/// replays emit exactly one [`Hit`](CacheEvent::Hit) or
/// [`Miss`](CacheEvent::Miss) per execution, in frontend order, so
/// counting them aligns the stream with the [`NextUseIndex`] built over
/// the reconstructed trace. From there it mirrors the oracle's own
/// bookkeeping — a furthest-next-use set over unpinned residents, ties
/// broken by trace id — which is what makes the oracle's own decision
/// stream score exactly zero (property-tested).
#[derive(Debug)]
pub struct RegretObserver<'a> {
    index: &'a NextUseIndex,
    phases: u32,
    duration_us: u64,
    /// Contributor-table truncation cap for the report.
    top: usize,
    /// Executions consumed so far = current execution position.
    exec: usize,
    /// Each trace's next execution position, as of its last execution.
    next_of: TraceMap<TraceId, usize>,
    resident: TraceMap<TraceId, ResidentState>,
    /// Unpinned residents keyed by next use, kept lazily: an entry is
    /// live only while it matches its trace's `resident` state, and
    /// stale entries are dropped as they surface. The live maximum is
    /// the Belady victim, exactly as in the oracle.
    by_distance: BinaryHeap<(usize, TraceId)>,
    churn: TraceMap<TraceId, TraceRegret>,
    accesses: u64,
    total: RegretCell,
    phase_cells: Vec<PhaseRegret>,
}

impl<'a> RegretObserver<'a> {
    /// A single-phase walker: everything lands in phase 0.
    pub fn new(index: &'a NextUseIndex) -> Self {
        RegretObserver::with_phases(index, 1, 0)
    }

    /// A walker attributing decisions to `phases` equal time slices of a
    /// run lasting `duration_us` microseconds — the same convention as
    /// [`CostObserver`](crate::CostObserver).
    pub fn with_phases(index: &'a NextUseIndex, phases: u32, duration_us: u64) -> Self {
        RegretObserver::with_top(index, phases, duration_us, TOP_REGRET)
    }

    /// A walker whose report keeps up to `top` contributor traces
    /// (minimum 1) instead of the default [`TOP_REGRET`].
    pub fn with_top(index: &'a NextUseIndex, phases: u32, duration_us: u64, top: usize) -> Self {
        let phases = phases.max(1);
        RegretObserver {
            index,
            phases,
            duration_us,
            top: top.max(1),
            exec: 0,
            next_of: TraceMap::new(),
            resident: TraceMap::new(),
            by_distance: BinaryHeap::new(),
            churn: TraceMap::new(),
            accesses: 0,
            total: RegretCell::default(),
            phase_cells: (0..phases).map(|_| PhaseRegret::new()).collect(),
        }
    }

    /// The next execution position of the execution at position `exec`,
    /// tolerating streams longer than the index (alignment slack counts
    /// as "never again").
    fn next_after(&self, exec: usize) -> usize {
        if exec < self.index.total() {
            self.index.next_after(exec)
        } else {
            self.index.total()
        }
    }

    /// One execution consumed: refresh the trace's next use and re-key
    /// its residency entry.
    fn on_execution(&mut self, trace: TraceId) -> usize {
        let j = self.exec;
        self.exec += 1;
        self.accesses += 1;
        let next = self.next_after(j);
        self.next_of.insert(trace, next);
        let unpinned = self.resident.get_mut(trace).is_some_and(|r| {
            r.next = next;
            !r.pinned
        });
        if unpinned {
            self.push_candidate(next, trace);
        }
        next
    }

    /// Makes `trace`, next used at `next`, a victim candidate. The heap
    /// is rebuilt from the live residents once stale entries outnumber
    /// them, so its size stays O(resident set).
    fn push_candidate(&mut self, next: usize, trace: TraceId) {
        self.by_distance.push((next, trace));
        if self.by_distance.len() > 2 * self.resident.len() + 64 {
            let mut live = std::mem::take(&mut self.by_distance).into_vec();
            live.clear();
            live.extend(
                self.resident
                    .iter()
                    .filter(|(_, r)| !r.pinned)
                    .map(|(id, r)| (r.next, id)),
            );
            self.by_distance = BinaryHeap::from(live);
        }
    }

    /// The unpinned resident with the furthest next use (ties to the
    /// larger id), dropping the stale entries above it.
    fn belady_victim(&mut self) -> Option<(usize, TraceId)> {
        while let Some(&(next, trace)) = self.by_distance.peek() {
            let live = self
                .resident
                .get(trace)
                .is_some_and(|r| !r.pinned && r.next == next);
            if live {
                return Some((next, trace));
            }
            self.by_distance.pop();
        }
        None
    }

    fn score_evict(
        &mut self,
        region: Region,
        trace: TraceId,
        bytes: u32,
        cause: EvictionCause,
        time_us: u64,
    ) {
        let now = self.exec;
        let total_execs = self.index.total();
        // The trace leaves the hierarchy; its next use was fixed at its
        // last execution.
        let evicted_next = match self.resident.remove(trace) {
            Some(st) => st.next,
            None => self.next_of.get(trace).copied().unwrap_or(total_execs),
        };
        let (victim, victim_next, regret) = if forced(cause) {
            (trace, evicted_next, 0u64)
        } else {
            match self.belady_victim() {
                Some((vn, vid)) if vn > evicted_next => (vid, vn, (vn - evicted_next) as u64),
                Some((vn, vid)) => (vid, vn, 0),
                None => (trace, evicted_next, 0),
            }
        };
        let p = phase_of(time_us, self.duration_us, self.phases);
        let r = region.index().min(3);
        let slot = cause_slot(cause);
        self.total.score(regret);
        self.phase_cells[p].total.score(regret);
        self.phase_cells[p].regions[r].slot_mut(slot).score(regret);

        // Built only when it is kept: most evictions are not a trace's
        // worst.
        let worst = || WorstEviction {
            exec: now as u64,
            phase: p as u32,
            region: region.name().to_string(),
            cause: cause_name(slot).to_string(),
            next_use: evicted_next.saturating_sub(now) as u64,
            reused: evicted_next < total_execs,
            victim: victim.as_u64(),
            victim_next_use: victim_next.saturating_sub(now) as u64,
            victim_reused: victim_next < total_execs,
            regret,
        };
        let entry = self.churn.get_or_insert_with(trace, || TraceRegret {
            bytes,
            evictions: 0,
            regret_sum: 0,
            remisses: 0,
            remiss_instructions: 0.0,
            last: (p, r, slot),
            worst: worst(),
        });
        entry.bytes = bytes;
        entry.evictions += 1;
        entry.regret_sum += regret;
        entry.last = (p, r, slot);
        if regret > entry.worst.regret {
            entry.worst = worst();
        }
    }

    /// Builds the serializable report from everything walked so far.
    pub fn report(&self) -> RegretReport {
        let contributors = self
            .churn
            .iter()
            .filter(|(_, s)| s.regret_sum > 0 || s.remisses > 0)
            .map(|(trace, s)| RegretContributor {
                trace: trace.as_u64(),
                bytes: s.bytes,
                evictions: s.evictions,
                regret_sum: s.regret_sum,
                remisses: s.remisses,
                remiss_instructions: s.remiss_instructions,
                worst: s.worst.clone(),
            })
            .collect();
        RegretReport {
            accesses: self.accesses,
            top: self.top as u64,
            total: self.total,
            phases: self.phase_cells.clone(),
            contributors: sort_contributors(contributors, self.top),
        }
    }
}

impl Observer for RegretObserver<'_> {
    fn on_event(&mut self, event: &CacheEvent) {
        match *event {
            CacheEvent::Hit { trace, .. } => {
                self.on_execution(trace);
            }
            CacheEvent::Miss { trace, bytes, .. } => {
                self.on_execution(trace);
                // The churn rule: a miss on a trace evicted at least once
                // is a re-miss, realized cost of its most recent eviction.
                if let Some(c) = self.churn.get_mut(trace) {
                    let cost = miss_service(bytes);
                    c.remisses += 1;
                    c.remiss_instructions += cost;
                    let (p, r, slot) = c.last;
                    self.total.remiss(cost);
                    self.phase_cells[p].total.remiss(cost);
                    self.phase_cells[p].regions[r].slot_mut(slot).remiss(cost);
                }
            }
            CacheEvent::Insert { trace, .. } => {
                let next = self
                    .next_of
                    .get(trace)
                    .copied()
                    .unwrap_or_else(|| self.index.total());
                self.resident.insert(
                    trace,
                    ResidentState {
                        next,
                        pinned: false,
                    },
                );
                self.push_candidate(next, trace);
            }
            CacheEvent::Evict {
                region,
                trace,
                bytes,
                cause,
                time,
                ..
            } => {
                self.score_evict(region, trace, bytes, cause, time.as_micros());
            }
            CacheEvent::Pin { trace, .. } => {
                // Its heap entries go stale until the unpin.
                if let Some(r) = self.resident.get_mut(trace) {
                    r.pinned = true;
                }
            }
            CacheEvent::Unpin { trace, .. } => {
                let unpinned = self.resident.get_mut(trace).and_then(|r| {
                    let was_pinned = std::mem::replace(&mut r.pinned, false);
                    was_pinned.then_some(r.next)
                });
                if let Some(next) = unpinned {
                    self.push_candidate(next, trace);
                }
            }
            // Promotions relocate a trace between regions; it stays
            // resident in the hierarchy, so the victim set is unchanged.
            CacheEvent::Promote { .. }
            | CacheEvent::PromotedIn { .. }
            | CacheEvent::Noop { .. }
            | CacheEvent::PointerReset { .. }
            | CacheEvent::PolicySwap { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::oracle_replay_events;
    use gencache_cache::{LogRecord, TraceRecord};
    use gencache_program::{Addr, Time};

    fn create(id: u64, bytes: u32, t: u64) -> LogRecord {
        LogRecord::Create {
            record: TraceRecord::new(TraceId::new(id), bytes, Addr::new(id)),
            time: Time::from_micros(t),
        }
    }

    fn access(id: u64, t: u64) -> LogRecord {
        LogRecord::Access {
            id: TraceId::new(id),
            time: Time::from_micros(t),
        }
    }

    fn miss(id: u64, bytes: u32, t: u64) -> CacheEvent {
        CacheEvent::Miss {
            trace: TraceId::new(id),
            bytes,
            time: Time::from_micros(t),
        }
    }

    fn insert(id: u64, bytes: u32, t: u64) -> CacheEvent {
        CacheEvent::Insert {
            region: Region::Unified,
            trace: TraceId::new(id),
            bytes,
            used: 0,
            time: Time::from_micros(t),
        }
    }

    fn evict(id: u64, bytes: u32, cause: EvictionCause, t: u64) -> CacheEvent {
        CacheEvent::Evict {
            region: Region::Unified,
            trace: TraceId::new(id),
            bytes,
            cause,
            age_us: 0,
            idle_us: 0,
            time: Time::from_micros(t),
        }
    }

    fn walk(trace: &[LogRecord], events: &[CacheEvent]) -> RegretReport {
        let index = NextUseIndex::build(trace);
        let mut obs = RegretObserver::new(&index);
        for e in events {
            obs.on_event(e);
        }
        obs.report()
    }

    #[test]
    fn evicting_the_sooner_reused_trace_is_regretful() {
        // Trace 1 runs again 1 execution after the eviction point; trace
        // 2 runs again 2 executions after. Evicting 1 instead of 2 is a
        // regret of exactly 1 execution, realized as one re-miss.
        let trace = vec![
            create(1, 100, 0),
            create(2, 100, 1),
            access(1, 2),
            access(2, 3),
        ];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            evict(1, 100, EvictionCause::Capacity, 1), // wrong victim
            miss(1, 100, 2),                           // the re-miss it caused
            insert(1, 100, 2),
            CacheEvent::Hit {
                region: Region::Unified,
                trace: TraceId::new(2),
                reuse_us: 0,
                time: Time::from_micros(3),
            },
        ];
        let report = walk(&trace, &events);
        assert_eq!(report.accesses, 4);
        assert_eq!(report.total.evictions, 1);
        assert_eq!(report.total.regretful, 1);
        assert_eq!(report.total.regret_sum, 1);
        assert_eq!(report.total.remisses, 1);
        assert!(report.total.remiss_instructions > 0.0);
        assert_eq!(report.contributors.len(), 1);
        let c = &report.contributors[0];
        assert_eq!(c.trace, 1);
        assert_eq!(c.remisses, 1);
        assert_eq!(c.worst.victim, 2);
        assert_eq!(c.worst.next_use, 0); // reused at the very next execution
        assert!(c.worst.reused);
        assert_eq!(c.worst.regret, 1);
    }

    #[test]
    fn evicting_the_furthest_resident_is_regret_free() {
        let trace = vec![
            create(1, 100, 0),
            create(2, 100, 1),
            access(1, 2),
            access(2, 3),
        ];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            evict(2, 100, EvictionCause::Capacity, 1), // Belady's own choice
        ];
        let report = walk(&trace, &events);
        assert_eq!(report.total.evictions, 1);
        assert_eq!(report.total.regretful, 0);
        assert_eq!(report.total.regret_sum, 0);
        // A regret-free, remiss-free eviction is not a contributor.
        assert!(report.contributors.is_empty());
    }

    #[test]
    fn forced_causes_score_zero_but_remisses_still_land() {
        // Unmapping the sooner-reused trace is not a decision: zero
        // regret, but the re-miss is still charged to the unmap cell.
        let trace = vec![create(1, 100, 0), create(2, 100, 1), create(1, 80, 2)];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            evict(1, 100, EvictionCause::Unmapped, 1),
            miss(1, 80, 2),
        ];
        let report = walk(&trace, &events);
        assert_eq!(report.total.evictions, 1);
        assert_eq!(report.total.regret_sum, 0);
        assert_eq!(report.total.remisses, 1);
        let cell = report.phases[0].regions[Region::Unified.index()].unmapped;
        assert_eq!(cell.evictions, 1);
        assert_eq!(cell.remisses, 1);
    }

    #[test]
    fn pinned_residents_are_not_belady_victims() {
        // Trace 2 is pinned, so the only alternative to evicting trace 1
        // is trace 3; regret compares against 3, not 2.
        let trace = vec![
            create(1, 100, 0),
            create(2, 100, 1),
            create(3, 100, 2),
            access(1, 3),
            access(3, 4),
            access(2, 5),
        ];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            CacheEvent::Pin {
                region: Region::Unified,
                trace: TraceId::new(2),
                time: Time::from_micros(1),
            },
            miss(3, 100, 2),
            insert(3, 100, 2),
            // exec=3 now. Next uses: t1 → exec 3 (now), t3 → exec 4,
            // t2 → exec 5 (pinned, excluded). Belady would evict t3.
            evict(1, 100, EvictionCause::Capacity, 2),
        ];
        let report = walk(&trace, &events);
        assert_eq!(report.total.evictions, 1);
        let c = &report.contributors[0];
        assert_eq!(c.worst.victim, 3, "pinned trace 2 must not be the baseline");
        assert_eq!(c.worst.regret, 1);
    }

    #[test]
    fn oracle_decision_stream_has_zero_regret() {
        // The walker scores the oracle's own capacity decisions at
        // exactly zero — the property the proptest generalizes.
        let trace = vec![
            create(1, 100, 0),
            create(2, 100, 1),
            create(3, 100, 2),
            access(1, 3),
            access(3, 4),
            access(2, 5),
            create(4, 120, 6),
            access(1, 7),
        ];
        let (_, events) = oracle_replay_events(&trace, 250);
        let report = walk(&trace, &events);
        assert!(report.total.evictions > 0, "scenario must actually evict");
        assert_eq!(report.total.regret_sum, 0);
        assert_eq!(report.total.regretful, 0);
    }

    #[test]
    fn merge_combines_cells_and_contributors() {
        let trace = vec![
            create(1, 100, 0),
            create(2, 100, 1),
            access(1, 2),
            access(2, 3),
        ];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            evict(1, 100, EvictionCause::Capacity, 1),
            miss(1, 100, 2),
        ];
        let one = walk(&trace, &events);
        let mut merged = one.clone();
        merged.merge(&one);
        assert_eq!(merged.accesses, 2 * one.accesses);
        assert_eq!(merged.total.regret_sum, 2 * one.total.regret_sum);
        assert_eq!(merged.total.max_regret, one.total.max_regret);
        assert_eq!(merged.contributors.len(), 1);
        assert_eq!(merged.contributors[0].evictions, 2);
        assert_eq!(merged.contributors[0].remisses, 2);
    }

    #[test]
    fn phase_bucketing_matches_cost_observer_convention() {
        let trace = vec![create(1, 100, 0), create(2, 100, 90), access(1, 95)];
        let index = NextUseIndex::build(&trace);
        let mut obs = RegretObserver::with_phases(&index, 2, 100);
        for e in [
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 90),
            insert(2, 100, 90),
            evict(1, 100, EvictionCause::Capacity, 90),
            miss(1, 100, 95),
        ] {
            obs.on_event(&e);
        }
        let report = obs.report();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[0].total.evictions, 0);
        assert_eq!(report.phases[1].total.evictions, 1);
        // The re-miss is charged to the eviction's phase.
        assert_eq!(report.phases[1].total.remisses, 1);
    }

    #[test]
    fn report_roundtrips_through_value() {
        let trace = vec![create(1, 100, 0), create(2, 100, 1), access(1, 2)];
        let events = vec![
            miss(1, 100, 0),
            insert(1, 100, 0),
            miss(2, 100, 1),
            insert(2, 100, 1),
            evict(1, 100, EvictionCause::Capacity, 1),
            miss(1, 100, 2),
        ];
        let report = walk(&trace, &events);
        let value = report.to_value();
        let back = RegretReport::from_value(&value).expect("roundtrip");
        assert_eq!(back, report);
    }
}
