//! The pseudo-circular local replacement policy (Section 4.3).
//!
//! From a distance the cache behaves as a circular FIFO buffer: a single
//! *cache pointer* marks the next insertion point, and inserting a new
//! trace evicts zero or more existing traces that occupy the bytes the new
//! trace needs. Two deviations make it "pseudo":
//!
//! * **Undeletable traces.** When an eviction candidate is pinned, the
//!   pointer resets to just past the pinned trace and the eviction scan
//!   restarts there.
//! * **Program-forced evictions.** Unmap deletions punch holes anywhere in
//!   the buffer; the policy ignores them (no hole list) and simply reuses
//!   the space when the pointer next sweeps past.

use gencache_program::Time;

use crate::arena::Arena;
use crate::cache::{CodeCache, FragmentationReport, InsertError, InsertReport};
use crate::record::{EntryInfo, Evicted, EvictionCause, TraceId, TraceRecord};
use crate::stats::CacheStats;

/// A fixed-capacity code cache managed by the pseudo-circular policy.
///
/// # Examples
///
/// ```
/// use gencache_cache::{CodeCache, PseudoCircularCache, TraceId, TraceRecord};
/// use gencache_program::{Addr, Time};
///
/// let mut cache = PseudoCircularCache::new(1024);
/// let rec = TraceRecord::new(TraceId::new(1), 300, Addr::new(0x1000));
/// let report = cache.insert(rec, Time::ZERO)?;
/// assert!(report.evicted.is_empty());
/// assert!(cache.contains(TraceId::new(1)));
/// # Ok::<(), gencache_cache::InsertError>(())
/// ```
#[derive(Debug, Clone)]
pub struct PseudoCircularCache {
    arena: Arena,
    capacity: u64,
    pointer: u64,
    stats: CacheStats,
}

impl PseudoCircularCache {
    /// Creates a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        PseudoCircularCache {
            arena: Arena::new(),
            capacity,
            pointer: 0,
            stats: CacheStats::default(),
        }
    }

    /// The current insertion/eviction pointer offset, exposed for tests
    /// and diagnostics.
    pub fn pointer(&self) -> u64 {
        self.pointer
    }

    /// Inserts a trace promoted from another cache, carrying its
    /// accumulated metadata — access count, original insert time, last
    /// access, pin state — instead of starting fresh. This keeps hotness
    /// and lifetime accounting cumulative across a generational
    /// hierarchy: a trace's age runs from its first insertion, not from
    /// its latest promotion.
    pub fn insert_promoted(
        &mut self,
        victim: EntryInfo,
        now: Time,
    ) -> Result<InsertReport, InsertError> {
        let report = self.insert(victim.record, now)?;
        let entry = self
            .arena
            .entry_mut(victim.id())
            .expect("entry was just inserted");
        entry.access_count = victim.access_count;
        entry.insert_time = victim.insert_time;
        entry.last_access = victim.last_access.max(entry.last_access);
        entry.pinned = victim.pinned;
        Ok(report)
    }

    /// Evicts every unpinned entry overlapping `[start, end)`, appending
    /// their metadata to `evicted`. Returns the first *pinned* entry found
    /// in the window, if any (the caller must skip past it).
    fn evict_window(
        &mut self,
        start: u64,
        end: u64,
        evicted: &mut Vec<Evicted>,
    ) -> Option<EntryInfo> {
        loop {
            let id = self.arena.first_overlapping(start, end)?;
            let info = *self.arena.entry(id).expect("resident");
            if info.pinned {
                return Some(info);
            }
            self.arena.remove(id);
            self.stats
                .on_remove(u64::from(info.size_bytes()), EvictionCause::Capacity);
            evicted.push(Evicted {
                entry: info,
                cause: EvictionCause::Capacity,
            });
        }
    }
}

impl CodeCache for PseudoCircularCache {
    fn capacity(&self) -> Option<u64> {
        Some(self.capacity)
    }

    fn used_bytes(&self) -> u64 {
        self.arena.used_bytes()
    }

    fn len(&self) -> usize {
        self.arena.len()
    }

    fn contains(&self, id: TraceId) -> bool {
        self.arena.contains(id)
    }

    fn entry(&self, id: TraceId) -> Option<EntryInfo> {
        self.arena.entry(id).copied()
    }

    fn touch(&mut self, id: TraceId, now: Time) -> bool {
        match self.arena.entry_mut(id) {
            Some(e) => {
                e.access_count += 1;
                e.last_access = now;
                self.stats.hits += 1;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, rec: TraceRecord, now: Time) -> Result<InsertReport, InsertError> {
        let size = u64::from(rec.size_bytes);
        if size > self.capacity {
            return Err(InsertError::TraceTooLarge {
                size: rec.size_bytes,
                capacity: self.capacity,
            });
        }
        if self.arena.contains(rec.id) {
            return Err(InsertError::AlreadyResident(rec.id));
        }

        let mut evicted = Vec::new();
        let mut p = self.pointer;
        let mut wraps = 0u32;
        let mut pointer_resets = 0u32;
        loop {
            // Wrap when the trace cannot fit between the pointer and the
            // end of the buffer. The (oldest) unpinned tail entries are
            // evicted — they were next in FIFO order anyway — and any
            // pinned tail entries are simply skipped by the wrap. The
            // scan must resume past each pinned entry: stopping at the
            // first one would leave unpinned entries beyond it resident,
            // violating FIFO order (they would be older than everything
            // the wrap is about to displace at the front).
            if p + size > self.capacity {
                let mut scan = p;
                while let Some(pinned) = self.evict_window(scan, self.capacity, &mut evicted) {
                    scan = pinned.end_offset();
                    pointer_resets += 1;
                }
                p = 0;
                wraps += 1;
                if wraps > 2 {
                    return Err(InsertError::NoSpace {
                        size: rec.size_bytes,
                        pinned_bytes: self.arena.pinned_bytes(),
                    });
                }
                continue;
            }
            match self.evict_window(p, p + size, &mut evicted) {
                None => break, // window is free
                Some(pinned) => {
                    // Undeletable trace: reset the pointer to just past it
                    // and restart the eviction scan (Section 4.3).
                    p = pinned.end_offset();
                    pointer_resets += 1;
                }
            }
        }

        self.arena.place(rec, p, now);
        self.pointer = p + size;
        self.stats.on_insert(size, self.arena.used_bytes());
        self.stats.debug_assert_identity(self.arena.len() as u64);
        Ok(InsertReport {
            evicted,
            offset: p,
            pointer_resets,
        })
    }

    fn remove(&mut self, id: TraceId, cause: EvictionCause) -> Option<EntryInfo> {
        let info = self.arena.remove(id)?;
        self.stats.on_remove(u64::from(info.size_bytes()), cause);
        self.stats.debug_assert_identity(self.arena.len() as u64);
        Some(info)
    }

    fn set_pinned(&mut self, id: TraceId, pinned: bool) -> bool {
        match self.arena.entry_mut(id) {
            Some(e) => {
                e.pinned = pinned;
                true
            }
            None => false,
        }
    }

    fn stats(&self) -> &CacheStats {
        &self.stats
    }

    fn fragmentation(&self) -> FragmentationReport {
        self.arena.fragmentation(self.capacity)
    }

    fn trace_ids(&self) -> Vec<TraceId> {
        self.arena.ids()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Addr;

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id * 0x100))
    }

    fn ids(report: &InsertReport) -> Vec<u64> {
        report.evicted.iter().map(|e| e.id().as_u64()).collect()
    }

    #[test]
    fn fills_without_eviction() {
        let mut c = PseudoCircularCache::new(100);
        assert!(c.insert(rec(1, 40), Time::ZERO).unwrap().evicted.is_empty());
        assert!(c.insert(rec(2, 40), Time::ZERO).unwrap().evicted.is_empty());
        assert_eq!(c.used_bytes(), 80);
        assert_eq!(c.pointer(), 80);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn fifo_eviction_order_on_wrap() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 40), Time::ZERO).unwrap(); // [0,40)
        c.insert(rec(2, 40), Time::ZERO).unwrap(); // [40,80)
                                                   // 30 bytes won't fit in the 20-byte tail: tail is free, no tail
                                                   // entries, wrap to 0 and evict trace 1 (the oldest).
        let report = c.insert(rec(3, 30), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
        assert_eq!(report.offset, 0);
        assert!(c.contains(TraceId::new(2)));
        assert!(c.contains(TraceId::new(3)));
    }

    #[test]
    fn eviction_takes_multiple_victims() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap();
        c.insert(rec(2, 30), Time::ZERO).unwrap();
        c.insert(rec(3, 30), Time::ZERO).unwrap();
        // Pointer at 90; a 60-byte insert wraps and must displace 1 and 2.
        let report = c.insert(rec(4, 60), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1, 2]);
        assert_eq!(c.used_bytes(), 90);
    }

    #[test]
    fn exact_fit_at_tail_does_not_wrap() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 60), Time::ZERO).unwrap();
        let report = c.insert(rec(2, 40), Time::ZERO).unwrap();
        assert!(report.evicted.is_empty());
        assert_eq!(report.offset, 60);
        assert_eq!(c.pointer(), 100);
        // Next insert wraps to offset 0.
        let report = c.insert(rec(3, 10), Time::ZERO).unwrap();
        assert_eq!(report.offset, 0);
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn pinned_trace_resets_pointer() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.insert(rec(3, 40), Time::ZERO).unwrap(); // [60,100)
        assert!(c.set_pinned(TraceId::new(1), true));
        // Wrap: eviction candidate 1 is pinned, so the pointer resets past
        // it and evicts trace 2 instead.
        let report = c.insert(rec(4, 30), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![2]);
        assert_eq!(report.offset, 30);
        assert!(c.contains(TraceId::new(1)), "pinned trace must survive");
    }

    #[test]
    fn pinned_tail_survives_wrap() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 40), Time::ZERO).unwrap(); // [0,40)
        c.insert(rec(2, 60), Time::ZERO).unwrap(); // [40,100)
        c.set_pinned(TraceId::new(2), true);
        // Pointer is at 100 ⇒ wraps; trace 2 occupies the tail but is
        // pinned and must survive; trace 1 is evicted.
        let report = c.insert(rec(3, 40), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
        assert_eq!(report.offset, 0);
        assert!(c.contains(TraceId::new(2)));
    }

    #[test]
    fn wrap_evicts_unpinned_entries_beyond_a_pinned_tail_entry() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 50), Time::ZERO).unwrap(); // [30,80)
        c.insert(rec(3, 10), Time::ZERO).unwrap(); // [80,90)
        c.insert(rec(4, 10), Time::ZERO).unwrap(); // [90,100)
                                                   // Wrap once so the pointer lands mid-buffer with entries
                                                   // still occupying the tail behind it.
        let report = c.insert(rec(5, 30), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
        assert_eq!(c.pointer(), 30);
        c.set_pinned(TraceId::new(3), true);
        // 75 bytes do not fit in the 70-byte tail ⇒ wrap. The tail scan
        // hits pinned trace 3 at [80,90); it must keep scanning past it
        // and still evict trace 4 at [90,100).
        let report = c.insert(rec(6, 75), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![2, 4, 5]);
        assert_eq!(report.offset, 0);
        assert!(c.contains(TraceId::new(3)), "pinned trace must survive");
        assert!(
            !c.contains(TraceId::new(4)),
            "unpinned tail entry beyond the pinned one must not survive the wrap"
        );
    }

    #[test]
    fn fully_pinned_cache_reports_no_space() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        c.set_pinned(TraceId::new(2), true);
        let err = c.insert(rec(3, 60), Time::ZERO).unwrap_err();
        assert_eq!(
            err,
            InsertError::NoSpace {
                size: 60,
                pinned_bytes: 100
            }
        );
    }

    #[test]
    fn oversized_trace_rejected() {
        let mut c = PseudoCircularCache::new(100);
        assert_eq!(
            c.insert(rec(1, 101), Time::ZERO),
            Err(InsertError::TraceTooLarge {
                size: 101,
                capacity: 100
            })
        );
    }

    #[test]
    fn duplicate_insert_rejected() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 10), Time::ZERO).unwrap();
        assert_eq!(
            c.insert(rec(1, 10), Time::ZERO),
            Err(InsertError::AlreadyResident(TraceId::new(1)))
        );
    }

    #[test]
    fn forced_deletion_leaves_hole_that_is_reused() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.insert(rec(3, 40), Time::ZERO).unwrap(); // [60,100)
                                                   // Unmap deletes trace 1 mid-buffer.
        let removed = c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        assert_eq!(removed.offset, 0);
        let frag = c.fragmentation();
        assert_eq!(frag.free_bytes, 30);
        assert_eq!(frag.gap_count, 1);
        // Pointer still at 100; the next insert wraps to 0 and reuses the
        // hole without evicting anyone (it fits in the hole).
        let report = c.insert(rec(4, 25), Time::ZERO).unwrap();
        assert!(report.evicted.is_empty());
        assert_eq!(report.offset, 0);
    }

    #[test]
    fn insert_promoted_carries_metadata() {
        let mut donor = PseudoCircularCache::new(100);
        donor.insert(rec(1, 40), Time::ZERO).unwrap();
        donor.touch(TraceId::new(1), Time::from_micros(3));
        donor.touch(TraceId::new(1), Time::from_micros(7));
        let victim = donor
            .remove(TraceId::new(1), EvictionCause::Promoted)
            .unwrap();

        let mut target = PseudoCircularCache::new(100);
        target
            .insert_promoted(victim, Time::from_micros(10))
            .unwrap();
        let e = target.entry(TraceId::new(1)).unwrap();
        assert_eq!(e.access_count, 2, "access count carried over");
        assert_eq!(e.insert_time, Time::ZERO, "original insert time kept");
        assert_eq!(e.last_access, Time::from_micros(10));
        assert!(!e.pinned);
    }

    #[test]
    fn touch_updates_access_metadata() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 10), Time::ZERO).unwrap();
        assert!(c.touch(TraceId::new(1), Time::from_micros(5)));
        assert!(c.touch(TraceId::new(1), Time::from_micros(9)));
        let e = c.entry(TraceId::new(1)).unwrap();
        assert_eq!(e.access_count, 2);
        assert_eq!(e.last_access, Time::from_micros(9));
        assert!(!c.touch(TraceId::new(2), Time::ZERO));
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn stats_track_causes() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 60), Time::ZERO).unwrap();
        c.insert(rec(2, 60), Time::ZERO).unwrap(); // evicts 1
        c.remove(TraceId::new(2), EvictionCause::Unmapped);
        let s = c.stats();
        assert_eq!(s.insertions, 2);
        assert_eq!(s.capacity_evictions, 1);
        assert_eq!(s.capacity_evicted_bytes, 60);
        assert_eq!(s.unmap_deletions, 1);
        assert_eq!(s.peak_used_bytes, 60);
    }

    #[test]
    fn unpin_allows_eviction_again() {
        let mut c = PseudoCircularCache::new(100);
        c.insert(rec(1, 100), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        assert!(c.insert(rec(2, 50), Time::ZERO).is_err());
        c.set_pinned(TraceId::new(1), false);
        let report = c.insert(rec(2, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn set_pinned_on_missing_trace_is_false() {
        let mut c = PseudoCircularCache::new(100);
        assert!(!c.set_pinned(TraceId::new(1), true));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut c = PseudoCircularCache::new(0);
        assert!(matches!(
            c.insert(rec(1, 1), Time::ZERO),
            Err(InsertError::TraceTooLarge { .. })
        ));
    }
}
