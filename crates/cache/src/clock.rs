//! A CLOCK (second-chance) local policy.
//!
//! CLOCK approximates LRU at FIFO cost: each entry carries a reference
//! bit, set on every execution. The eviction pointer sweeps the arena as
//! in the circular buffer, but an entry whose bit is set gets a *second
//! chance* — its bit is cleared and the pointer resets past it, exactly
//! the mechanism the pseudo-circular policy already uses for pinned
//! traces. This policy is an extension beyond the paper: it probes how
//! much of LRU's temporal-locality benefit survives when grafted onto the
//! paper's pointer machinery.

use gencache_program::Time;

use crate::arena::Arena;
use crate::cache::{CodeCache, FragmentationReport, InsertError, InsertReport};
use crate::record::{EntryInfo, Evicted, EvictionCause, TraceId, TraceRecord};
use crate::stats::CacheStats;
use crate::tracemap::TraceSet;

/// A fixed-capacity code cache managed by CLOCK (second-chance) eviction.
///
/// # Examples
///
/// ```
/// use gencache_cache::{ClockCache, CodeCache, TraceId, TraceRecord};
/// use gencache_program::{Addr, Time};
///
/// let mut cache = ClockCache::new(100);
/// cache.insert(TraceRecord::new(TraceId::new(1), 50, Addr::new(0x1)), Time::ZERO)?;
/// cache.insert(TraceRecord::new(TraceId::new(2), 50, Addr::new(0x2)), Time::ZERO)?;
/// // Touch trace 1: its reference bit protects it for one sweep.
/// cache.touch(TraceId::new(1), Time::from_micros(1));
/// let report = cache.insert(
///     TraceRecord::new(TraceId::new(3), 50, Addr::new(0x3)),
///     Time::from_micros(2),
/// )?;
/// assert_eq!(report.evicted[0].id(), TraceId::new(2));
/// # Ok::<(), gencache_cache::InsertError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ClockCache {
    arena: Arena,
    capacity: u64,
    pointer: u64,
    /// Entries whose reference bit is currently set.
    referenced: TraceSet<TraceId>,
    stats: CacheStats,
}

impl ClockCache {
    /// Creates a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        ClockCache {
            arena: Arena::new(),
            capacity,
            pointer: 0,
            referenced: TraceSet::new(),
            stats: CacheStats::default(),
        }
    }

    /// The current sweep-pointer offset, for tests and diagnostics.
    pub fn pointer(&self) -> u64 {
        self.pointer
    }

    /// Clears unpinned, unreferenced entries overlapping `[start, end)`.
    /// Returns the first protected entry found (pinned, or referenced
    /// with `honor_bits`), which the caller must skip past.
    fn evict_window(
        &mut self,
        start: u64,
        end: u64,
        honor_bits: bool,
        evicted: &mut Vec<Evicted>,
    ) -> Option<EntryInfo> {
        loop {
            let id = self.arena.first_overlapping(start, end)?;
            let info = *self.arena.entry(id).expect("resident");
            if info.pinned {
                return Some(info);
            }
            if honor_bits && self.referenced.remove(id) {
                // Second chance: the bit is now cleared; protect the entry
                // for this sweep only.
                return Some(info);
            }
            self.referenced.remove(id);
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

impl CodeCache for ClockCache {
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
                self.referenced.insert(id);
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
        // After two full sweeps every reference bit has been cleared;
        // stop honoring them so the insert cannot starve.
        loop {
            let honor_bits = wraps < 2;
            if p + size > self.capacity {
                self.evict_window(p, self.capacity, honor_bits, &mut evicted);
                p = 0;
                wraps += 1;
                if wraps > 4 {
                    return Err(InsertError::NoSpace {
                        size: rec.size_bytes,
                        pinned_bytes: self.arena.pinned_bytes(),
                    });
                }
                continue;
            }
            match self.evict_window(p, p + size, honor_bits, &mut evicted) {
                None => break,
                Some(protected) => {
                    p = protected.end_offset();
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
        self.referenced.remove(id);
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
    fn behaves_as_fifo_without_touches() {
        let mut c = ClockCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        let report = c.insert(rec(3, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn referenced_entry_gets_second_chance() {
        let mut c = ClockCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        c.touch(TraceId::new(1), Time::from_micros(1));
        // Trace 1's bit protects it; trace 2 is evicted instead.
        let report = c.insert(rec(3, 50), Time::from_micros(2)).unwrap();
        assert_eq!(ids(&report), vec![2]);
        assert!(c.contains(TraceId::new(1)));
        // The bit was consumed: the next pressure evicts trace 1.
        let report = c.insert(rec(4, 50), Time::from_micros(3)).unwrap();
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn all_referenced_still_converges() {
        let mut c = ClockCache::new(100);
        for id in 1..=4 {
            c.insert(rec(id, 25), Time::ZERO).unwrap();
            c.touch(TraceId::new(id), Time::from_micros(id));
        }
        // Every bit is set; the sweep clears them and still finds room.
        let report = c.insert(rec(9, 50), Time::from_micros(9)).unwrap();
        assert!(!report.evicted.is_empty());
        assert!(c.contains(TraceId::new(9)));
    }

    #[test]
    fn pinned_entries_never_evicted() {
        let mut c = ClockCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        let report = c.insert(rec(3, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![2]);
        assert!(c.contains(TraceId::new(1)));
    }

    #[test]
    fn fully_pinned_reports_no_space() {
        let mut c = ClockCache::new(100);
        c.insert(rec(1, 100), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        assert!(matches!(
            c.insert(rec(2, 50), Time::ZERO),
            Err(InsertError::NoSpace {
                pinned_bytes: 100,
                ..
            })
        ));
    }

    #[test]
    fn forced_removal_clears_reference_bit() {
        let mut c = ClockCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.touch(TraceId::new(1), Time::ZERO);
        c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        assert!(!c.contains(TraceId::new(1)));
        // Reinsert works and behaves as unreferenced.
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        let report = c.insert(rec(3, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn basic_errors() {
        let mut c = ClockCache::new(50);
        assert!(matches!(
            c.insert(rec(1, 51), Time::ZERO),
            Err(InsertError::TraceTooLarge { .. })
        ));
        c.insert(rec(1, 10), Time::ZERO).unwrap();
        assert!(matches!(
            c.insert(rec(1, 10), Time::ZERO),
            Err(InsertError::AlreadyResident(_))
        ));
    }
}
