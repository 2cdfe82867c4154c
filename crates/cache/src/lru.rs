//! A least-recently-used local policy, for comparison with the paper's
//! pseudo-circular buffer.
//!
//! Prior work (Hazelwood & Smith, INTERACT 2002 [12]) found LRU inferior
//! to a circular buffer for code caches: because evicted entries are
//! scattered across the arena rather than contiguous at a pointer, LRU
//! introduces fragmentation and requires a placement search. This
//! implementation models those costs faithfully: insertion evicts
//! least-recently-used entries one at a time until a *contiguous*
//! first-fit gap exists.

use std::collections::BTreeSet;

use gencache_program::Time;

use crate::arena::Arena;
use crate::cache::{CodeCache, FragmentationReport, InsertError, InsertReport};
use crate::record::{EntryInfo, Evicted, EvictionCause, TraceId, TraceRecord};
use crate::stats::CacheStats;
use crate::tracemap::TraceMap;

/// A fixed-capacity code cache managed by LRU replacement with first-fit
/// placement.
///
/// # Examples
///
/// ```
/// use gencache_cache::{CodeCache, LruCache, TraceId, TraceRecord};
/// use gencache_program::{Addr, Time};
///
/// let mut cache = LruCache::new(100);
/// cache.insert(TraceRecord::new(TraceId::new(1), 60, Addr::new(0x1)), Time::ZERO)?;
/// cache.insert(TraceRecord::new(TraceId::new(2), 30, Addr::new(0x2)), Time::ZERO)?;
/// // Touching trace 1 protects it; the next insert evicts trace 2.
/// cache.touch(TraceId::new(1), Time::from_micros(10));
/// let report = cache.insert(
///     TraceRecord::new(TraceId::new(3), 40, Addr::new(0x3)),
///     Time::from_micros(20),
/// )?;
/// assert_eq!(report.evicted[0].id(), TraceId::new(2));
/// # Ok::<(), gencache_cache::InsertError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LruCache {
    arena: Arena,
    capacity: u64,
    /// Recency index: `(tick of last use, id)`; the smallest element is the
    /// least recently used. Ticks are unique per operation so ties cannot
    /// occur.
    recency: BTreeSet<(u64, TraceId)>,
    /// Each resident trace's current tick, so its `recency` key can be
    /// located in O(log n).
    id_ticks: TraceMap<TraceId, u64>,
    tick: u64,
    stats: CacheStats,
    /// Auto-defragment on placement failure once the fragmentation ratio
    /// exceeds this threshold; `None` disables compaction.
    defrag_threshold: Option<f64>,
    defrag_runs: u64,
    defrag_moved_bytes: u64,
}

impl LruCache {
    /// Creates a cache of `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        LruCache {
            arena: Arena::new(),
            capacity,
            recency: BTreeSet::new(),
            id_ticks: TraceMap::new(),
            tick: 0,
            stats: CacheStats::default(),
            defrag_threshold: None,
            defrag_runs: 0,
            defrag_moved_bytes: 0,
        }
    }

    /// Enables automatic compaction: when an insertion finds no
    /// contiguous gap and the fragmentation ratio exceeds `threshold`,
    /// the cache is defragmented before any eviction. This is the
    /// "defragmentation step" design alternative of Section 4.2 — it
    /// saves evictions at the price of relocating (and re-fixing-up)
    /// live traces.
    pub fn with_defrag_threshold(capacity: u64, threshold: f64) -> Self {
        let mut cache = LruCache::new(capacity);
        cache.defrag_threshold = Some(threshold);
        cache
    }

    /// Number of compaction passes run so far.
    pub fn defrag_runs(&self) -> u64 {
        self.defrag_runs
    }

    /// Total bytes relocated by compaction passes (each relocated byte
    /// implies fix-up work, costed like a promotion by callers).
    pub fn defrag_moved_bytes(&self) -> u64 {
        self.defrag_moved_bytes
    }

    /// Compacts entries toward offset zero, coalescing free gaps.
    /// Pinned (undeletable) traces cannot be moved — an exception may
    /// resume inside them — so they stay put and compaction packs the
    /// movable entries around them. Returns the number of bytes moved.
    pub fn defragment(&mut self) -> u64 {
        let order: Vec<(TraceId, u64, u32, bool)> = self
            .arena
            .iter_by_offset()
            .map(|e| (e.id(), e.offset, e.size_bytes(), e.pinned))
            .collect();
        let mut cursor = 0u64;
        let mut moved = 0u64;
        for (id, offset, size, pinned) in order {
            if pinned {
                // An immovable barrier: skip past it. Entries before it
                // were already packed below `offset`, so no overlap.
                cursor = offset + u64::from(size);
                continue;
            }
            if offset != cursor {
                self.arena.move_entry(id, cursor);
                moved += u64::from(size);
            }
            cursor += u64::from(size);
        }
        self.defrag_runs += 1;
        self.defrag_moved_bytes += moved;
        moved
    }

    /// Marks `id` as most recently used.
    fn bump_recency(&mut self, id: TraceId) {
        if let Some(t) = self.id_ticks.remove(id) {
            self.recency.remove(&(t, id));
        }
        self.tick += 1;
        self.recency.insert((self.tick, id));
        self.id_ticks.insert(id, self.tick);
    }

    fn remove_from_recency(&mut self, id: TraceId) {
        if let Some(t) = self.id_ticks.remove(id) {
            self.recency.remove(&(t, id));
        }
    }

    /// First-fit search: the lowest-offset free gap of at least `size`.
    fn first_fit(&self, size: u64) -> Option<u64> {
        self.arena
            .free_gaps(self.capacity)
            .into_iter()
            .find(|&(_, len)| len >= size)
            .map(|(offset, _)| offset)
    }

    /// The least-recently-used unpinned entry.
    fn lru_victim(&self) -> Option<TraceId> {
        self.recency
            .iter()
            .map(|&(_, id)| id)
            .find(|id| self.arena.entry(*id).is_some_and(|e| !e.pinned))
    }
}

impl CodeCache for LruCache {
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
            }
            None => return false,
        }
        self.bump_recency(id);
        self.stats.hits += 1;
        true
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
        // Compaction can run at most once per insertion: if it fails to
        // produce a big-enough gap (pinned barriers), fall through to
        // eviction instead of compacting forever.
        let mut defrag_tried = false;
        let offset = loop {
            if let Some(offset) = self.first_fit(size) {
                break offset;
            }
            // Free space may be sufficient but shattered: compact first
            // when configured to, instead of evicting live traces.
            if let Some(threshold) = self.defrag_threshold {
                let frag = self.fragmentation();
                if !defrag_tried
                    && frag.free_bytes >= size
                    && frag.fragmentation_ratio() > threshold
                {
                    defrag_tried = true;
                    self.defragment();
                    continue;
                }
            }
            let Some(victim) = self.lru_victim() else {
                return Err(InsertError::NoSpace {
                    size: rec.size_bytes,
                    pinned_bytes: self.arena.pinned_bytes(),
                });
            };
            let info = self.arena.remove(victim).expect("victim resident");
            self.remove_from_recency(victim);
            self.stats
                .on_remove(u64::from(info.size_bytes()), EvictionCause::Capacity);
            evicted.push(Evicted {
                entry: info,
                cause: EvictionCause::Capacity,
            });
        };

        self.arena.place(rec, offset, now);
        self.bump_recency(rec.id);
        self.stats.on_insert(size, self.arena.used_bytes());
        self.stats.debug_assert_identity(self.arena.len() as u64);
        Ok(InsertReport::new(evicted, offset))
    }

    fn remove(&mut self, id: TraceId, cause: EvictionCause) -> Option<EntryInfo> {
        let info = self.arena.remove(id)?;
        self.remove_from_recency(id);
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
    fn evicts_least_recently_used() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 40), Time::ZERO).unwrap();
        c.insert(rec(2, 40), Time::ZERO).unwrap();
        // Refresh trace 1 so trace 2 becomes the LRU victim.
        c.touch(TraceId::new(1), Time::from_micros(1));
        let report = c.insert(rec(3, 40), Time::from_micros(2)).unwrap();
        assert_eq!(ids(&report), vec![2]);
        assert!(c.contains(TraceId::new(1)));
    }

    #[test]
    fn insertion_counts_as_use() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        // Without touches, trace 1 (inserted first) is the victim.
        let report = c.insert(rec(3, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1]);
    }

    #[test]
    fn may_evict_multiple_for_contiguity() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.insert(rec(3, 40), Time::ZERO).unwrap(); // [60,100)
                                                   // A 50-byte insert needs two adjacent victims: 1 and 2 are the two
                                                   // least recently used and happen to be adjacent.
        let report = c.insert(rec(4, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![1, 2]);
        assert_eq!(report.offset, 0);
    }

    #[test]
    fn lru_fragmentation_from_scattered_evictions() {
        let mut c = LruCache::new(120);
        c.insert(rec(1, 40), Time::ZERO).unwrap(); // [0,40)
        c.insert(rec(2, 40), Time::ZERO).unwrap(); // [40,80)
        c.insert(rec(3, 40), Time::ZERO).unwrap(); // [80,120)
                                                   // Make trace 2 the MRU; victims 1 then 3 leave *two* scattered
                                                   // holes when a 41-byte insert cannot use either alone.
        c.touch(TraceId::new(2), Time::from_micros(1));
        c.touch(TraceId::new(1), Time::from_micros(2));
        // LRU order now: 3, 2(?) — actually 3 is oldest, then 2, then 1.
        let report = c.insert(rec(4, 41), Time::from_micros(3)).unwrap();
        // Victim 3 leaves [80,120): 40 bytes, not enough. Victim 2 leaves
        // [40,120): 80 bytes, enough; placed at 40.
        assert_eq!(ids(&report), vec![3, 2]);
        assert_eq!(report.offset, 40);
    }

    #[test]
    fn pinned_entries_skipped() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 50), Time::ZERO).unwrap();
        c.insert(rec(2, 50), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        let report = c.insert(rec(3, 50), Time::ZERO).unwrap();
        assert_eq!(ids(&report), vec![2]);
        assert!(c.contains(TraceId::new(1)));
    }

    #[test]
    fn no_space_when_all_pinned() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 100), Time::ZERO).unwrap();
        c.set_pinned(TraceId::new(1), true);
        assert!(matches!(
            c.insert(rec(2, 10), Time::ZERO),
            Err(InsertError::NoSpace {
                pinned_bytes: 100,
                ..
            })
        ));
    }

    #[test]
    fn forced_removal_cleans_recency() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 40), Time::ZERO).unwrap();
        c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        assert!(!c.contains(TraceId::new(1)));
        // Reinsertion works fine after the indices were cleaned.
        c.insert(rec(1, 40), Time::ZERO).unwrap();
        assert!(c.touch(TraceId::new(1), Time::ZERO));
    }

    #[test]
    fn basic_errors() {
        let mut c = LruCache::new(50);
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

    #[test]
    fn holes_are_reused_first_fit() {
        let mut c = LruCache::new(100);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        // First fit places the new 20-byte trace in the hole at 0.
        let report = c.insert(rec(3, 20), Time::ZERO).unwrap();
        assert!(report.evicted.is_empty());
        assert_eq!(report.offset, 0);
    }
}

#[cfg(test)]
mod defrag_tests {
    use super::*;
    use gencache_program::Addr;

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id * 0x100))
    }

    #[test]
    fn manual_defragment_coalesces_holes() {
        let mut c = LruCache::new(120);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.insert(rec(3, 30), Time::ZERO).unwrap(); // [60,90)
        c.remove(TraceId::new(2), EvictionCause::Unmapped).unwrap();
        assert_eq!(c.fragmentation().gap_count, 2);

        let moved = c.defragment();
        assert_eq!(moved, 30, "trace 3 slides down into the hole");
        let frag = c.fragmentation();
        assert_eq!(frag.gap_count, 1);
        assert_eq!(frag.largest_gap, 60);
        // Metadata survived the move.
        assert_eq!(c.entry(TraceId::new(3)).unwrap().offset, 30);
        assert_eq!(c.defrag_runs(), 1);
        assert_eq!(c.defrag_moved_bytes(), 30);
    }

    #[test]
    fn pinned_entries_anchor_compaction() {
        let mut c = LruCache::new(200);
        c.insert(rec(1, 30), Time::ZERO).unwrap(); // [0,30)
        c.insert(rec(2, 30), Time::ZERO).unwrap(); // [30,60)
        c.insert(rec(3, 30), Time::ZERO).unwrap(); // [60,90)
        c.insert(rec(4, 30), Time::ZERO).unwrap(); // [90,120)
        c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        c.remove(TraceId::new(3), EvictionCause::Unmapped).unwrap();
        c.set_pinned(TraceId::new(2), true);

        c.defragment();
        // Trace 2 stayed at 30; trace 4 packed right after it.
        assert_eq!(c.entry(TraceId::new(2)).unwrap().offset, 30);
        assert_eq!(c.entry(TraceId::new(4)).unwrap().offset, 60);
    }

    #[test]
    fn pinned_barrier_cannot_stall_auto_defrag() {
        // Regression: when compaction cannot produce a large-enough gap
        // because a pinned trace splits the free space, insertion must
        // fall back to eviction (or report no-space) rather than
        // compacting forever.
        let mut c = LruCache::with_defrag_threshold(120, 0.1);
        c.insert(rec(1, 40), Time::ZERO).unwrap(); // [0,40)
        c.insert(rec(2, 40), Time::ZERO).unwrap(); // [40,80)
        c.insert(rec(3, 40), Time::ZERO).unwrap(); // [80,120)
        c.remove(TraceId::new(1), EvictionCause::Unmapped).unwrap();
        c.remove(TraceId::new(3), EvictionCause::Unmapped).unwrap();
        c.set_pinned(TraceId::new(2), true);
        // Free space is 80 bytes but pinned trace 2 splits it 40/40; a
        // 60-byte insert cannot fit even after compaction, and the only
        // unpinned candidate set is empty.
        let err = c.insert(rec(9, 60), Time::ZERO).unwrap_err();
        assert!(matches!(
            err,
            InsertError::NoSpace {
                pinned_bytes: 40,
                ..
            }
        ));
        assert_eq!(c.defrag_runs(), 1, "compaction attempted exactly once");
    }

    #[test]
    fn auto_defrag_avoids_evictions() {
        // Two caches under identical load: plain LRU must evict to find
        // contiguous space; the defragmenting one compacts instead.
        let mut plain = LruCache::new(120);
        let mut compacting = LruCache::with_defrag_threshold(120, 0.1);
        for cache in [&mut plain, &mut compacting] {
            cache.insert(rec(1, 40), Time::ZERO).unwrap(); // [0,40)
            cache.insert(rec(2, 40), Time::ZERO).unwrap(); // [40,80)
            cache.insert(rec(3, 40), Time::ZERO).unwrap(); // [80,120)
            cache
                .remove(TraceId::new(1), EvictionCause::Unmapped)
                .unwrap();
            cache
                .remove(TraceId::new(3), EvictionCause::Unmapped)
                .unwrap();
            // Free: [0,40) and [80,120) — 80 bytes, but no 60-byte gap.
        }
        let report = plain.insert(rec(9, 60), Time::ZERO).unwrap();
        assert_eq!(report.evicted.len(), 1, "plain LRU evicts trace 2");

        let report = compacting.insert(rec(9, 60), Time::ZERO).unwrap();
        assert!(report.evicted.is_empty(), "compaction finds the space");
        assert_eq!(compacting.defrag_runs(), 1);
        assert!(compacting.contains(TraceId::new(2)));
    }
}
