//! Internal arena bookkeeping shared by the placement-based caches.
//!
//! A code cache is a contiguous region of memory holding variable-size
//! trace bodies. The simulator does not store actual code bytes; it tracks
//! entry *extents* so that placement, holes, and fragmentation behave
//! exactly as they would in a real cache.

use std::collections::BTreeMap;

use gencache_program::Time;

use crate::cache::FragmentationReport;
use crate::record::{EntryInfo, TraceId, TraceRecord};
use crate::tracemap::TraceMap;

/// Extent bookkeeping for one cache region.
///
/// Invariants (checked in debug builds, exercised by property tests):
/// * entry extents never overlap;
/// * `used` equals the sum of resident entry sizes;
/// * `by_offset` and `entries` index the same set of traces.
#[derive(Debug, Clone, Default)]
pub(crate) struct Arena {
    by_offset: BTreeMap<u64, TraceId>,
    entries: TraceMap<TraceId, EntryInfo>,
    used: u64,
}

impl Arena {
    pub(crate) fn new() -> Self {
        Arena::default()
    }

    pub(crate) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        self.used
    }

    pub(crate) fn contains(&self, id: TraceId) -> bool {
        self.entries.contains_key(id)
    }

    pub(crate) fn entry(&self, id: TraceId) -> Option<&EntryInfo> {
        self.entries.get(id)
    }

    pub(crate) fn entry_mut(&mut self, id: TraceId) -> Option<&mut EntryInfo> {
        self.entries.get_mut(id)
    }

    /// Places `rec` at `offset`, which the caller must have verified free.
    pub(crate) fn place(&mut self, rec: TraceRecord, offset: u64, now: Time) -> EntryInfo {
        debug_assert!(
            self.first_overlapping(offset, offset + u64::from(rec.size_bytes))
                .is_none(),
            "placement overlaps a live entry"
        );
        debug_assert!(!self.entries.contains_key(rec.id), "trace already resident");
        let info = EntryInfo {
            record: rec,
            offset,
            pinned: false,
            access_count: 0,
            insert_time: now,
            last_access: now,
        };
        self.by_offset.insert(offset, rec.id);
        self.entries.insert(rec.id, info);
        self.used += u64::from(rec.size_bytes);
        info
    }

    /// Removes an entry, returning its final metadata.
    pub(crate) fn remove(&mut self, id: TraceId) -> Option<EntryInfo> {
        let info = self.entries.remove(id)?;
        self.by_offset.remove(&info.offset);
        self.used -= u64::from(info.record.size_bytes);
        Some(info)
    }

    /// Moves a resident entry to `new_offset`, preserving all metadata
    /// (access counts, pin state, timestamps). The caller must have
    /// verified the destination free of *other* entries.
    pub(crate) fn move_entry(&mut self, id: TraceId, new_offset: u64) {
        let Some(info) = self.entries.get_mut(id) else {
            panic!("move of non-resident trace {id}");
        };
        let old_offset = info.offset;
        if old_offset == new_offset {
            return;
        }
        info.offset = new_offset;
        self.by_offset.remove(&old_offset);
        self.by_offset.insert(new_offset, id);
    }

    /// The first entry (in offset order) whose extent overlaps
    /// `[start, end)`.
    pub(crate) fn first_overlapping(&self, start: u64, end: u64) -> Option<TraceId> {
        if start >= end {
            return None;
        }
        if let Some((_, id)) = self.by_offset.range(..start).next_back() {
            if self.entries[*id].end_offset() > start {
                return Some(*id);
            }
        }
        self.by_offset.range(start..end).next().map(|(_, id)| *id)
    }

    /// Free gaps within `[0, capacity)`, as `(offset, len)` pairs in offset
    /// order. Used for first-fit placement and fragmentation reporting.
    pub(crate) fn free_gaps(&self, capacity: u64) -> Vec<(u64, u64)> {
        let mut gaps = Vec::new();
        let mut cursor = 0u64;
        for (&offset, id) in &self.by_offset {
            if offset > cursor {
                gaps.push((cursor, offset - cursor));
            }
            cursor = cursor.max(self.entries[*id].end_offset());
        }
        if capacity > cursor {
            gaps.push((cursor, capacity - cursor));
        }
        gaps
    }

    /// Fragmentation snapshot over `[0, capacity)`.
    pub(crate) fn fragmentation(&self, capacity: u64) -> FragmentationReport {
        let gaps = self.free_gaps(capacity);
        FragmentationReport {
            free_bytes: gaps.iter().map(|(_, len)| len).sum(),
            largest_gap: gaps.iter().map(|&(_, len)| len).max().unwrap_or(0),
            gap_count: gaps.len(),
        }
    }

    /// Total bytes currently pinned (undeletable).
    pub(crate) fn pinned_bytes(&self) -> u64 {
        self.iter_by_offset()
            .filter(|e| e.pinned)
            .map(|e| u64::from(e.size_bytes()))
            .sum()
    }

    /// Iterates over entries in offset order.
    pub(crate) fn iter_by_offset(&self) -> impl Iterator<Item = &EntryInfo> {
        self.by_offset.values().map(move |&id| &self.entries[id])
    }

    /// All resident trace ids (unordered).
    pub(crate) fn ids(&self) -> Vec<TraceId> {
        self.entries.keys().collect()
    }

    /// One past the highest used offset (the bump-allocation watermark).
    pub(crate) fn high_watermark(&self) -> u64 {
        self.by_offset
            .iter()
            .next_back()
            .map(|(_, &id)| self.entries[id].end_offset())
            .unwrap_or(0)
    }

    /// Debug-only structural validation.
    #[cfg(test)]
    pub(crate) fn check_invariants(&self) {
        assert_eq!(self.by_offset.len(), self.entries.len());
        let mut prev_end = 0u64;
        let mut total = 0u64;
        for (&offset, id) in &self.by_offset {
            let e = &self.entries[*id];
            assert_eq!(e.offset, offset);
            assert!(offset >= prev_end, "entries overlap");
            prev_end = e.end_offset();
            total += u64::from(e.record.size_bytes);
        }
        assert_eq!(total, self.used);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Addr;

    fn rec(id: u64, size: u32) -> TraceRecord {
        TraceRecord::new(TraceId::new(id), size, Addr::new(0x1000 + id))
    }

    #[test]
    fn place_and_remove() {
        let mut a = Arena::new();
        a.place(rec(1, 100), 0, Time::ZERO);
        a.place(rec(2, 50), 100, Time::ZERO);
        a.check_invariants();
        assert_eq!(a.used_bytes(), 150);
        assert_eq!(a.len(), 2);
        let removed = a.remove(TraceId::new(1)).unwrap();
        assert_eq!(removed.offset, 0);
        assert_eq!(a.used_bytes(), 50);
        a.check_invariants();
        assert!(a.remove(TraceId::new(1)).is_none());
    }

    #[test]
    fn overlap_queries() {
        let mut a = Arena::new();
        a.place(rec(1, 100), 0, Time::ZERO); // [0,100)
        a.place(rec(2, 50), 200, Time::ZERO); // [200,250)
        assert_eq!(a.first_overlapping(50, 60), Some(TraceId::new(1)));
        assert_eq!(a.first_overlapping(100, 200), None);
        assert_eq!(a.first_overlapping(150, 220), Some(TraceId::new(2)));
        assert_eq!(a.first_overlapping(0, 0), None);
    }

    #[test]
    fn free_gap_computation() {
        let mut a = Arena::new();
        assert_eq!(a.free_gaps(100), vec![(0, 100)]);
        a.place(rec(1, 20), 10, Time::ZERO); // [10,30)
        a.place(rec(2, 30), 50, Time::ZERO); // [50,80)
        assert_eq!(a.free_gaps(100), vec![(0, 10), (30, 20), (80, 20)]);
        a.remove(TraceId::new(1)).unwrap();
        assert_eq!(a.free_gaps(100), vec![(0, 50), (80, 20)]);
    }

    #[test]
    fn watermark_tracks_highest_end() {
        let mut a = Arena::new();
        assert_eq!(a.high_watermark(), 0);
        a.place(rec(1, 20), 10, Time::ZERO);
        a.place(rec(2, 5), 100, Time::ZERO);
        assert_eq!(a.high_watermark(), 105);
        a.remove(TraceId::new(2)).unwrap();
        assert_eq!(a.high_watermark(), 30);
    }

    #[test]
    fn iteration_in_offset_order() {
        let mut a = Arena::new();
        a.place(rec(2, 5), 100, Time::ZERO);
        a.place(rec(1, 20), 10, Time::ZERO);
        let order: Vec<_> = a.iter_by_offset().map(|e| e.id()).collect();
        assert_eq!(order, vec![TraceId::new(1), TraceId::new(2)]);
    }
}
