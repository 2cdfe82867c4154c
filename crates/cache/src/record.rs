//! Trace identity and cache-entry metadata.

use std::fmt;

use gencache_program::{Addr, Time};
use serde::{Deserialize, Serialize};

/// A unique identifier for a code trace, assigned at trace-generation time
/// and stable for the life of the program run (a regenerated trace after a
/// cache miss keeps its id, because it is the same application code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(u64);

impl TraceId {
    /// Creates a trace id from a raw value.
    pub const fn new(raw: u64) -> Self {
        TraceId(raw)
    }

    /// The raw numeric value.
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// What a cache needs to know to store a trace: its identity, its size in
/// bytes (code caches are managed in bytes, not entry counts), and the
/// application address of its entry point (used to find traces whose
/// source memory was unmapped).
///
/// # Examples
///
/// ```
/// use gencache_cache::{TraceId, TraceRecord};
/// use gencache_program::Addr;
///
/// let rec = TraceRecord::new(TraceId::new(7), 242, Addr::new(0x40_1000));
/// assert_eq!(rec.size_bytes, 242);
/// assert_eq!(rec.id.to_string(), "T7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The trace's identity.
    pub id: TraceId,
    /// Encoded size of the trace body in bytes.
    pub size_bytes: u32,
    /// Guest address of the trace head.
    pub head: Addr,
}

impl TraceRecord {
    /// Convenience constructor.
    pub fn new(id: TraceId, size_bytes: u32, head: Addr) -> Self {
        TraceRecord {
            id,
            size_bytes,
            head,
        }
    }
}

/// One frontend request: an entry of the recorder's verbose log, and the
/// same request recovered from an exported event stream.
///
/// A log recorded from a live run carries each trace's real head address;
/// a stream recovered from an export synthesizes it from the trace id,
/// because code addresses never influence cache management.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// A trace was generated for the first time (and begins executing).
    Create {
        /// The new trace's identity, size, and head address.
        record: TraceRecord,
        /// Generation time.
        time: Time,
    },
    /// Execution entered an existing trace at its head.
    Access {
        /// The accessed trace.
        id: TraceId,
        /// Access time.
        time: Time,
    },
    /// The program unmapped memory: this trace is stale and must be
    /// deleted from any cache holding it.
    Invalidate {
        /// The stale trace.
        id: TraceId,
        /// Unmap time.
        time: Time,
    },
    /// The trace became temporarily undeletable (e.g. an exception is
    /// being handled inside it, Section 4.2).
    Pin {
        /// The pinned trace.
        id: TraceId,
    },
    /// The trace is deletable again.
    Unpin {
        /// The unpinned trace.
        id: TraceId,
    },
}

/// A live cache entry: the stored trace plus management metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EntryInfo {
    /// The stored trace.
    pub record: TraceRecord,
    /// Byte offset of the entry within its cache arena.
    pub offset: u64,
    /// `true` while the trace must not be evicted (e.g. an exception is
    /// being handled inside it — Section 4.2 "undeletable traces").
    pub pinned: bool,
    /// Number of times the entry was executed while resident. Reset when
    /// a trace enters the probation cache — the Figure 8 counter measures
    /// probation-time executions only — but carried cumulatively into the
    /// persistent cache, where it records total hotness.
    pub access_count: u64,
    /// When the entry was inserted. Carried across promotion into the
    /// persistent cache, so lifetimes span the whole hierarchy.
    pub insert_time: Time,
    /// When the entry was last executed in this cache.
    pub last_access: Time,
}

impl EntryInfo {
    /// The entry's size in bytes (shorthand for `record.size_bytes`).
    pub fn size_bytes(&self) -> u32 {
        self.record.size_bytes
    }

    /// The entry's trace id (shorthand for `record.id`).
    pub fn id(&self) -> TraceId {
        self.record.id
    }

    /// One past the entry's final byte offset in the arena.
    pub fn end_offset(&self) -> u64 {
        self.offset + u64::from(self.record.size_bytes)
    }
}

/// Why an entry left a cache. Distinguishing these matters both for stats
/// (Figure 4 separates unmap deletions) and for the generational manager
/// (only capacity evictions are promotion candidates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EvictionCause {
    /// Evicted by the replacement policy to make room for an insertion.
    Capacity,
    /// Deleted because the program unmapped the memory the trace came from.
    Unmapped,
    /// Deleted by an explicit management decision (e.g. a probation trace
    /// that failed to reach the promotion threshold).
    Discarded,
    /// Removed by a whole-cache flush (flush-on-full or preemptive
    /// phase-change flushing, Section 5.2).
    Flush,
    /// Removed from this cache because it was promoted to another cache
    /// in a generational hierarchy.
    Promoted,
}

/// An entry that was removed from a cache, with the cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Evicted {
    /// The removed entry's final metadata.
    pub entry: EntryInfo,
    /// Why it was removed.
    pub cause: EvictionCause,
}

impl Evicted {
    /// The victim's size in bytes (shorthand for `entry.size_bytes()`).
    pub fn size_bytes(&self) -> u32 {
        self.entry.size_bytes()
    }

    /// The victim's trace id (shorthand for `entry.id()`).
    pub fn id(&self) -> TraceId {
        self.entry.id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_id_display() {
        assert_eq!(TraceId::new(42).to_string(), "T42");
        assert_eq!(TraceId::new(42).as_u64(), 42);
    }

    #[test]
    fn entry_end_offset() {
        let e = EntryInfo {
            record: TraceRecord::new(TraceId::new(1), 100, Addr::new(0x1000)),
            offset: 250,
            pinned: false,
            access_count: 0,
            insert_time: Time::ZERO,
            last_access: Time::ZERO,
        };
        assert_eq!(e.end_offset(), 350);
        assert_eq!(e.size_bytes(), 100);
        assert_eq!(e.id(), TraceId::new(1));
    }
}
