//! # gencache-cache
//!
//! The software code-cache substrate for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! A code cache stores variable-size trace bodies in a contiguous byte
//! arena. This crate provides the storage model (extents, holes,
//! fragmentation) and the *local* replacement policies of Section 4:
//!
//! * [`PseudoCircularCache`] — the paper's policy: a circular FIFO whose
//!   eviction pointer resets past undeletable (pinned) traces;
//! * [`LruCache`] — least-recently-used with first-fit placement, the
//!   classic comparison point (optionally with a compaction pass, the
//!   "defragmentation step" design alternative of Section 4.2);
//! * [`ClockCache`] — CLOCK/second-chance, an extension probing how much
//!   temporal locality survives on FIFO-style pointer machinery;
//! * [`FlushCache`] — whole-cache flush on overflow;
//! * [`PreemptiveFlushCache`] — Dynamo's published policy: flush on a
//!   detected program phase change (trace-creation-rate spike);
//! * [`UnboundedCache`] — no management at all (DynamoRIO's default).
//!
//! All policies implement the [`CodeCache`] trait and support the two
//! real-world complications the paper highlights: **pinned (undeletable)
//! traces** and **program-forced deletions** when guest memory is
//! unmapped.
//!
//! ```
//! use gencache_cache::{CodeCache, EvictionCause, PseudoCircularCache,
//!                      TraceId, TraceRecord};
//! use gencache_program::{Addr, Time};
//!
//! let mut cache = PseudoCircularCache::new(4096);
//! cache.insert(TraceRecord::new(TraceId::new(7), 242, Addr::new(0x40_1000)),
//!              Time::ZERO)?;
//! cache.touch(TraceId::new(7), Time::from_micros(10));
//!
//! // The program unmapped the DLL this trace came from:
//! let gone = cache.remove(TraceId::new(7), EvictionCause::Unmapped).unwrap();
//! assert_eq!(gone.access_count, 1);
//! # Ok::<(), gencache_cache::InsertError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod arena;
mod cache;
mod clock;
mod cursor;
mod flush;
mod lru;
mod preemptive;
mod pseudo_circular;
mod record;
mod stats;
mod tracemap;
mod unbounded;

pub use cache::{CodeCache, FragmentationReport, InsertError, InsertReport};
pub use clock::ClockCache;
pub use cursor::{ReplayCursor, ReplayStep};
pub use flush::FlushCache;
pub use lru::LruCache;
pub use preemptive::{PhaseDetector, PreemptiveFlushCache};
pub use pseudo_circular::PseudoCircularCache;
pub use record::{EntryInfo, Evicted, EvictionCause, LogRecord, TraceId, TraceRecord};
pub use stats::CacheStats;
pub use tracemap::{TraceKey, TraceMap, TraceSet};
pub use unbounded::UnboundedCache;
