//! # gencache-obs
//!
//! Event-sourced telemetry for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic
//! Optimization Systems* (Hazelwood & Smith, MICRO 2003).
//!
//! The simulators in `gencache-core` are generic over an [`Observer`]
//! that receives a typed [`CacheEvent`] for every state change: insert,
//! hit, miss, cause-tagged eviction, promotion, pin/unpin and
//! replacement-pointer resets. The default [`NullObserver`] reports
//! `enabled() == false` and every emission site is guarded on it, so
//! monomorphization deletes the instrumentation entirely — the
//! uninstrumented replay path costs nothing.
//!
//! On top of the raw stream sit three consumers:
//!
//! * [`MetricsObserver`] — mergeable aggregation: monotonic counters,
//!   log2-bucketed histograms ([`Log2Histogram`]) of trace lifetime,
//!   reuse interval, trace size and eviction idle time, plus a
//!   deterministic occupancy/miss-rate timeline. Shard reports merged
//!   in input-index order are byte-identical for any worker count.
//! * [`JsonlSink`] — streaming JSONL export of every event, one
//!   [`EventRecord`] per line.
//! * [`reconstruct_stats`] — replays an event stream back into
//!   [`CacheStats`](gencache_cache::CacheStats), the executable
//!   statement that the stream is a complete account of the run.
//!
//! ```
//! use gencache_obs::{CacheEvent, EventBuffer, MetricsObserver, Observer, Region};
//! use gencache_cache::TraceId;
//! use gencache_program::Time;
//!
//! let mut metrics = MetricsObserver::new();
//! let mut tee = (EventBuffer::new(), &mut metrics);
//! tee.on_event(&CacheEvent::Miss {
//!     trace: TraceId::new(1),
//!     bytes: 128,
//!     time: Time::ZERO,
//! });
//! assert_eq!(tee.0.events.len(), 1);
//! assert_eq!(metrics.report().misses, 1);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod cost;
mod event;
mod hist;
mod metrics;
mod observer;
mod oracle;
mod reconstruct;
mod regret;
mod sample;
mod schema;
mod simstream;
mod window;

pub use cost::{
    overhead_ratio, CauseCost, CostLedger, CostObserver, CostReport, PhaseCost, RegionCost,
};
pub use event::{CacheEvent, FrontendOp, Region};
pub use hist::Log2Histogram;
pub use metrics::{
    ChurnEntry, MetricsObserver, MetricsReport, RegionMetrics, TimelineSample, TOP_CHURN,
};
pub use observer::{EventBuffer, EventRecord, JsonlSink, NullObserver, Observer};
pub use oracle::{oracle_replay, oracle_replay_events, NextUseIndex, OracleResult};
pub use reconstruct::reconstruct_stats;
pub use regret::{
    PhaseRegret, RegionRegret, RegretCell, RegretContributor, RegretObserver, RegretReport,
    WorstEviction, TOP_REGRET,
};
pub use schema::{
    parse_stream_line, parse_stream_line_tree, RunMeta, StreamHeader, StreamLine, EVENTS_SCHEMA,
    EVENTS_VERSION, METRICS_SCHEMA, METRICS_VERSION,
};
pub use simstream::{reconstruct_trace, SimTrace, TraceOp, TraceRebuilder};
pub use sample::{ReservoirSnapshot, SampledReport, SamplingObserver, SamplingParams, SamplingSummary};
pub use window::{
    detect_drift, DriftAnnotation, DriftKind, Window, WindowObserver, WindowReport,
    CHURN_BURST_FACTOR, CHURN_MIN_REMISSES, DEFAULT_WINDOW_CAP, EWMA_ALPHA, PH_DELTA, PH_LAMBDA,
    THRASH_MISS_RATE,
};
