//! # gencache-core
//!
//! Generational code-cache management — the core contribution of
//! *Generational Cache Management of Code Traces in Dynamic Optimization
//! Systems* (Hazelwood & Smith, MICRO 2003), reproduced as a library.
//!
//! A dynamic optimizer's trace cache holds code traces whose lifetimes are
//! strongly bimodal: most are either short-lived (dead within 20% of the
//! program run) or long-lived (live for more than 80% of it). A single
//! FIFO cache therefore keeps re-evicting its long-lived tenants to make
//! room for transient arrivals. The paper's remedy mirrors generational
//! garbage collection: split the trace cache into a **nursery**, a
//! **probation** cache, and a **persistent** cache, and promote traces as
//! they prove their longevity.
//!
//! This crate provides:
//!
//! * [`GenerationalModel`] — the three-cache hierarchy with the promotion
//!   algorithm of Figure 8 (and the counter-free promote-on-hit variant);
//! * [`UnifiedModel`] — the single pseudo-circular baseline;
//! * [`CacheModel`] — the common trait the replay harness drives, and
//!   [`apply_step`], which hands it one request of a log resolved by a
//!   [`ReplayCursor`](gencache_cache::ReplayCursor);
//! * the Table 2 instruction-overhead [`cost`] model;
//! * [`LifetimeTracker`] — Equation 2 lifetime measurement and the
//!   Figure 6 histogram.
//!
//! ```
//! use gencache_cache::{TraceId, TraceRecord};
//! use gencache_core::{
//!     overhead_ratio, CacheModel, GenerationalConfig, GenerationalModel,
//!     PromotionPolicy, Proportions, UnifiedModel,
//! };
//! use gencache_program::{Addr, Time};
//!
//! // Same total budget for both organizations, per the paper.
//! let total = 64 * 1024;
//! let mut unified = UnifiedModel::new(total);
//! let mut generational = GenerationalModel::new(GenerationalConfig::new(
//!     total,
//!     Proportions::best_overall(),               // 45% — 10% — 45%
//!     PromotionPolicy::OnHit { hits: 1 },
//! ));
//!
//! // Replay the same accesses into both.
//! for step in 0..1000u64 {
//!     let id = step % 50;
//!     let rec = TraceRecord::new(TraceId::new(id), 242, Addr::new(0x1000 + id));
//!     let now = Time::from_micros(step);
//!     unified.on_access(rec, now);
//!     generational.on_access(rec, now);
//! }
//!
//! // Equation 3: instruction-overhead ratio.
//! let ratio = overhead_ratio(generational.ledger(), unified.ledger());
//! assert!(ratio > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod adaptive;
mod config;
pub mod cost;
mod lifetime;
mod manager;
mod model;
mod unified;

pub use adaptive::{
    AdaptiveModel, Candidate, CandidateSet, SwitchKind, SwitchRecord, SwitchReport,
    TemperatureTracker, DEFAULT_EPOCH_ACCESSES, MAX_CANDIDATES,
};
pub use config::{GenerationalConfig, PromotionPolicy, Proportions};
pub use cost::{overhead_ratio, CostLedger};
pub use lifetime::{LifetimeHistogram, LifetimeTracker};
pub use manager::GenerationalModel;
pub use model::{apply_step, AccessOutcome, CacheModel, Generation, ModelMetrics};
pub use unified::UnifiedModel;
