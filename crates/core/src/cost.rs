//! The instruction-overhead cost model of Table 2 — re-exported.
//!
//! The formulas and [`CostLedger`] moved to
//! [`gencache_obs::cost`] so the observer layer can
//! price the event stream ([`gencache_obs::CostObserver`]) without a
//! dependency cycle (`gencache-core` depends on `gencache-obs`, not the
//! other way round). This shim keeps every existing
//! `gencache_core::cost::…` and `gencache_core::{CostLedger,
//! overhead_ratio}` path compiling unchanged.
//!
//! # Examples
//!
//! ```
//! use gencache_core::CostLedger;
//!
//! let mut ledger = CostLedger::new();
//! ledger.charge_miss(242);      // regenerate + 2 context switches + copy
//! assert_eq!(ledger.miss_events, 1);
//! assert!(ledger.total() > 80_000.0); // a miss costs ~85k instructions
//! ```

pub use gencache_obs::cost::{
    context_switch, eviction, miss_service, overhead_ratio, promotion, trace_generation, CostLedger,
};
