//! # gencache-perf
//!
//! The repository's performance benchmark. Four workloads drive the
//! public API of each layer — frontend recording, export encode,
//! ingest, oracle, per-spec replay, metrics-doc assembly, and the serve
//! daemon — and report end-to-end metrics from plain runs and per-layer
//! metrics from separate traced runs. Every job's output is checked
//! against a digest, and every run checks that the offline, served and
//! traced paths produce byte-identical output. See `README.md` beside
//! this crate for the metrics, the workloads and how to run them.

#![warn(missing_docs)]

pub mod metrics;
pub mod results;
pub mod run;
pub mod stats;
pub mod workload;
