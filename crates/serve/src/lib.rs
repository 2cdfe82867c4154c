//! # gencache-serve
//!
//! A streaming simulation service for the `gencache` reproduction of
//! *Generational Cache Management of Code Traces in Dynamic
//! Optimization Systems* (Hazelwood & Smith, MICRO 2003): a TCP daemon
//! (`gencache-serve`) that accepts v2 `gencache-events` exports over
//! the wire and replays them against hypothetical cache configurations,
//! plus a CLI (`gencache-client`) that drives it.
//!
//! Pure `std`: `TcpListener` + threads + the bounded channel from
//! `gencache_sim::stream` — no async runtime, no signal crate (the
//! container has no registry access, so external dependencies are not
//! an option).
//!
//! Properties the implementation commits to:
//!
//! * **Bounded-memory ingestion.** Export lines flow socket → bounded
//!   channel → incremental
//!   [`StreamIngest`](gencache_bench::ingest::StreamIngest), which
//!   holds the channel's in-flight lines, each benchmark's reference
//!   request trace (one op per frontend request) and one size entry per
//!   distinct trace id of the stream being ingested. Memory is
//!   independent of how many model streams and cache-side event lines
//!   the export carries. A slow worker closes the TCP receive window —
//!   backpressure reaches the client as flow control, not as daemon
//!   RSS.
//! * **Byte-identical results.** A job runs through the same shared
//!   runner and document builder as offline `simulate`, so the metrics
//!   document in the reply is byte-for-byte what
//!   `simulate --metrics-out` writes for the same export and specs.
//! * **Load shedding, not backlog.** A fixed-size worker pool fronts a
//!   bounded queue; when the queue is full, admission answers `busy`
//!   (HTTP 429 in spirit) immediately.
//! * **Deadlines and timeouts.** Per-job wall-clock budgets are
//!   enforced during ingest and between replay cells; per-connection
//!   socket reads time out so a stalled client cannot pin a thread.
//! * **Graceful shutdown.** SIGTERM/SIGINT stop the accept loop,
//!   in-flight jobs drain, new requests are refused with an error.
//!
//! Scale-out is a separate binary on the same protocol:
//! `gencache-shard` (see [`shard`]) consistent-hashes a job's benchmark
//! stream groups across N backend daemons, runs the per-shard sub-jobs
//! concurrently, and merges the shard documents back into the exact
//! bytes a single node would have produced — capacity scales linearly
//! while every answer stays verifiable with `cmp`.
//!
//! The wire protocol is line-delimited JSON, specified in
//! `docs/PROTOCOL.md`.

#![warn(missing_docs)]

pub mod client;
pub mod pool;
pub mod proto;
pub mod retry;
mod server;
pub mod shard;
pub mod signal;
pub mod stats;
pub mod telemetry;

pub use client::Client;
pub use proto::{JobSpec, Reply, Request, WatchRow};
pub use retry::RetryPolicy;
pub use server::{Server, ServerConfig, CHUNKS_IN_FLIGHT, CHUNK_BYTES, MAX_INGEST_BYTES};
pub use shard::{ShardConfig, ShardRouter};
pub use stats::ServerStats;
pub use telemetry::{LogLevel, Logger, Span, Telemetry};
