//! Daemon counters — lock-free totals plus a log2 latency histogram —
//! and `DAEMON`, the table that declares every metric a daemon
//! publishes.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gencache_obs::Log2Histogram;

use crate::server::Ctx;
use crate::telemetry::{Metric, Read};

/// Monotonic counters shared by every connection and worker thread.
/// Totals are relaxed atomics (each is independently monotonic; a
/// snapshot is a consistent-enough observation for an operations
/// endpoint, not a transaction); the latency histogram sits behind a
/// mutex touched once per completed job.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub connections: AtomicU64,
    /// Jobs admitted to the queue (simulation jobs, pings, fetches).
    pub jobs_accepted: AtomicU64,
    /// Jobs that finished successfully.
    pub jobs_completed: AtomicU64,
    /// Jobs shed with a `busy` reply because the queue was full.
    pub jobs_rejected: AtomicU64,
    /// Jobs that ended in an `error` reply (malformed stream, deadline,
    /// cancellation).
    pub jobs_failed: AtomicU64,
    /// Export bytes ingested across all job uploads.
    pub bytes_ingested: AtomicU64,
    /// Export lines streamed back by `fetch` downloads.
    pub lines_served: AtomicU64,
    /// Lines refused for exceeding
    /// [`MAX_LINE_BYTES`](crate::proto::MAX_LINE_BYTES).
    pub lines_rejected: AtomicU64,
    /// Final-window miss rate of the most recent windowed job, stored
    /// as `f64::to_bits` so the gauge stays a lock-free atomic.
    pub window_miss_rate_bits: AtomicU64,
    /// Drift annotations accumulated across all windowed jobs.
    pub drift_events: AtomicU64,
    /// Job latencies in microseconds and their exact sum (the histogram
    /// keeps only bucket counts; Prometheus `_sum` needs the total).
    /// One lock covers both, so a snapshot's `_sum` and `_count` always
    /// describe the same jobs.
    latency_us: Mutex<(Log2Histogram, u64)>,
}

impl ServerStats {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServerStats::default()
    }

    /// Adds `n` to a counter.
    pub fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments a counter by one.
    pub fn bump(counter: &AtomicU64) {
        ServerStats::add(counter, 1);
    }

    /// Records one completed simulation job's wall-clock latency.
    pub fn record_latency(&self, micros: u64) {
        let mut latency = self.latency_us.lock().expect("latency histogram poisoned");
        latency.0.record(micros);
        latency.1 += micros;
    }

    /// Records the outcome of one windowed (`windows: true`) job: the
    /// gauge takes the job's final-window miss rate, the counter absorbs
    /// its drift annotations.
    pub fn record_windows(&self, miss_rate: f64, drift: u64) {
        self.window_miss_rate_bits
            .store(miss_rate.to_bits(), Ordering::Relaxed);
        ServerStats::add(&self.drift_events, drift);
    }

    /// The last windowed job's final-window miss rate (0 before any).
    pub fn window_miss_rate(&self) -> f64 {
        f64::from_bits(self.window_miss_rate_bits.load(Ordering::Relaxed))
    }

    /// The latency histogram and its exact sum, from one read.
    pub fn latency(&self) -> (Log2Histogram, u64) {
        self.latency_us
            .lock()
            .expect("latency histogram poisoned")
            .clone()
    }
}

fn load(counter: &AtomicU64) -> u64 {
    counter.load(Ordering::Relaxed)
}

/// Every metric a daemon publishes, in `stats` doc order. The `stats`
/// doc, the Prometheus body, the `watch` row and the router's fleet
/// merge all read this one declaration.
pub(crate) static DAEMON: [Metric<Ctx>; 16] = [
    Metric {
        key: "workers",
        name: "gencache_workers",
        help: "Worker threads in the pool.",
        read: Read::Gauge(|c| c.pool.workers() as u64),
    },
    Metric {
        key: "queue_depth",
        name: "gencache_queue_depth",
        help: "Jobs queued, not yet running.",
        read: Read::Gauge(|c| c.pool.queue_len() as u64),
    },
    Metric {
        key: "in_flight",
        name: "gencache_in_flight_jobs",
        help: "Jobs currently executing on a worker.",
        read: Read::Gauge(|c| c.pool.active()),
    },
    Metric {
        key: "connections",
        name: "gencache_connections_total",
        help: "Connections accepted.",
        read: Read::Counter(|c| load(&c.stats.connections)),
    },
    Metric {
        key: "jobs_accepted",
        name: "gencache_jobs_accepted_total",
        help: "Jobs admitted to the queue.",
        read: Read::Counter(|c| load(&c.stats.jobs_accepted)),
    },
    Metric {
        key: "jobs_completed",
        name: "gencache_jobs_completed_total",
        help: "Jobs finished successfully.",
        read: Read::Counter(|c| load(&c.stats.jobs_completed)),
    },
    Metric {
        key: "jobs_rejected",
        name: "gencache_jobs_rejected_total",
        help: "Jobs shed with a busy reply.",
        read: Read::Counter(|c| load(&c.stats.jobs_rejected)),
    },
    Metric {
        key: "jobs_failed",
        name: "gencache_jobs_failed_total",
        help: "Jobs that ended in an error reply.",
        read: Read::Counter(|c| load(&c.stats.jobs_failed)),
    },
    Metric {
        key: "jobs_panicked",
        name: "gencache_jobs_panicked_total",
        help: "Jobs that panicked mid-run.",
        read: Read::Counter(|c| c.pool.panics()),
    },
    Metric {
        key: "bytes_ingested",
        name: "gencache_bytes_ingested_total",
        help: "Export bytes ingested across job uploads.",
        read: Read::Counter(|c| load(&c.stats.bytes_ingested)),
    },
    Metric {
        key: "lines_served",
        name: "gencache_lines_served_total",
        help: "Export lines streamed back by fetch downloads.",
        read: Read::Counter(|c| load(&c.stats.lines_served)),
    },
    Metric {
        key: "lines_rejected",
        name: "gencache_lines_rejected_total",
        help: "Lines refused for exceeding the line cap.",
        read: Read::Counter(|c| load(&c.stats.lines_rejected)),
    },
    Metric {
        key: "uptime_ms",
        name: "gencache_uptime_ms",
        help: "Milliseconds since the daemon started.",
        read: Read::NodeGauge(|c| c.telemetry.uptime_ms()),
    },
    Metric {
        key: "window_miss_rate",
        name: "gencache_window_miss_rate",
        help: "Final-window miss rate of the most recent windowed job.",
        read: Read::Ratio(|c| c.stats.window_miss_rate()),
    },
    Metric {
        key: "drift_events",
        name: "gencache_drift_events_total",
        help: "Drift annotations emitted across windowed jobs.",
        read: Read::Counter(|c| load(&c.stats.drift_events)),
    },
    Metric {
        key: "latency_us",
        name: "gencache_job_latency_us",
        help: "Completed job wall-clock latency in microseconds.",
        read: Read::Histogram(|c| c.stats.latency()),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{Sample, Snapshot};
    use crate::{Server, ServerConfig};
    use serde::Value;

    #[test]
    fn snapshot_reflects_counters() {
        let server = Server::bind(&ServerConfig {
            workers: Some(2),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        let stats = &server.ctx.stats;
        ServerStats::bump(&stats.connections);
        ServerStats::bump(&stats.jobs_accepted);
        ServerStats::add(&stats.bytes_ingested, 1234);
        stats.record_latency(900);
        stats.record_latency(100);
        stats.record_windows(0.25, 3);
        let snap = Snapshot::take(&DAEMON, &*server.ctx);
        let doc = Value::Object(snap.doc_fields());
        let get = |key: &str| serde::obj_field(&doc, "stats", key).unwrap().clone();
        assert_eq!(get("workers"), Value::UInt(2));
        assert_eq!(get("queue_depth"), Value::UInt(0));
        assert_eq!(get("in_flight"), Value::UInt(0));
        assert_eq!(get("connections"), Value::UInt(1));
        assert_eq!(get("bytes_ingested"), Value::UInt(1234));
        assert_eq!(get("jobs_panicked"), Value::UInt(0));
        assert_eq!(get("window_miss_rate"), Value::Float(0.25));
        assert_eq!(get("drift_events"), Value::UInt(3));
        let total = serde::obj_field(&get("latency_us"), "latency", "total")
            .unwrap()
            .clone();
        assert_eq!(total, Value::UInt(2));
        let Some(Sample::Histogram(hist, sum)) = snap.get("latency_us") else {
            panic!("no latency histogram");
        };
        assert_eq!((hist.total(), *sum), (2, 1000));
        // `_sum` and `_count` come from the same read.
        let body = snap.to_prometheus();
        assert!(body.contains("gencache_job_latency_us_sum 1000\n"), "{body}");
        assert!(body.contains("gencache_job_latency_us_count 2\n"), "{body}");
        assert!(body.contains("gencache_drift_events_total 3\n"), "{body}");
    }
}
