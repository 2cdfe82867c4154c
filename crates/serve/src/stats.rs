//! Daemon counters: lock-free totals plus a log2 latency histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use gencache_obs::Log2Histogram;
use serde::{Serialize, Value};

/// Monotonic counters shared by every connection and worker thread.
/// Totals are relaxed atomics (each is independently monotonic; the
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
    /// Exact sum of recorded job latencies in microseconds (the
    /// histogram keeps only bucket counts; Prometheus `_sum` needs the
    /// exact total).
    pub latency_sum_us: AtomicU64,
    /// Final-window miss rate of the most recent windowed job, stored
    /// as `f64::to_bits` so the gauge stays a lock-free atomic.
    pub window_miss_rate_bits: AtomicU64,
    /// Drift annotations accumulated across all windowed jobs.
    pub drift_events: AtomicU64,
    latency_us: Mutex<Log2Histogram>,
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
        ServerStats::add(&self.latency_sum_us, micros);
        self.latency_us
            .lock()
            .expect("latency histogram poisoned")
            .record(micros);
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

    /// A consistent clone of the latency histogram plus its exact sum,
    /// for Prometheus rendering.
    pub fn latency(&self) -> (Log2Histogram, u64) {
        let hist = self
            .latency_us
            .lock()
            .expect("latency histogram poisoned")
            .clone();
        (hist, self.latency_sum_us.load(Ordering::Relaxed))
    }

    /// Assembles the snapshot document the `stats` reply carries.
    /// `gauges` describes the pool and daemon at snapshot time.
    pub fn snapshot(&self, gauges: &Gauges) -> Value {
        let get = |c: &AtomicU64| Value::UInt(c.load(Ordering::Relaxed));
        let (latency, _) = self.latency();
        Value::Object(vec![
            ("workers".to_string(), Value::UInt(gauges.workers as u64)),
            (
                "queue_depth".to_string(),
                Value::UInt(gauges.queue_depth as u64),
            ),
            ("in_flight".to_string(), Value::UInt(gauges.in_flight)),
            ("connections".to_string(), get(&self.connections)),
            ("jobs_accepted".to_string(), get(&self.jobs_accepted)),
            ("jobs_completed".to_string(), get(&self.jobs_completed)),
            ("jobs_rejected".to_string(), get(&self.jobs_rejected)),
            ("jobs_failed".to_string(), get(&self.jobs_failed)),
            ("jobs_panicked".to_string(), Value::UInt(gauges.panics)),
            ("bytes_ingested".to_string(), get(&self.bytes_ingested)),
            ("lines_served".to_string(), get(&self.lines_served)),
            ("lines_rejected".to_string(), get(&self.lines_rejected)),
            ("uptime_ms".to_string(), Value::UInt(gauges.uptime_ms)),
            (
                "window_miss_rate".to_string(),
                Value::Float(self.window_miss_rate()),
            ),
            ("drift_events".to_string(), get(&self.drift_events)),
            ("latency_us".to_string(), latency.to_value()),
        ])
    }
}

/// Point-in-time gauges a stats snapshot carries alongside the
/// monotonic counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gauges {
    /// Queued (not yet running) jobs at snapshot time.
    pub queue_depth: usize,
    /// Worker threads in the pool.
    pub workers: usize,
    /// Jobs that panicked mid-run (pool counter).
    pub panics: u64,
    /// Jobs currently executing on a worker.
    pub in_flight: u64,
    /// Milliseconds since the daemon started.
    pub uptime_ms: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counters() {
        let stats = ServerStats::new();
        ServerStats::bump(&stats.connections);
        ServerStats::bump(&stats.jobs_accepted);
        ServerStats::add(&stats.bytes_ingested, 1234);
        stats.record_latency(900);
        let snap = stats.snapshot(&Gauges {
            queue_depth: 3,
            workers: 2,
            panics: 7,
            in_flight: 1,
            uptime_ms: 5000,
        });
        let pairs = snap.as_object().unwrap();
        let get = |name: &str| {
            pairs
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone())
                .unwrap()
        };
        assert_eq!(get("workers"), Value::UInt(2));
        assert_eq!(get("queue_depth"), Value::UInt(3));
        assert_eq!(get("connections"), Value::UInt(1));
        assert_eq!(get("bytes_ingested"), Value::UInt(1234));
        assert_eq!(get("jobs_panicked"), Value::UInt(7));
        assert_eq!(get("in_flight"), Value::UInt(1));
        assert_eq!(get("uptime_ms"), Value::UInt(5000));
        let (hist, sum) = stats.latency();
        assert_eq!((hist.total(), sum), (1, 900));
        let latency = get("latency_us");
        let total = latency
            .as_object()
            .unwrap()
            .iter()
            .find(|(k, _)| k == "total")
            .map(|(_, v)| v.clone())
            .unwrap();
        assert_eq!(total, Value::UInt(1));
    }
}
