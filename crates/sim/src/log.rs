//! The verbose access log: the paper's evaluation methodology.
//!
//! "DynamoRIO executed our benchmarks using an unbounded code cache, and
//! we used the verbose log of cache accesses to drive our cache
//! simulator" (Section 6). [`AccessLog`] is that log: an ordered record of
//! trace creations, trace-cache accesses, unmap invalidations, and
//! undeletable-trace windows, replayable into any [`CacheModel`].
//!
//! [`CacheModel`]: gencache_core::CacheModel

use gencache_cache::{TraceId, TraceRecord};
use gencache_program::Time;
use serde::{Deserialize, Serialize};

/// One entry of the verbose log.
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

/// A complete recorded run, ready for replay.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessLog {
    /// Benchmark name the log was recorded from.
    pub benchmark: String,
    /// Ordered log records.
    pub records: Vec<LogRecord>,
    /// Total run duration (Equation 2's denominator).
    pub duration: Time,
    /// Peak bytes simultaneously live in the unbounded trace cache —
    /// the `maxCache` that sizes every bounded simulation.
    pub peak_trace_bytes: u64,
}

impl AccessLog {
    /// Number of trace executions (creations count as the first one).
    pub fn access_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r, LogRecord::Create { .. } | LogRecord::Access { .. }))
            .count() as u64
    }

    /// Number of distinct traces created.
    pub fn trace_count(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| matches!(r, LogRecord::Create { .. }))
            .count() as u64
    }

    /// Total bytes of created traces (insertion volume; with the run
    /// duration this yields the Figure 3 insertion rate).
    pub fn created_bytes(&self) -> u64 {
        self.records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Create { record, .. } => Some(u64::from(record.size_bytes)),
                _ => None,
            })
            .sum()
    }

    /// Bytes of traces deleted because of unmapped memory (Figure 4's
    /// numerator). Requires size lookup through creation records.
    pub fn invalidated_bytes(&self) -> u64 {
        let mut sizes = std::collections::HashMap::new();
        let mut total = 0u64;
        for r in &self.records {
            match r {
                LogRecord::Create { record, .. } => {
                    sizes.insert(record.id, u64::from(record.size_bytes));
                }
                LogRecord::Invalidate { id, .. } => {
                    total += sizes.get(id).copied().unwrap_or(0);
                }
                _ => {}
            }
        }
        total
    }

    /// Median created-trace size in bytes (the paper's cost-model anchor
    /// was a 242-byte median trace). Zero if no traces were created.
    pub fn median_trace_bytes(&self) -> u32 {
        let mut sizes: Vec<u32> = self
            .records
            .iter()
            .filter_map(|r| match r {
                LogRecord::Create { record, .. } => Some(record.size_bytes),
                _ => None,
            })
            .collect();
        if sizes.is_empty() {
            return 0;
        }
        sizes.sort_unstable();
        sizes[sizes.len() / 2]
    }
}

impl AccessLog {
    /// Serializes the log as JSON to `path`. Verbose logs are reused
    /// across simulations exactly as in the paper's methodology.
    ///
    /// # Errors
    ///
    /// Returns any I/O or serialization error.
    pub fn save_json(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let writer = std::io::BufWriter::new(file);
        serde_json::to_writer(writer, self).map_err(std::io::Error::other)
    }

    /// Loads a log previously written by [`AccessLog::save_json`].
    ///
    /// # Errors
    ///
    /// Returns any I/O or deserialization error.
    pub fn load_json(path: impl AsRef<std::path::Path>) -> std::io::Result<AccessLog> {
        let file = std::fs::File::open(path)?;
        let reader = std::io::BufReader::new(file);
        serde_json::from_reader(reader).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Addr;

    fn sample() -> AccessLog {
        let rec = |id: u64, size: u32| TraceRecord::new(TraceId::new(id), size, Addr::new(id));
        AccessLog {
            benchmark: "t".into(),
            records: vec![
                LogRecord::Create {
                    record: rec(1, 100),
                    time: Time::ZERO,
                },
                LogRecord::Access {
                    id: TraceId::new(1),
                    time: Time::from_micros(1),
                },
                LogRecord::Create {
                    record: rec(2, 300),
                    time: Time::from_micros(2),
                },
                LogRecord::Pin {
                    id: TraceId::new(2),
                },
                LogRecord::Unpin {
                    id: TraceId::new(2),
                },
                LogRecord::Invalidate {
                    id: TraceId::new(1),
                    time: Time::from_micros(3),
                },
                LogRecord::Create {
                    record: rec(3, 200),
                    time: Time::from_micros(4),
                },
            ],
            duration: Time::from_micros(10),
            peak_trace_bytes: 500,
        }
    }

    #[test]
    fn counters() {
        let log = sample();
        assert_eq!(log.access_count(), 4);
        assert_eq!(log.trace_count(), 3);
        assert_eq!(log.created_bytes(), 600);
        assert_eq!(log.invalidated_bytes(), 100);
        assert_eq!(log.median_trace_bytes(), 200);
    }

    #[test]
    fn empty_log_is_safe() {
        let log = AccessLog::default();
        assert_eq!(log.access_count(), 0);
        assert_eq!(log.median_trace_bytes(), 0);
        assert_eq!(log.invalidated_bytes(), 0);
    }

    #[test]
    fn file_roundtrip() {
        let log = sample();
        let dir = std::env::temp_dir().join("gencache-log-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.json");
        log.save_json(&path).unwrap();
        let back = AccessLog::load_json(&path).unwrap();
        assert_eq!(back, log);
        // The file is exactly the serializer's text, and saving the
        // loaded log reproduces it byte for byte.
        let bytes = std::fs::read(&path).unwrap();
        assert_eq!(bytes, serde_json::to_string(&log).unwrap().into_bytes());
        back.save_json(&path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), bytes);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn serde_roundtrip() {
        let log = sample();
        let json = serde_json::to_string(&log).unwrap();
        let back: AccessLog = serde_json::from_str(&json).unwrap();
        assert_eq!(back.records.len(), log.records.len());
        assert_eq!(back.peak_trace_bytes, 500);
    }
}
