//! The streamed constructor of a [`Recording`]: recorder → bounded
//! channel → replay.
//!
//! A [`Recording`] has two constructors. [`record`](crate::record)
//! materializes the full [`AccessLog`](crate::AccessLog), so its peak
//! memory grows linearly with stream length — the ROADMAP's blocker for
//! production trace volumes. [`StreamedRecording::probe`] never holds
//! the log: recording is deterministic, so it runs the recorder once,
//! discarding every record and keeping only the [`RecordFacts`] — enough
//! to size the paper's standard capacity (`peak/2`) and build the
//! [`RunSummary`]. Each pass of [`Recording::for_each_record`] then
//! re-records on a producer thread and pushes records through a bounded
//! `std::sync::mpsc::sync_channel` to the consumer, where the shared
//! [`Recording::drive`] loop feeds the cache models incrementally. Peak
//! memory is O(channel depth + model state), never O(stream length), at
//! the cost of one extra recording pass per replay — the explicit trade
//! the figure binaries make with `--stream`. One pass drives any number
//! of models, so the Figure 9 four-model comparison still costs a single
//! producer pass.

use std::sync::mpsc::sync_channel;

use gencache_program::Time;
use gencache_workloads::{PlanError, WorkloadProfile};

use crate::log::LogRecord;
use crate::recorder::{record_stream_with, RecordFacts, RecorderOptions, RunSummary};
use crate::recording::Recording;

/// Default bounded-channel depth for streamed replays: deep enough to
/// decouple producer and consumer scheduling hiccups, small enough that
/// the in-flight window stays a few hundred KiB of `LogRecord`s.
pub const DEFAULT_STREAM_DEPTH: usize = 4096;

/// A benchmark recording that never materializes its log.
///
/// Construct with [`probe`](StreamedRecording::probe) (pass 1: facts
/// only), then replay it through any [`Recording`] consumer any number
/// of times — each pass re-records through a bounded channel, so callers
/// that want several reports tee their observers into one replay rather
/// than replaying once per report.
#[derive(Debug, Clone)]
pub struct StreamedRecording {
    profile: WorkloadProfile,
    options: RecorderOptions,
    depth: usize,
    facts: RecordFacts,
    summary: RunSummary,
}

impl StreamedRecording {
    /// Pass 1: records `profile` once, discarding every record, to learn
    /// the run facts (peak trace bytes → capacity, duration, summary).
    ///
    /// # Errors
    ///
    /// Returns [`PlanError`] if the workload cannot be planned.
    pub fn probe(
        profile: &WorkloadProfile,
        options: RecorderOptions,
        depth: usize,
    ) -> Result<Self, PlanError> {
        let facts = record_stream_with(profile, options, &mut |_| {})?;
        let summary = facts.summary(profile);
        Ok(StreamedRecording {
            profile: profile.clone(),
            options,
            depth: depth.max(1),
            facts,
            summary,
        })
    }
}

impl Recording for StreamedRecording {
    fn benchmark(&self) -> &str {
        &self.profile.name
    }

    fn duration(&self) -> Time {
        self.facts.duration
    }

    fn peak_trace_bytes(&self) -> u64 {
        self.facts.frontend.peak_trace_bytes
    }

    fn access_count(&self) -> u64 {
        self.facts.accesses
    }

    fn record_count(&self) -> u64 {
        self.facts.records
    }

    /// The characterization summary — identical to the one the
    /// materialized [`record`](crate::record) path derives.
    fn summary(&self) -> Option<&RunSummary> {
        Some(&self.summary)
    }

    /// Re-records on a producer thread and hands each record to `visit`
    /// on this thread as it leaves the bounded channel. Determinism makes
    /// every pass byte-identical to the probed one.
    fn for_each_record(&self, mut visit: impl FnMut(&LogRecord)) {
        let (tx, rx) = sync_channel::<LogRecord>(self.depth);
        let profile = &self.profile;
        let options = self.options;
        std::thread::scope(|s| {
            let producer = s.spawn(move || {
                // If the consumer disappears (a model panicked), stop
                // forwarding and let the recorder run out quietly; the
                // panic propagates from the consumer side.
                let mut closed = false;
                record_stream_with(profile, options, &mut |record| {
                    if !closed && tx.send(record).is_err() {
                        closed = true;
                    }
                })
                .expect("profile planned successfully during probe");
            });
            while let Ok(record) = rx.recv() {
                visit(&record);
            }
            producer.join().expect("recorder thread panicked");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replay::compare_figure9;
    use crate::simulate::{replay_observed, SimSpec};
    use gencache_obs::MetricsObserver;
    use gencache_workloads::Suite;
    use serde::Serialize;

    fn profile() -> WorkloadProfile {
        WorkloadProfile::builder("streamtest", Suite::Interactive)
            .footprint_kb(48)
            .phases(4)
            .dlls(3, 0.7)
            .duration_secs(10.0)
            .build()
    }

    fn doc<T: Serialize>(value: &T) -> String {
        serde_json::to_string(value).expect("serializable")
    }

    #[test]
    fn probed_summary_matches_materialized_summary() {
        let run = record(&profile()).unwrap();
        let rec = StreamedRecording::probe(&profile(), RecorderOptions::default(), 64).unwrap();
        let summary = rec.summary().expect("a probe keeps its summary");
        assert_eq!(doc(summary), doc(&run.summary));
        assert_eq!(rec.peak_trace_bytes(), run.log.peak_trace_bytes);
        assert_eq!(rec.capacity(), run.log.capacity());
        assert_eq!(rec.access_count(), run.log.access_count());
        assert_eq!(rec.record_count(), run.log.records.len() as u64);
    }

    #[test]
    fn streamed_figure9_is_bit_identical_to_materialized() {
        let run = record(&profile()).unwrap();
        let materialized = compare_figure9(&run.log);
        let rec = StreamedRecording::probe(&profile(), RecorderOptions::default(), 32).unwrap();
        assert_eq!(doc(&compare_figure9(&rec)), doc(&materialized));
    }

    #[test]
    fn streamed_observed_replay_matches_materialized() {
        let run = record(&profile()).unwrap();
        let rec = StreamedRecording::probe(&profile(), RecorderOptions::default(), 16).unwrap();
        for spec in [SimSpec::Unified, SimSpec::best_generational()] {
            let (res_m, obs_m) =
                replay_observed(&run.log, spec, MetricsObserver::with_timeline(64));
            let (res_s, obs_s) = replay_observed(&rec, spec, MetricsObserver::with_timeline(64));
            assert_eq!(doc(&res_s), doc(&res_m));
            assert_eq!(obs_s.report(), obs_m.report());
        }
    }

    #[test]
    fn tiny_channel_depth_still_replays_completely() {
        let rec = StreamedRecording::probe(&profile(), RecorderOptions::default(), 1).unwrap();
        let comparison = compare_figure9(&rec);
        assert_eq!(comparison.unified.metrics.accesses, rec.access_count());
    }
}
