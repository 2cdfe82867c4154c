//! The streamed record path: recorder → bounded channel → replay.
//!
//! The materialized pipeline records a benchmark into a full
//! [`AccessLog`](crate::AccessLog) and replays it afterwards, so its peak
//! memory grows linearly with stream length — the ROADMAP's blocker for
//! production trace volumes. This module removes the log entirely:
//! recording is deterministic, so a [`StreamedRecording`] runs the
//! recorder **twice**. The first pass ([`StreamedRecording::probe`])
//! discards every record and keeps only the [`RecordFacts`] — enough to
//! size the paper's standard capacity (`peak/2`) and build the
//! [`RunSummary`]. Each replay then re-records on a producer thread,
//! pushes records through a [`stream::bounded`] channel, and drives the
//! cache models incrementally on the consumer side. Peak memory is
//! O(channel depth + model state), never O(stream length), at the cost of
//! one extra recording pass per replay — the explicit trade the streamed
//! figure binaries make with `--stream`.
//!
//! One channel pass can drive *many* models at once (via
//! [`ReplayCursor`]), so the Figure 9 four-model comparison still costs a
//! single producer pass.

use gencache_core::{CacheModel, GenerationalConfig, GenerationalModel, UnifiedModel};
use gencache_obs::Observer;
use gencache_workloads::{PlanError, WorkloadProfile};

use crate::log::LogRecord;
use crate::recorder::{record_stream_with, RecordFacts, RecorderOptions, RunSummary};
use crate::replay::{Comparison, ReplayCursor, ReplayResult};
use crate::simulate::{replay_spec, SimSpec};
use crate::stream;

/// Default bounded-channel depth for streamed replays: deep enough to
/// decouple producer and consumer scheduling hiccups, small enough that
/// the in-flight window stays a few hundred KiB of `LogRecord`s.
pub const DEFAULT_STREAM_DEPTH: usize = 4096;

/// A benchmark recording that never materializes its log.
///
/// Construct with [`probe`](StreamedRecording::probe) (pass 1: facts
/// only), then call [`replay_models`](StreamedRecording::replay_models) /
/// [`replay_observed`](StreamedRecording::replay_observed) /
/// [`compare_figure9`](StreamedRecording::compare_figure9) any number of
/// times — each replay re-records through a bounded channel, so callers
/// that want several reports tee their observers into one
/// `replay_observed` call rather than replaying once per report.
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

    /// The recorded workload.
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// The probed run facts.
    pub fn facts(&self) -> &RecordFacts {
        &self.facts
    }

    /// The characterization summary — identical to the one the
    /// materialized [`record`](crate::record) path derives from its log.
    pub fn summary(&self) -> &RunSummary {
        &self.summary
    }

    /// The paper's standard bounded budget: half the unbounded peak.
    pub fn capacity(&self) -> u64 {
        self.facts.capacity()
    }

    /// Executions in the stream (creations + accesses) — the
    /// materialized log's `access_count()`.
    pub fn access_count(&self) -> u64 {
        self.facts.accesses
    }

    /// Total records per recording pass.
    pub fn record_count(&self) -> u64 {
        self.facts.records
    }

    /// Pass 2: re-records on a producer thread and drives every model in
    /// `models` from the single bounded-channel stream. Determinism makes
    /// this stream byte-identical to the probed one.
    pub fn replay_models(&self, models: &mut [&mut dyn CacheModel]) {
        let (tx, rx) = stream::bounded::<LogRecord>(self.depth);
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
            let mut rx = rx;
            let mut cursor = ReplayCursor::new();
            while let Some(record) = rx.recv() {
                let step = cursor.step(&record);
                for model in models.iter_mut() {
                    step.drive(*model);
                }
            }
            producer.join().expect("recorder thread panicked");
        });
    }

    /// Streamed counterpart of
    /// [`replay_observed`](crate::replay_observed): replays into the
    /// model described by `spec` with `observer` attached. The observer
    /// runs on the consumer thread, so it needs no `Send` bound. Tee
    /// several observers (`(A, B)`, `Option<O>`) to collect several
    /// reports from one re-recording pass.
    pub fn replay_observed<O: Observer>(&self, spec: SimSpec, observer: O) -> (ReplayResult, O) {
        let (result, observer, _) = replay_spec(spec, self.capacity(), observer, |model| {
            self.replay_models(&mut [model])
        });
        (result, observer)
    }

    /// Streamed counterpart of [`compare_figure9`](crate::compare_figure9):
    /// the unified baseline and the three Figure 9 generational layouts,
    /// all driven from **one** producer pass.
    pub fn compare_figure9(&self) -> Comparison {
        let capacity = self.capacity();
        let configs = GenerationalConfig::figure9_configs(capacity);
        let mut unified = UnifiedModel::new(capacity);
        let mut generational: Vec<GenerationalModel> =
            configs.iter().map(|c| GenerationalModel::new(*c)).collect();

        let mut models: Vec<&mut dyn CacheModel> = Vec::with_capacity(1 + generational.len());
        models.push(&mut unified);
        for model in &mut generational {
            models.push(model);
        }
        self.replay_models(&mut models);

        Comparison {
            benchmark: self.profile.name.clone(),
            capacity,
            unified: ReplayResult::of(&unified),
            generational: generational
                .iter()
                .map(|model| ReplayResult::of(model))
                .collect(),
        }
    }
}

/// Probes `profile` and runs the streamed Figure 9 comparison in one
/// call, returning the recording for further replays.
///
/// # Errors
///
/// Returns [`PlanError`] if the workload cannot be planned.
pub fn compare_figure9_streamed(
    profile: &WorkloadProfile,
    depth: usize,
) -> Result<(StreamedRecording, Comparison), PlanError> {
    let rec = StreamedRecording::probe(profile, RecorderOptions::default(), depth)?;
    let comparison = rec.compare_figure9();
    Ok((rec, comparison))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::record;
    use crate::replay::compare_figure9;
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
        assert_eq!(doc(&rec.summary()), doc(&run.summary));
        assert_eq!(rec.capacity(), (run.log.peak_trace_bytes / 2).max(1));
        assert_eq!(rec.access_count(), run.log.access_count());
        assert_eq!(rec.record_count(), run.log.records.len() as u64);
    }

    #[test]
    fn streamed_figure9_is_bit_identical_to_materialized() {
        let run = record(&profile()).unwrap();
        let materialized = compare_figure9(&run.log);
        let (_, streamed) = compare_figure9_streamed(&profile(), 32).unwrap();
        assert_eq!(doc(&streamed), doc(&materialized));
    }

    #[test]
    fn streamed_observed_replay_matches_materialized() {
        let run = record(&profile()).unwrap();
        let rec = StreamedRecording::probe(&profile(), RecorderOptions::default(), 16).unwrap();
        for spec in [SimSpec::Unified, SimSpec::best_generational()] {
            let (res_m, obs_m) =
                crate::replay_observed(&run.log, spec, MetricsObserver::with_timeline(64));
            let (res_s, obs_s) = rec.replay_observed(spec, MetricsObserver::with_timeline(64));
            assert_eq!(doc(&res_s), doc(&res_m));
            assert_eq!(obs_s.report(), obs_m.report());
        }
    }

    #[test]
    fn tiny_channel_depth_still_replays_completely() {
        let (rec, comparison) = compare_figure9_streamed(&profile(), 1).unwrap();
        assert_eq!(comparison.unified.metrics.accesses, rec.access_count());
    }
}
