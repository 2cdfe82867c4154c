//! One recording abstraction over the two ways a run is held: the
//! materialized [`AccessLog`] (inside a [`RecordedRun`]) and the
//! [`StreamedRecording`](crate::StreamedRecording). Every replay driver,
//! comparison and export is written once, generic over [`Recording`].

use gencache_cache::{LogRecord, ReplayCursor};
use gencache_core::{apply_step, CacheModel};
use gencache_program::Time;

use crate::log::AccessLog;
use crate::progress::{ProgressMeter, PROGRESS_BATCH};
use crate::recorder::{RecordedRun, RunSummary};

/// The paper's standard bounded-cache budget: half the unbounded peak
/// (`maxCache`), at least one byte. The one place the rule is written.
pub fn standard_capacity(peak_trace_bytes: u64) -> u64 {
    (peak_trace_bytes / 2).max(1)
}

/// A recorded run that can be replayed any number of times: the run
/// facts consumers read, and one [`drive`](Recording::drive) loop that
/// feeds any number of models from a single pass. [`AccessLog`] and
/// [`RecordedRun`] loop over the log's records;
/// [`StreamedRecording`](crate::StreamedRecording) re-records on a
/// producer thread through a bounded channel. Every pass yields the same
/// record stream, so every consumer's output is byte-identical across
/// sources.
pub trait Recording {
    /// Benchmark name the run was recorded from.
    fn benchmark(&self) -> &str;

    /// Total run duration (Equation 2's denominator).
    fn duration(&self) -> Time;

    /// Peak bytes simultaneously live in the unbounded trace cache —
    /// the `maxCache` that sizes every bounded simulation.
    fn peak_trace_bytes(&self) -> u64;

    /// Trace executions in the stream (creations count as the first).
    fn access_count(&self) -> u64;

    /// Records per pass.
    fn record_count(&self) -> u64;

    /// The characterization summary. `None` for a bare [`AccessLog`]
    /// (a log loaded from disk carries no frontend counters).
    fn summary(&self) -> Option<&RunSummary>;

    /// Hands every record of one pass to `visit`, in stream order.
    fn for_each_record(&self, visit: impl FnMut(&LogRecord));

    /// The paper's standard bounded budget: [`standard_capacity`] of the
    /// unbounded peak.
    fn capacity(&self) -> u64 {
        standard_capacity(self.peak_trace_bytes())
    }

    /// Drives every model in `models` from one pass over the records:
    /// each record is resolved once through a [`ReplayCursor`] and the
    /// resulting step is applied to all models, which therefore observe
    /// the identical frontend request stream.
    fn drive(&self, models: &mut [&mut dyn CacheModel]) {
        let mut cursor = ReplayCursor::new();
        self.for_each_record(|record| {
            let step = cursor.step(record);
            for model in models.iter_mut() {
                apply_step(*model, step);
            }
        });
    }

    /// This recording with every pass reporting its records into
    /// `meter`, flushed every [`PROGRESS_BATCH`] records (and once at
    /// the end of the pass), so the shared-atomic traffic stays
    /// negligible even with many workers replaying concurrently.
    fn metered<'a>(&'a self, meter: &'a ProgressMeter) -> Metered<'a, Self>
    where
        Self: Sized,
    {
        Metered { inner: self, meter }
    }
}

impl Recording for AccessLog {
    fn benchmark(&self) -> &str {
        &self.benchmark
    }

    fn duration(&self) -> Time {
        self.duration
    }

    fn peak_trace_bytes(&self) -> u64 {
        self.peak_trace_bytes
    }

    fn access_count(&self) -> u64 {
        AccessLog::access_count(self)
    }

    fn record_count(&self) -> u64 {
        self.records.len() as u64
    }

    fn summary(&self) -> Option<&RunSummary> {
        None
    }

    fn for_each_record(&self, visit: impl FnMut(&LogRecord)) {
        self.records.iter().for_each(visit);
    }
}

impl Recording for RecordedRun {
    fn benchmark(&self) -> &str {
        &self.log.benchmark
    }

    fn duration(&self) -> Time {
        self.log.duration
    }

    fn peak_trace_bytes(&self) -> u64 {
        self.log.peak_trace_bytes
    }

    fn access_count(&self) -> u64 {
        self.log.access_count()
    }

    fn record_count(&self) -> u64 {
        self.log.records.len() as u64
    }

    fn summary(&self) -> Option<&RunSummary> {
        Some(&self.summary)
    }

    fn for_each_record(&self, visit: impl FnMut(&LogRecord)) {
        self.log.for_each_record(visit);
    }
}

/// A [`Recording`] whose passes count their records into a shared
/// [`ProgressMeter`]; built by [`Recording::metered`]. The run facts are
/// the inner recording's.
#[derive(Debug, Clone, Copy)]
pub struct Metered<'a, R> {
    inner: &'a R,
    meter: &'a ProgressMeter,
}

impl<R: Recording> Recording for Metered<'_, R> {
    fn benchmark(&self) -> &str {
        self.inner.benchmark()
    }

    fn duration(&self) -> Time {
        self.inner.duration()
    }

    fn peak_trace_bytes(&self) -> u64 {
        self.inner.peak_trace_bytes()
    }

    fn access_count(&self) -> u64 {
        self.inner.access_count()
    }

    fn record_count(&self) -> u64 {
        self.inner.record_count()
    }

    fn summary(&self) -> Option<&RunSummary> {
        self.inner.summary()
    }

    fn for_each_record(&self, mut visit: impl FnMut(&LogRecord)) {
        let mut pending = 0u64;
        self.inner.for_each_record(|record| {
            visit(record);
            pending += 1;
            if pending == PROGRESS_BATCH {
                self.meter.add(pending);
                pending = 0;
            }
        });
        if pending > 0 {
            self.meter.add(pending);
        }
    }
}
