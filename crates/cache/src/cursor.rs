//! Walking a frontend request stream: the one cursor every consumer of
//! a [`LogRecord`] stream goes through.
//!
//! A log names a trace by id after its creation and leaves pin toggles
//! untimed. [`ReplayCursor`] resolves both: it keeps the trace catalog
//! (sizes and head addresses from creation records) and the clock of
//! the latest timed record. Each resolved [`ReplayStep`] is exactly the
//! call a cache model receives, so the replay harness, the offline
//! simulator, the linking and occupancy analyses and the Belady oracle
//! all read the same stream the same way.

use gencache_program::Time;

use crate::record::{LogRecord, TraceId, TraceRecord};
use crate::tracemap::TraceMap;

/// Per-stream replay state: the trace catalog (sizes and head addresses
/// resolved from creation records) and the standing clock for untimed
/// pin records.
///
/// One cursor [`step`](ReplayCursor::step)s through a record stream
/// exactly once, and the resolved [`ReplayStep`] can then drive *any
/// number of models* — this is what lets one pass over a materialized
/// log or a bounded-channel stream feed the whole Figure 9 model set.
#[derive(Debug, Default)]
pub struct ReplayCursor {
    catalog: TraceMap<TraceId, TraceRecord>,
    // Pin records carry no timestamp; the clock of the most recent timed
    // record stands in for them.
    now: Time,
}

/// One log record resolved against the [`ReplayCursor`] catalog and
/// clock, ready to drive a model.
#[derive(Debug, Clone, Copy)]
pub enum ReplayStep {
    /// Present the trace for execution (creations and accesses alike: a
    /// trace is executed as soon as it is generated).
    Access(TraceRecord, Time),
    /// Force deletion of an unmapped trace.
    Unmap(TraceId, Time),
    /// Toggle the trace's undeletable window.
    Pin(TraceId, bool, Time),
}

impl ReplayCursor {
    /// A fresh cursor at time zero with an empty catalog.
    pub fn new() -> Self {
        ReplayCursor::default()
    }

    /// Whether the stream so far created trace `id`.
    pub fn created(&self, id: TraceId) -> bool {
        self.catalog.get(id).is_some()
    }

    /// Resolves the next `record` of the stream into a driveable step,
    /// updating the catalog and the standing clock.
    ///
    /// # Panics
    ///
    /// Panics on an access to a trace the stream never created.
    pub fn step(&mut self, record: &LogRecord) -> ReplayStep {
        match *record {
            LogRecord::Create { record, time } => {
                self.catalog.insert(record.id, record);
                self.now = time;
                ReplayStep::Access(record, time)
            }
            LogRecord::Access { id, time } => {
                let rec = self
                    .catalog
                    .get(id)
                    .expect("access to a trace never created; corrupt log");
                self.now = time;
                ReplayStep::Access(*rec, time)
            }
            LogRecord::Invalidate { id, time } => {
                self.now = time;
                ReplayStep::Unmap(id, time)
            }
            LogRecord::Pin { id } => ReplayStep::Pin(id, true, self.now),
            LogRecord::Unpin { id } => ReplayStep::Pin(id, false, self.now),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gencache_program::Addr;

    #[test]
    fn resolves_sizes_and_clocks_pins() {
        let id = TraceId::new(3);
        let rec = TraceRecord::new(id, 90, Addr::new(0x30));
        let mut cursor = ReplayCursor::new();
        assert!(!cursor.created(id));
        let at = Time::from_micros;
        let steps = [
            LogRecord::Create {
                record: rec,
                time: at(1),
            },
            LogRecord::Access { id, time: at(4) },
            LogRecord::Pin { id },
            LogRecord::Invalidate { id, time: at(7) },
            LogRecord::Unpin { id },
        ]
        .map(|r| cursor.step(&r));
        assert!(cursor.created(id));
        assert!(matches!(steps[0], ReplayStep::Access(r, t) if r == rec && t == at(1)));
        assert!(matches!(steps[1], ReplayStep::Access(r, t) if r == rec && t == at(4)));
        assert!(matches!(steps[2], ReplayStep::Pin(i, true, t) if i == id && t == at(4)));
        assert!(matches!(steps[3], ReplayStep::Unmap(i, t) if i == id && t == at(7)));
        assert!(matches!(steps[4], ReplayStep::Pin(i, false, t) if i == id && t == at(7)));
    }
}
