//! The [`Observer`] trait and basic sinks.

use std::fmt;
use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use crate::event::CacheEvent;

/// Receives the typed event stream from an instrumented cache model.
///
/// Models are generic over their observer and call it behind an
/// `if observer.enabled()` guard, so with [`NullObserver`] (whose
/// `enabled` is a constant `false`) monomorphization deletes both the
/// call *and* the event construction — observability is zero-cost when
/// off.
pub trait Observer: fmt::Debug {
    /// Whether this observer wants events at all. Emission sites guard
    /// event construction on this, so a constant `false` compiles the
    /// instrumentation away.
    fn enabled(&self) -> bool {
        true
    }

    /// Receives one event. Only called while [`Observer::enabled`]
    /// returns `true`.
    fn on_event(&mut self, event: &CacheEvent);
}

/// The do-nothing observer: the default for every model, optimized out
/// entirely.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullObserver;

impl Observer for NullObserver {
    fn enabled(&self) -> bool {
        false
    }

    fn on_event(&mut self, _event: &CacheEvent) {}
}

/// Fan-out: a pair of observers both receive every event, letting one
/// replay feed e.g. a metrics aggregator and a JSONL sink at once.
impl<A: Observer, B: Observer> Observer for (A, B) {
    fn enabled(&self) -> bool {
        self.0.enabled() || self.1.enabled()
    }

    fn on_event(&mut self, event: &CacheEvent) {
        if self.0.enabled() {
            self.0.on_event(event);
        }
        if self.1.enabled() {
            self.1.on_event(event);
        }
    }
}

/// An optional observer: `None` is disabled like [`NullObserver`], so
/// one replay can carry a section that only some runs ask for without
/// changing the observer's type.
impl<O: Observer> Observer for Option<O> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(Observer::enabled)
    }

    fn on_event(&mut self, event: &CacheEvent) {
        if let Some(observer) = self {
            observer.on_event(event);
        }
    }
}

/// Mutable references forward to the referent, so an observer owned by
/// the caller can be lent to a model for one replay.
impl<O: Observer> Observer for &mut O {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }

    fn on_event(&mut self, event: &CacheEvent) {
        (**self).on_event(event);
    }
}

/// An observer that buffers every event in memory, for tests and
/// small-scale analysis.
#[derive(Debug, Clone, Default)]
pub struct EventBuffer {
    /// The events received so far, in emission order.
    pub events: Vec<CacheEvent>,
}

impl EventBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        EventBuffer::default()
    }
}

impl Observer for EventBuffer {
    fn on_event(&mut self, event: &CacheEvent) {
        self.events.push(*event);
    }
}

/// One line of a JSONL event export: the event plus the labels needed
/// to interleave streams from several benchmarks or models in one file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// What produced the event (typically the benchmark name).
    pub source: String,
    /// The model configuration that was replaying (e.g. `"unified"`).
    pub model: String,
    /// The event itself.
    pub event: CacheEvent,
}

/// A streaming JSONL sink: every event becomes one [`EventRecord`]
/// line on the underlying writer, byte-identical to
/// `serde_json::to_string(&record)` plus a newline.
///
/// The labels are rendered once, into a line prefix, and each event is
/// written into one reused line buffer, so an event costs no
/// allocation.
///
/// An observer cannot return an error, so the sink keeps the first
/// write error, writes nothing after it, and returns it from
/// [`JsonlSink::finish`]. A reader that hangs up mid-export (a socket
/// or channel writer) thus ends the export with an error, not a panic.
pub struct JsonlSink<W: Write> {
    writer: W,
    /// `{"source":…,"model":…,"event":` — the labels, already encoded.
    prefix: String,
    line: String,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> JsonlSink<W> {
    /// Creates a sink labelling every line with `source` and `model`.
    pub fn new(writer: W, source: impl Into<String>, model: impl Into<String>) -> Self {
        let mut prefix = String::from("{\"source\":");
        source.into().write_json(&mut prefix);
        prefix.push_str(",\"model\":");
        model.into().write_json(&mut prefix);
        prefix.push_str(",\"event\":");
        JsonlSink {
            writer,
            line: String::with_capacity(prefix.len() + 128),
            prefix,
            lines: 0,
            error: None,
        }
    }

    /// Number of lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// The first error a line write returned, else the flush's error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error {
            return Err(e);
        }
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> fmt::Debug for JsonlSink<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlSink")
            .field("prefix", &self.prefix)
            .field("lines", &self.lines)
            .field("error", &self.error)
            .finish_non_exhaustive()
    }
}

impl<W: Write> Observer for JsonlSink<W> {
    fn on_event(&mut self, event: &CacheEvent) {
        if self.error.is_some() {
            return;
        }
        self.line.clear();
        self.line.push_str(&self.prefix);
        event.write_json(&mut self.line);
        self.line.push_str("}\n");
        match self.writer.write_all(self.line.as_bytes()) {
            Ok(()) => self.lines += 1,
            Err(e) => self.error = Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Region;
    use gencache_cache::TraceId;
    use gencache_program::Time;

    fn hit() -> CacheEvent {
        CacheEvent::Hit {
            region: Region::Unified,
            trace: TraceId::new(1),
            reuse_us: 5,
            time: Time::from_micros(10),
        }
    }

    #[test]
    fn null_observer_is_disabled() {
        assert!(!NullObserver.enabled());
    }

    #[test]
    fn buffer_collects_and_tee_fans_out() {
        let mut tee = (EventBuffer::new(), EventBuffer::new());
        assert!(tee.enabled());
        tee.on_event(&hit());
        assert_eq!(tee.0.events.len(), 1);
        assert_eq!(tee.1.events.len(), 1);

        // A tee with a null half still works and skips the null side.
        let mut half = (NullObserver, EventBuffer::new());
        assert!(half.enabled());
        half.on_event(&hit());
        assert_eq!(half.1.events.len(), 1);

        // An optional half: `Some` receives events, `None` is disabled.
        let mut some = (NullObserver, Some(EventBuffer::new()));
        assert!(some.enabled());
        some.on_event(&hit());
        assert_eq!(some.1.as_ref().map(|b| b.events.len()), Some(1));
        let none: (NullObserver, Option<EventBuffer>) = (NullObserver, None);
        assert!(!none.enabled());
        assert!(!Some(NullObserver).enabled());
    }

    #[test]
    fn borrowed_observer_forwards() {
        let mut buf = EventBuffer::new();
        {
            let lent = &mut buf;
            lent.on_event(&hit());
        }
        assert_eq!(buf.events.len(), 1);
    }

    /// A writer that takes `ok` whole writes, then fails every one.
    #[derive(Debug)]
    struct FailingWriter {
        ok: usize,
        attempts: usize,
    }

    impl Write for FailingWriter {
        fn write(&mut self, data: &[u8]) -> io::Result<usize> {
            self.attempts += 1;
            if self.attempts > self.ok {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "hung up"));
            }
            Ok(data.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn jsonl_sink_keeps_the_first_write_error() {
        let mut writer = FailingWriter { ok: 2, attempts: 0 };
        let mut sink = JsonlSink::new(&mut writer, "word", "unified");
        for _ in 0..5 {
            sink.on_event(&hit());
        }
        assert_eq!(sink.lines(), 2);
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
        // The third write failed and no later event touched the writer.
        assert_eq!(writer.attempts, 3);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new(), "word", "unified");
        sink.on_event(&hit());
        sink.on_event(&hit());
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        for line in text.lines() {
            let rec: EventRecord = serde_json::from_str(line).unwrap();
            assert_eq!(rec.source, "word");
            assert_eq!(rec.model, "unified");
            assert_eq!(rec.event, hit());
        }
    }
}
