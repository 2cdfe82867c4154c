//! Versioned framing for the JSONL event export.
//!
//! A `--events-out` file is a sequence of self-describing JSON lines:
//!
//! 1. exactly one [`StreamHeader`] as the first line, naming the schema
//!    and its version;
//! 2. one [`RunMeta`] line per `(source, model)` stream, carrying the
//!    run facts that are *not* recoverable from the events themselves
//!    (capacity basis, wall-clock duration, phase count);
//! 3. [`EventRecord`] lines, one per [`CacheEvent`](crate::CacheEvent).
//!
//! Consumers call [`parse_stream_line`] per line and branch on the
//! returned [`StreamLine`]; unknown versions are rejected up front
//! instead of misparsing silently. Version 1 files (plain event lines,
//! no header) still parse — every line is an event — so old exports
//! remain readable by consumers that choose to warn instead of reject.
//!
//! Every event line of one stream starts with the same text,
//! [`write_event_line_prefix`]. A consumer that tracks the current
//! stream can read such a line with [`read_prefixed_event`], which reads
//! just the event and declines anything else, and send the rest to
//! [`read_event_line`] or [`parse_stream_line`].

use std::borrow::Cow;

use serde::{Deserialize, JsonReader, Serialize};

use crate::event::CacheEvent;
use crate::observer::EventRecord;

/// The schema name every event export declares.
pub const EVENTS_SCHEMA: &str = "gencache-events";

/// The version this crate writes and understands.
///
/// * v1 — bare [`EventRecord`] lines, no framing (PR 2–3 exports).
/// * v2 — [`StreamHeader`] first line, [`RunMeta`] per stream, and
///   [`CacheEvent::Noop`](crate::CacheEvent::Noop) events making the
///   frontend op sequence complete (required by the `simulate` tool).
pub const EVENTS_VERSION: u32 = 2;

/// The schema name every `--metrics-out` document declares in its
/// top-level `schema` field.
pub const METRICS_SCHEMA: &str = "gencache-metrics";

/// The metrics-document version this crate's consumers understand.
///
/// * v1 — `suite`/`benchmarks` only, no self-description (PR 2–3).
/// * v2 — adds the top-level `schema`/`version` fields.
pub const METRICS_VERSION: u32 = 2;

/// The first line of a versioned event export.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StreamHeader {
    /// Schema name; always [`EVENTS_SCHEMA`].
    pub schema: String,
    /// Schema version; see [`EVENTS_VERSION`].
    pub version: u32,
}

impl StreamHeader {
    /// The header this crate writes.
    pub fn current() -> Self {
        StreamHeader {
            schema: EVENTS_SCHEMA.to_string(),
            version: EVENTS_VERSION,
        }
    }

    /// Checks the header names a schema/version this crate understands.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema != EVENTS_SCHEMA {
            return Err(format!(
                "unknown schema {:?} (expected {EVENTS_SCHEMA:?})",
                self.schema
            ));
        }
        if self.version != EVENTS_VERSION {
            return Err(format!(
                "unsupported {} version {} (this build understands version {})",
                self.schema, self.version, EVENTS_VERSION
            ));
        }
        Ok(())
    }
}

/// Run facts for one `(source, model)` stream that the events alone
/// cannot reproduce: what the replay was driven with, not what the
/// cache did.
///
/// `peak_trace_bytes` is the unbounded footprint that fixes the paper's
/// capacity rule (`capacity = peak / 2`); `duration_us` and `phases`
/// parameterize phase-bucketed cost attribution. The offline `simulate`
/// tool needs all three to rebuild a [`MetricsReport`](crate::MetricsReport)
/// / [`CostReport`](crate::CostReport) pair identical to the live path's.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Benchmark the stream was recorded from.
    pub source: String,
    /// Model label the stream was replayed into (e.g. `"unified"`).
    pub model: String,
    /// Wall-clock span of the recorded run, in microseconds.
    pub duration_us: u64,
    /// Peak unbounded trace footprint of the recording, in bytes.
    pub peak_trace_bytes: u64,
    /// Program phase count of the workload profile.
    pub phases: u32,
}

/// One parsed line of a versioned event export.
#[derive(Debug, Clone, PartialEq)]
pub enum StreamLine {
    /// The file-level schema header.
    Header(StreamHeader),
    /// Per-stream run metadata.
    Meta(RunMeta),
    /// An event line.
    Event(EventRecord),
}

/// Parses one JSONL line of an event export.
///
/// An event line is read directly from the text by
/// [`read_event_line`], with no value tree, and its labels are then
/// owned. Every other line goes to [`parse_stream_line_tree`]: headers,
/// meta lines, malformed lines, and any line with a top-level `schema`
/// or `duration_us` key (the keys that dispatch checks). The result is
/// always the one [`parse_stream_line_tree`] returns.
pub fn parse_stream_line(line: &str) -> Result<StreamLine, String> {
    match read_event_line(line) {
        Some(event) => Ok(StreamLine::Event(event.into_record())),
        None => parse_stream_line_tree(line),
    }
}

/// An event line whose labels are borrowed from the line's text; a
/// label is owned only when its text has escapes.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine<'a> {
    /// Benchmark the event was recorded from.
    pub source: Cow<'a, str>,
    /// Model label the event stream was replayed into.
    pub model: Cow<'a, str>,
    /// The event itself.
    pub event: CacheEvent,
}

impl EventLine<'_> {
    /// The record with owned labels, as [`parse_stream_line`] returns
    /// it.
    pub fn into_record(self) -> EventRecord {
        EventRecord {
            source: self.source.into_owned(),
            model: self.model.into_owned(),
            event: self.event,
        }
    }
}

/// Reads `line` as an [`EventRecord`] object with borrowed labels, or
/// `None` when it is not one or carries a key the tree dispatch would
/// try first. Whenever this returns a line, [`parse_stream_line_tree`]
/// returns the same record once the labels are owned. As in the derived
/// reader, the first occurrence of a key wins and unknown keys are
/// skipped under the same grammar.
pub fn read_event_line(line: &str) -> Option<EventLine<'_>> {
    let mut r = JsonReader::new(line);
    r.begin_object().ok()?;
    let (mut source, mut model, mut event) = (None, None, None);
    let mut first = true;
    while let Some(key) = r.next_key(first).ok()? {
        first = false;
        match &*key {
            "schema" | "duration_us" => return None,
            "source" if source.is_none() => source = Some(r.read_str().ok()?),
            "model" if model.is_none() => model = Some(r.read_str().ok()?),
            "event" if event.is_none() => event = Some(CacheEvent::read_json(&mut r).ok()?),
            _ => r.skip_value().ok()?,
        }
    }
    r.finish().ok()?;
    Some(EventLine {
        source: source?,
        model: model?,
        event: event?,
    })
}

/// Appends `{"source":…,"model":…,"event":` to `out`: the text every
/// event line of the `(source, model)` stream starts with, labels
/// escaped as any string is written. [`JsonlSink`](crate::JsonlSink)
/// writes each line from it, and a reader that knows the stream a line
/// should belong to matches the line against it with
/// [`read_prefixed_event`].
pub fn write_event_line_prefix(source: &str, model: &str, out: &mut String) {
    out.push_str("{\"source\":");
    source.write_json(out);
    out.push_str(",\"model\":");
    model.write_json(out);
    out.push_str(",\"event\":");
}

/// Reads the event of `line` when the line is `prefix`, one event, the
/// closing `}` and at most trailing whitespace; `prefix` is a stream's
/// [`write_event_line_prefix`] text. Anything else, an empty `prefix`
/// or more keys after the event included, gives `None`, and the caller
/// goes on with [`read_event_line`]. Whenever this returns an event,
/// [`read_event_line`] returns the same event with that stream's labels:
/// the event is read by the same reader, inside the line's one open
/// object, and the line must end as that function's loop requires.
pub fn read_prefixed_event(line: &str, prefix: &str) -> Option<CacheEvent> {
    if prefix.is_empty() || !line.starts_with(prefix) {
        return None;
    }
    let mut r = JsonReader::inside_object(line, prefix.len());
    let event = CacheEvent::read_json(&mut r).ok()?;
    match r.next_key(false) {
        Ok(None) => r.finish().ok().map(|()| event),
        _ => None,
    }
}

/// Parses one JSONL line through a value tree, dispatched on its keys:
/// an object with `schema` is tried as a [`StreamHeader`], one with
/// `duration_us` as a [`RunMeta`], and anything else becomes an
/// [`EventRecord`]. A keyed shape that fails to deserialize falls
/// through to [`EventRecord`], so a malformed line reports the event
/// error, whatever keys it carries.
///
/// [`parse_stream_line`] uses this for every line that is not a plain
/// event line; tests use it as the reference for the event path.
pub fn parse_stream_line_tree(line: &str) -> Result<StreamLine, String> {
    let unrecognized = |e: &dyn std::fmt::Display| format!("unrecognized stream line: {e}: {line}");
    let value = serde_json::value_from_str(line).map_err(|e| unrecognized(&e))?;
    let has_key = |key: &str| {
        value
            .as_object()
            .is_some_and(|pairs| pairs.iter().any(|(k, _)| k == key))
    };
    if has_key("schema") {
        if let Ok(header) = StreamHeader::from_value(&value) {
            return Ok(StreamLine::Header(header));
        }
    }
    if has_key("duration_us") {
        if let Ok(meta) = RunMeta::from_value(&value) {
            return Ok(StreamLine::Meta(meta));
        }
    }
    EventRecord::from_value(&value)
        .map(StreamLine::Event)
        .map_err(|e| unrecognized(&e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CacheEvent, Region};
    use gencache_cache::TraceId;
    use gencache_program::Time;

    #[test]
    fn header_roundtrip_and_validation() {
        let header = StreamHeader::current();
        let line = serde_json::to_string(&header).unwrap();
        match parse_stream_line(&line).unwrap() {
            StreamLine::Header(h) => {
                assert_eq!(h, header);
                h.validate().unwrap();
            }
            other => panic!("expected header, got {other:?}"),
        }
        let future = StreamHeader {
            schema: EVENTS_SCHEMA.into(),
            version: EVENTS_VERSION + 1,
        };
        assert!(future.validate().is_err());
        let alien = StreamHeader {
            schema: "not-ours".into(),
            version: EVENTS_VERSION,
        };
        assert!(alien.validate().is_err());
    }

    #[test]
    fn meta_and_event_lines_disambiguate() {
        let meta = RunMeta {
            source: "word".into(),
            model: "unified".into(),
            duration_us: 1_000_000,
            peak_trace_bytes: 4096,
            phases: 3,
        };
        let line = serde_json::to_string(&meta).unwrap();
        assert_eq!(parse_stream_line(&line).unwrap(), StreamLine::Meta(meta));

        let record = EventRecord {
            source: "word".into(),
            model: "unified".into(),
            event: CacheEvent::Hit {
                region: Region::Unified,
                trace: TraceId::new(1),
                reuse_us: 0,
                time: Time::ZERO,
            },
        };
        let line = serde_json::to_string(&record).unwrap();
        // An event line is read directly, without the tree dispatch.
        let read = read_event_line(&line).expect("an event line");
        assert!(matches!(read.source, Cow::Borrowed("word")), "{read:?}");
        assert_eq!(read.into_record(), record);
        assert_eq!(parse_stream_line(&line).unwrap(), StreamLine::Event(record));
    }

    #[test]
    fn garbage_lines_error() {
        let deep = "[".repeat(100_000);
        let event =
            r#""source":"w","model":"m","event":{"Pin":{"region":"Nursery","trace":1,"time":2}}"#;
        let with_header = format!(r#"{{{event},"schema":"gencache-events","version":2}}"#);
        let with_meta = format!(r#"{{"duration_us":5,{event},"peak_trace_bytes":6,"phases":1}}"#);
        let meta = RunMeta {
            source: "w".into(),
            model: "m".into(),
            duration_us: 5,
            peak_trace_bytes: 6,
            phases: 1,
        };
        let cases = [
            ("{\"what\":1}", Err("missing field EventRecord.source")),
            ("not json", Err("invalid literal at byte 0")),
            ("[1,2,3]", Err("expected object for EventRecord, got Array")),
            // Header- and meta-keyed lines that do not deserialize as
            // such report the event error, like any other bad line.
            (
                "{\"schema\":\"gencache-events\"}",
                Err("missing field EventRecord.source"),
            ),
            (
                "{\"source\":\"w\",\"model\":\"m\",\"duration_us\":1}",
                Err("missing field EventRecord.event"),
            ),
            // Hostile nesting is an error, not a stack overflow.
            (deep.as_str(), Err("nesting deeper than 128")),
            // A valid event line that also carries a whole header or
            // meta line is that header or meta line: the dispatch tries
            // those first.
            (
                with_header.as_str(),
                Ok(StreamLine::Header(StreamHeader::current())),
            ),
            (with_meta.as_str(), Ok(StreamLine::Meta(meta))),
        ];
        for (line, want) in cases {
            let cause = match want {
                Ok(want) => {
                    assert_eq!(parse_stream_line(line), Ok(want), "{line}");
                    continue;
                }
                Err(cause) => cause,
            };
            let err = parse_stream_line(line).unwrap_err();
            assert!(
                err.starts_with(&format!("unrecognized stream line: {cause}")),
                "{line}: {err}"
            );
            assert!(err.ends_with(&format!(": {line}")), "{err}");
        }
    }
}
