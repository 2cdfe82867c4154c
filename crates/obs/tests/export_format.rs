//! The JSONL export line format, pinned.
//!
//! Every consumer of an export (`simulate`, `delta`, the serve daemon,
//! the fleet router) reads these bytes, and every byte-identity test
//! compares files made of them. The golden lines below fix the text
//! [`JsonlSink`] writes for each [`CacheEvent`] variant; the property
//! test checks that, for arbitrary records and labels, the sink's bytes
//! equal the generic serializer's and parse back to the same record.
//! Every parse is also checked against [`parse_stream_line_tree`], the
//! value-tree dispatch the direct event reader must agree with, and a
//! mutation test holds the two to the same answer on damaged lines.

use gencache_cache::{EvictionCause, TraceId};
use gencache_obs::{
    parse_stream_line, parse_stream_line_tree, CacheEvent, EventRecord, FrontendOp, JsonlSink,
    Observer, Region, RunMeta, StreamHeader, StreamLine,
};
use gencache_program::Time;
use proptest::prelude::*;

/// Writes `events` through a sink labelled `source`/`model` and returns
/// the text.
fn sink_text(source: &str, model: &str, events: &[CacheEvent]) -> String {
    let mut sink = JsonlSink::new(Vec::new(), source, model);
    for event in events {
        sink.on_event(event);
    }
    assert_eq!(sink.lines(), events.len() as u64);
    String::from_utf8(sink.finish().expect("a Vec never fails to write")).expect("UTF-8 export")
}

/// Parses `line` and checks the result against the value-tree dispatch.
#[track_caller]
fn parse_checked(line: &str) -> Result<StreamLine, String> {
    let parsed = parse_stream_line(line);
    assert_eq!(parsed, parse_stream_line_tree(line), "{line}");
    parsed
}

#[test]
fn every_event_variant_writes_its_golden_line() {
    let trace = TraceId::new(42);
    let time = Time::from_micros(1_000_007);
    let golden = [
        (
            CacheEvent::Insert {
                region: Region::Nursery,
                trace,
                bytes: 242,
                used: 4096,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Insert":{"region":"Nursery","trace":42,"bytes":242,"used":4096,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Hit {
                region: Region::Unified,
                trace,
                reuse_us: 0,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Hit":{"region":"Unified","trace":42,"reuse_us":0,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Miss {
                trace,
                bytes: u32::MAX,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Miss":{"trace":42,"bytes":4294967295,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Evict {
                region: Region::Probation,
                trace,
                bytes: 1,
                cause: EvictionCause::Discarded,
                age_us: u64::MAX,
                idle_us: 3,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Evict":{"region":"Probation","trace":42,"bytes":1,"cause":"Discarded","age_us":18446744073709551615,"idle_us":3,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Promote {
                from: Region::Probation,
                to: Region::Persistent,
                trace,
                bytes: 9,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Promote":{"from":"Probation","to":"Persistent","trace":42,"bytes":9,"time":1000007}}}"#,
        ),
        (
            CacheEvent::PromotedIn {
                region: Region::Persistent,
                trace,
                bytes: 9,
                used: 18,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"PromotedIn":{"region":"Persistent","trace":42,"bytes":9,"used":18,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Pin {
                region: Region::Nursery,
                trace,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Pin":{"region":"Nursery","trace":42,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Unpin {
                region: Region::Nursery,
                trace,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Unpin":{"region":"Nursery","trace":42,"time":1000007}}}"#,
        ),
        (
            CacheEvent::Noop {
                op: FrontendOp::Unmap,
                trace,
                time: Time::ZERO,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"Noop":{"op":"Unmap","trace":42,"time":0}}}"#,
        ),
        (
            CacheEvent::PointerReset {
                region: Region::Unified,
                resets: 2,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"PointerReset":{"region":"Unified","resets":2,"time":1000007}}}"#,
        ),
        (
            CacheEvent::PolicySwap {
                epoch: 17,
                from: 0,
                to: 255,
                time,
            },
            r#"{"source":"word","model":"45-10-45@hit1","event":{"PolicySwap":{"epoch":17,"from":0,"to":255,"time":1000007}}}"#,
        ),
    ];
    let events: Vec<CacheEvent> = golden.iter().map(|(event, _)| *event).collect();
    let text = sink_text("word", "45-10-45@hit1", &events);
    let want: String = golden.iter().map(|(_, line)| format!("{line}\n")).collect();
    assert_eq!(text, want);
    for (event, line) in golden {
        let record = EventRecord {
            source: "word".into(),
            model: "45-10-45@hit1".into(),
            event,
        };
        assert_eq!(parse_checked(line), Ok(StreamLine::Event(record)));
    }

    // Labels are escaped like any JSON string.
    let text = sink_text("a\"b\\c\n\u{1}", "é→世🦀", &events[..1]);
    assert_eq!(
        text,
        "{\"source\":\"a\\\"b\\\\c\\n\\u0001\",\"model\":\"é→世🦀\",\"event\":{\"Insert\":\
         {\"region\":\"Nursery\",\"trace\":42,\"bytes\":242,\"used\":4096,\"time\":1000007}}}\n"
    );
    let record = EventRecord {
        source: "a\"b\\c\n\u{1}".into(),
        model: "é→世🦀".into(),
        event: events[0],
    };
    assert_eq!(
        parse_checked(text.trim_end_matches('\n')),
        Ok(StreamLine::Event(record))
    );
}

/// Label characters: plain ASCII, every class the writer escapes, and
/// multi-byte UTF-8.
const ALPHABET: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '\n', '\t', '\u{1}', '\u{7f}', 'é', '→', '世', '🦀',
];

fn label() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ALPHABET.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

fn region() -> impl Strategy<Value = Region> {
    (0..Region::ALL.len()).prop_map(|i| Region::ALL[i])
}

fn cause() -> impl Strategy<Value = EvictionCause> {
    const CAUSES: [EvictionCause; 5] = [
        EvictionCause::Capacity,
        EvictionCause::Unmapped,
        EvictionCause::Discarded,
        EvictionCause::Flush,
        EvictionCause::Promoted,
    ];
    (0..CAUSES.len()).prop_map(|i| CAUSES[i])
}

fn frontend_op() -> impl Strategy<Value = FrontendOp> {
    const OPS: [FrontendOp; 3] = [FrontendOp::Unmap, FrontendOp::Pin, FrontendOp::Unpin];
    (0..OPS.len()).prop_map(|i| OPS[i])
}

fn trace_and_time() -> impl Strategy<Value = (TraceId, Time)> {
    (any::<u64>(), any::<u64>()).prop_map(|(id, t)| (TraceId::new(id), Time::from_micros(t)))
}

/// Every variant, with every field drawn from its full domain.
fn event() -> impl Strategy<Value = CacheEvent> {
    prop_oneof![
        (region(), trace_and_time(), any::<u32>(), any::<u64>()).prop_map(
            |(region, (trace, time), bytes, used)| {
                CacheEvent::Insert {
                    region,
                    trace,
                    bytes,
                    used,
                    time,
                }
            }
        ),
        (region(), trace_and_time(), any::<u64>()).prop_map(|(region, (trace, time), reuse_us)| {
            CacheEvent::Hit {
                region,
                trace,
                reuse_us,
                time,
            }
        }),
        (trace_and_time(), any::<u32>()).prop_map(|((trace, time), bytes)| CacheEvent::Miss {
            trace,
            bytes,
            time
        }),
        (
            region(),
            trace_and_time(),
            any::<u32>(),
            cause(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(|(region, (trace, time), bytes, cause, age_us, idle_us)| {
                CacheEvent::Evict {
                    region,
                    trace,
                    bytes,
                    cause,
                    age_us,
                    idle_us,
                    time,
                }
            }),
        (region(), region(), trace_and_time(), any::<u32>()).prop_map(
            |(from, to, (trace, time), bytes)| {
                CacheEvent::Promote {
                    from,
                    to,
                    trace,
                    bytes,
                    time,
                }
            }
        ),
        (region(), trace_and_time(), any::<u32>(), any::<u64>()).prop_map(
            |(region, (trace, time), bytes, used)| {
                CacheEvent::PromotedIn {
                    region,
                    trace,
                    bytes,
                    used,
                    time,
                }
            }
        ),
        (region(), trace_and_time()).prop_map(|(region, (trace, time))| CacheEvent::Pin {
            region,
            trace,
            time
        }),
        (region(), trace_and_time()).prop_map(|(region, (trace, time))| CacheEvent::Unpin {
            region,
            trace,
            time
        }),
        (frontend_op(), trace_and_time()).prop_map(|(op, (trace, time))| CacheEvent::Noop {
            op,
            trace,
            time
        }),
        (region(), any::<u32>(), any::<u64>()).prop_map(|(region, resets, t)| {
            CacheEvent::PointerReset {
                region,
                resets,
                time: Time::from_micros(t),
            }
        }),
        (any::<u64>(), any::<u8>(), any::<u8>(), any::<u64>()).prop_map(|(epoch, from, to, t)| {
            CacheEvent::PolicySwap {
                epoch,
                from,
                to,
                time: Time::from_micros(t),
            }
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sink_lines_equal_the_serializer_and_parse_back(
        source in label(),
        model in label(),
        events in proptest::collection::vec(event(), 1..6),
    ) {
        let text = sink_text(&source, &model, &events);
        let mut lines = text.split_inclusive('\n');
        for event in events {
            let record = EventRecord { source: source.clone(), model: model.clone(), event };
            let line = lines.next().expect("one line per event");
            prop_assert_eq!(line, serde_json::to_string(&record).unwrap() + "\n");
            let parsed = parse_checked(line.trim_end_matches('\n'));
            prop_assert_eq!(parsed, Ok(StreamLine::Event(record)));
        }
        prop_assert_eq!(lines.next(), None);
    }
}

/// Characters a mutation writes: JSON structure, number and literal
/// bytes, escapes, whitespace and multi-byte UTF-8.
const MUTANTS: [char; 24] = [
    '{', '}', '[', ']', ':', ',', '"', '\\', '0', '9', '-', '.', 'e', '+', 'n', 't', 'u', 'l', 'a',
    ' ', '\n', '\u{1}', 'é', '🦀',
];

/// One damage to a line, applied at char positions so the result stays
/// valid UTF-8.
#[derive(Debug, Clone)]
enum Mutation {
    /// Replace the char at a position.
    Flip(usize, usize),
    /// Keep a prefix.
    Truncate(usize),
    /// Repeat a range right after itself.
    Duplicate(usize, usize),
    /// Insert a range of another line at a position.
    Splice(usize, usize, usize),
}

fn mutation() -> impl Strategy<Value = Mutation> {
    prop_oneof![
        (any::<usize>(), 0..MUTANTS.len()).prop_map(|(at, c)| Mutation::Flip(at, c)),
        any::<usize>().prop_map(Mutation::Truncate),
        (any::<usize>(), 0usize..40).prop_map(|(at, len)| Mutation::Duplicate(at, len)),
        (any::<usize>(), any::<usize>(), 0usize..60)
            .prop_map(|(at, from, len)| Mutation::Splice(at, from, len)),
    ]
}

fn mutate(line: &[char], donor: &[char], m: &Mutation) -> Vec<char> {
    let mut out = line.to_vec();
    let pos = |at: usize, chars: &[char]| at % (chars.len() + 1);
    match *m {
        Mutation::Flip(at, c) if !out.is_empty() => {
            let at = at % out.len();
            out[at] = MUTANTS[c];
        }
        Mutation::Flip(..) => {}
        Mutation::Truncate(at) => out.truncate(pos(at, line)),
        Mutation::Duplicate(at, len) => {
            let at = pos(at, line);
            let end = (at + len).min(line.len());
            out.splice(end..end, line[at..end].iter().copied());
        }
        Mutation::Splice(at, from, len) => {
            let from = pos(from, donor);
            let end = (from + len).min(donor.len());
            let at = pos(at, line);
            out.splice(at..at, donor[from..end].iter().copied());
        }
    }
    out
}

/// Real export lines: a header, a meta line, and sink lines for
/// `events` under escaped and multi-byte labels.
fn export_lines(source: &str, model: &str, events: &[CacheEvent]) -> Vec<Vec<char>> {
    let header = serde_json::to_string(&StreamHeader::current()).unwrap();
    let meta = serde_json::to_string(&RunMeta {
        source: source.to_string(),
        model: model.to_string(),
        duration_us: 1_000,
        peak_trace_bytes: 4_096,
        phases: 3,
    })
    .unwrap();
    let text = sink_text(source, model, events);
    [header.as_str(), meta.as_str()]
        .into_iter()
        .chain(text.lines())
        .map(|line| line.chars().collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_lines_parse_exactly_as_the_tree_dispatch(
        source in label(),
        model in label(),
        events in proptest::collection::vec(event(), 1..4),
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..4),
        mutations in proptest::collection::vec(mutation(), 1..4),
    ) {
        let lines = export_lines(&source, &model, &events);
        for (line, donor) in picks {
            let line = &lines[line % lines.len()];
            let donor = &lines[donor % lines.len()];
            let mut damaged = line.clone();
            for m in &mutations {
                damaged = mutate(&damaged, donor, m);
                let text: String = damaged.iter().collect();
                let (direct, tree) = (parse_stream_line(&text), parse_stream_line_tree(&text));
                prop_assert!(direct == tree, "{text}: {direct:?} vs {tree:?}");
            }
        }
    }
}
