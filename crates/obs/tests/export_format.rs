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
//! mutation test holds the two to the same answer on damaged lines. The
//! borrowed reader, [`read_event_line`], must give the same record once
//! its labels are owned, and fixed cases pin every unsigned field's
//! number forms. The prefix reader, [`read_prefixed_event`], must give
//! the dispatch's event whenever it reads a line under a stream's
//! prefix; named cases pin where it declines.

use gencache_cache::{EvictionCause, TraceId};
use gencache_obs::{
    parse_stream_line, parse_stream_line_tree, read_event_line, read_prefixed_event,
    write_event_line_prefix, CacheEvent, EventRecord, FrontendOp, JsonlSink, Observer, Region,
    RunMeta, StreamHeader, StreamLine,
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

/// Parses `line` and checks the result against the value-tree dispatch
/// and the borrowed reader.
#[track_caller]
fn parse_checked(line: &str) -> Result<StreamLine, String> {
    let parsed = parse_stream_line(line);
    assert_eq!(parsed, parse_stream_line_tree(line), "{line}");
    assert_borrowed_agrees(line, &parsed);
    parsed
}

/// Asserts that the borrowed reader gives `parsed` once its labels are
/// owned, whenever it reads `line` at all: it declines only lines that
/// are no event line, or that carry a key the dispatch tries first.
#[track_caller]
fn assert_borrowed_agrees(line: &str, parsed: &Result<StreamLine, String>) {
    if let Some(read) = read_event_line(line) {
        assert_eq!(&Ok(StreamLine::Event(read.into_record())), parsed, "{line}");
    } else if let Ok(StreamLine::Event(_)) = parsed {
        let dispatched = line.contains("\"schema\"") || line.contains("\"duration_us\"");
        assert!(dispatched, "the borrowed reader declined {line}");
    }
}

/// The prefix every event line of the `(source, model)` stream starts
/// with.
fn prefix(source: &str, model: &str) -> String {
    let mut prefix = String::new();
    write_event_line_prefix(source, model, &mut prefix);
    prefix
}

/// Reads `line` under the `(source, model)` stream's prefix and, when
/// the prefix reader accepts it, checks the dispatch reads the same
/// event with those labels. Returns whether it was accepted.
#[track_caller]
fn prefixed_checked(line: &str, source: &str, model: &str) -> bool {
    let Some(event) = read_prefixed_event(line, &prefix(source, model)) else {
        return false;
    };
    let record = EventRecord {
        source: source.to_string(),
        model: model.to_string(),
        event,
    };
    assert_eq!(parse_checked(line), Ok(StreamLine::Event(record)), "{line}");
    true
}

/// The number forms every unsigned field is tried with, and the value
/// each one reads as, if it is an integer at all.
const NUMBER_FORMS: [(&str, Option<u128>); 16] = [
    ("0", Some(0)),
    ("007", Some(7)),
    ("255", Some(255)),
    ("256", Some(256)),
    ("4294967295", Some(4_294_967_295)),
    ("4294967296", Some(4_294_967_296)),
    ("0000000000000000007", Some(7)),
    ("9999999999999999999", Some(9_999_999_999_999_999_999)),
    ("00000000000000000007", Some(7)),
    ("18446744073709551615", Some(18_446_744_073_709_551_615)),
    ("18446744073709551616", Some(18_446_744_073_709_551_616)),
    ("-0", Some(0)),
    ("-1", None),
    ("1.0", None),
    ("1e3", None),
    ("1-2", None),
];

#[test]
fn every_unsigned_field_reads_each_number_form_as_the_tree_does() {
    let time = Time::from_micros(3);
    let trace = TraceId::new(5);
    let events = [
        CacheEvent::Insert {
            region: Region::Nursery,
            trace,
            bytes: 1,
            used: 2,
            time,
        },
        CacheEvent::Hit {
            region: Region::Unified,
            trace,
            reuse_us: 4,
            time,
        },
        CacheEvent::Miss {
            trace,
            bytes: 1,
            time,
        },
        CacheEvent::Evict {
            region: Region::Probation,
            trace,
            bytes: 1,
            cause: EvictionCause::Capacity,
            age_us: 6,
            idle_us: 7,
            time,
        },
        CacheEvent::Promote {
            from: Region::Probation,
            to: Region::Persistent,
            trace,
            bytes: 1,
            time,
        },
        CacheEvent::PromotedIn {
            region: Region::Persistent,
            trace,
            bytes: 1,
            used: 2,
            time,
        },
        CacheEvent::Pin {
            region: Region::Nursery,
            trace,
            time,
        },
        CacheEvent::Noop {
            op: FrontendOp::Unpin,
            trace,
            time,
        },
        CacheEvent::PointerReset {
            region: Region::Unified,
            resets: 8,
            time,
        },
        CacheEvent::PolicySwap {
            epoch: 9,
            from: 1,
            to: 2,
            time,
        },
    ];
    let mut fields = 0;
    for line in sink_text("w", "m", &events).lines() {
        // Each `"key":digits` run is one unsigned field.
        let mut at = 0;
        while let Some(found) = line[at..].find("\":") {
            let start = at + found + 2;
            at = start;
            let digits = line[start..].bytes().take_while(u8::is_ascii_digit).count();
            if digits == 0 {
                continue;
            }
            fields += 1;
            let key_start = line[..start - 2].rfind('"').expect("a key") + 1;
            let max: u128 = match &line[key_start..start - 2] {
                "bytes" | "resets" => u32::MAX.into(),
                "from" | "to" => u8::MAX.into(),
                _ => u64::MAX.into(),
            };
            for (form, value) in NUMBER_FORMS {
                let damaged = format!("{}{form}{}", &line[..start], &line[start + digits..]);
                let parsed = parse_checked(&damaged);
                match value.filter(|&v| v <= max) {
                    Some(v) => {
                        let canonical = format!("{}{v}{}", &line[..start], &line[start + digits..]);
                        assert_eq!(parsed, parse_checked(&canonical), "{damaged}");
                        assert!(parsed.is_ok(), "{damaged}: {parsed:?}");
                    }
                    None => assert!(parsed.is_err(), "{damaged}: {parsed:?}"),
                }
            }
        }
    }
    // Every unsigned field of the ten events above was found.
    assert_eq!(fields, 32);
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
        assert!(prefixed_checked(line, "word", "45-10-45@hit1"), "{line}");
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
    let line = text.trim_end_matches('\n');
    assert!(prefixed_checked(line, "a\"b\\c\n\u{1}", "é→世🦀"));
}

#[test]
fn prefix_reader_declines_what_it_does_not_fully_read() {
    let hit = CacheEvent::Hit {
        region: Region::Unified,
        trace: TraceId::new(42),
        reuse_us: 0,
        time: Time::from_micros(7),
    };
    let event = r#"{"Hit":{"region":"Unified","trace":42,"reuse_us":0,"time":7}}"#;
    let (source, model) = ("word", "unified");
    let line = format!("{}{event}}}", prefix(source, model));
    let record = |source: &str, model: &str| EventRecord {
        source: source.into(),
        model: model.into(),
        event: hit,
    };
    assert!(prefixed_checked(&line, source, model));

    // Trailing whitespace, and whitespace before the closing brace, are
    // read as the dispatch reads them.
    for spaced in [
        format!("{line} "),
        format!("{line}\t\r"),
        line.replace("}}}", "}} }"),
    ] {
        assert!(prefixed_checked(&spaced, source, model), "{spaced}");
    }

    // A key after the event goes to the dispatch: a repeated label (the
    // first occurrence wins), and the keys it tries first.
    let open = &line[..line.len() - 1];
    let cases = [
        (
            format!(r#"{open},"source":"other"}}"#),
            Ok(StreamLine::Event(record(source, model))),
        ),
        (
            format!(r#"{open},"model":"45-10-45@hit1","source":"x"}}"#),
            Ok(StreamLine::Event(record(source, model))),
        ),
        (
            format!(r#"{open},"schema":"gencache-events","version":2}}"#),
            Ok(StreamLine::Header(StreamHeader::current())),
        ),
        (
            format!(r#"{open},"duration_us":5,"peak_trace_bytes":6,"phases":1}}"#),
            Ok(StreamLine::Meta(RunMeta {
                source: source.into(),
                model: model.into(),
                duration_us: 5,
                peak_trace_bytes: 6,
                phases: 1,
            })),
        ),
        (
            format!(r#"{open},"duration_us":5}}"#),
            Ok(StreamLine::Event(record(source, model))),
        ),
        (
            format!(r#"{open},"extra":[1]}}"#),
            Ok(StreamLine::Event(record(source, model))),
        ),
        (format!("{line}}}"), Err(())),
        (format!("{line},"), Err(())),
        (format!("{open},}}"), Err(())),
        (open.to_string(), Err(())),
    ];
    for (text, want) in cases {
        assert_eq!(
            read_prefixed_event(&text, &prefix(source, model)),
            None,
            "{text}"
        );
        let parsed = parse_checked(&text);
        match want {
            Ok(want) => assert_eq!(parsed, Ok(want), "{text}"),
            Err(()) => assert!(parsed.is_err(), "{text}: {parsed:?}"),
        }
    }

    // Escaped and multi-byte labels match only as the writer escapes
    // them; the same labels written another way go to the dispatch.
    let (odd_source, odd_model) = ("tr\"a\\ce\u{1}", "é→世🦀");
    let odd = format!("{}{event}}}", prefix(odd_source, odd_model));
    assert!(prefixed_checked(&odd, odd_source, odd_model));
    let rewritten = format!(r#"{{"source":"w\u006frd","model":"unified","event":{event}}}"#);
    assert_eq!(
        read_prefixed_event(&rewritten, &prefix(source, model)),
        None
    );
    assert_eq!(
        parse_checked(&rewritten),
        Ok(StreamLine::Event(record(source, model)))
    );

    // A stream change whose new prefix differs from the old one only
    // after the source: the old prefix declines every line of the new
    // stream, as it does a model that extends the old label.
    for other in ["unified2", "unifie", "45-10-45@hit1"] {
        let next = format!("{}{event}}}", prefix(source, other));
        assert_eq!(read_prefixed_event(&next, &prefix(source, model)), None);
        assert!(prefixed_checked(&next, source, other));
    }
    // An empty prefix is no stream's and matches nothing.
    assert_eq!(read_prefixed_event(event, ""), None);
    assert_eq!(read_prefixed_event(&line, ""), None);
}

#[test]
fn prefix_reader_keeps_the_line_depth_bound() {
    // An unknown key inside the event, holding arrays nested so that the
    // event reaches exactly `MAX_DEPTH` containers (line depth one more):
    // refused by both readers, as by the dispatch. One array less is
    // read by all three.
    let (source, model) = ("word", "unified");
    for (arrays, accepted) in [(serde::MAX_DEPTH - 2, false), (serde::MAX_DEPTH - 3, true)] {
        let nested = format!("{}{}", "[".repeat(arrays), "]".repeat(arrays));
        let event = format!(
            r#"{{"Hit":{{"region":"Unified","trace":42,"reuse_us":0,"time":7,"deep":{nested}}}}}"#
        );
        let line = format!("{}{event}}}", prefix(source, model));
        assert_eq!(
            prefixed_checked(&line, source, model),
            accepted,
            "{arrays} arrays"
        );
        assert_eq!(
            read_event_line(&line).is_some(),
            accepted,
            "{arrays} arrays"
        );
        assert_eq!(parse_checked(&line).is_ok(), accepted, "{arrays} arrays");
        // The event alone, read from its own start, fits either way.
        assert!(serde_json::from_str::<CacheEvent>(&event).is_ok());
    }
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
            let line = line.trim_end_matches('\n');
            prop_assert_eq!(parse_checked(line), Ok(StreamLine::Event(record)));
            prop_assert!(prefixed_checked(line, &source, &model), "{}", line);
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
        let stream_prefix = prefix(&source, &model);
        for (line, donor) in picks {
            let line = &lines[line % lines.len()];
            let donor = &lines[donor % lines.len()];
            let mut damaged = line.clone();
            for m in &mutations {
                damaged = mutate(&damaged, donor, m);
                let text: String = damaged.iter().collect();
                let (direct, tree) = (parse_stream_line(&text), parse_stream_line_tree(&text));
                prop_assert!(direct == tree, "{text}: {direct:?} vs {tree:?}");
                if let Some(read) = read_event_line(&text) {
                    let borrowed = Ok(StreamLine::Event(read.into_record()));
                    prop_assert!(borrowed == tree, "{text}: {borrowed:?} vs {tree:?}");
                }
                // The undamaged line's stream prefix: every line here is
                // of the one `(source, model)` stream.
                if let Some(event) = read_prefixed_event(&text, &stream_prefix) {
                    let record = EventRecord { source: source.clone(), model: model.clone(), event };
                    let prefixed = Ok(StreamLine::Event(record));
                    prop_assert!(prefixed == tree, "{text}: {prefixed:?} vs {tree:?}");
                }
            }
        }
    }
}
