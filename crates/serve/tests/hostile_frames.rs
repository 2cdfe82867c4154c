//! Damaged control frames: every request and reply frame kind, flipped,
//! truncated, duplicated and spliced with another frame, must decode
//! without a panic, and the same bytes must always give the same
//! result, error text included.

use gencache_serve::proto::{
    encode_busy, encode_end, encode_error, encode_fetch, encode_job, encode_metrics,
    encode_metrics_request, encode_ping, encode_pong, encode_result, encode_route,
    encode_route_request, encode_shards, encode_shards_request, encode_stats, encode_stats_request,
    encode_trace, encode_trace_request, encode_watch, encode_watch_request, parse_reply,
    parse_request,
};
use gencache_serve::{JobSpec, WatchRow};
use proptest::prelude::*;
use serde::Value;

/// One frame of every kind the daemons and the client exchange, with
/// escaped and multi-byte text where a frame carries any.
fn frames() -> Vec<Vec<char>> {
    let job = JobSpec {
        specs: vec!["45-10-45@hit1".to_string(), "adaptive".to_string()],
        grid: true,
        oracle: true,
        windows: true,
        window_width: Some(64),
        regret_top: Some(8),
        capacity: Some(4096),
        bench: Some("wörd \"q\"".to_string()),
        model: Some("unified".to_string()),
        deadline_ms: Some(200),
        trace_id: Some("dead1e55dead1e55".to_string()),
    };
    let doc = Value::Object(vec![
        (
            "schema".to_string(),
            Value::Str("gencache-metrics".to_string()),
        ),
        (
            "suite".to_string(),
            Value::Array(vec![Value::UInt(1), Value::Float(0.5)]),
        ),
    ]);
    let row = WatchRow {
        node: "127.0.0.1:7000".to_string(),
        uptime_ms: 1_000,
        window_ms: 500,
        jobs_per_sec: 2.5,
        shed_per_sec: 0.0,
        in_flight: 1,
        queue_depth: 2,
        p50_us: 300,
        p99_us: 9_000,
        jobs_total: 7,
        window_miss_rate: 0.125,
        drift_events: 3,
    };
    [
        encode_job(&job),
        encode_job(&JobSpec::default()),
        encode_end(12),
        encode_stats_request(),
        encode_ping(5),
        encode_shards_request(),
        encode_route_request("word"),
        encode_trace_request("dead1e55dead1e55"),
        encode_metrics_request(),
        encode_watch_request(250, 4),
        encode_fetch("solitaire", 64),
        encode_result(doc.clone(), "bench  miss%\nword   1.25\n", 1, 2, 3_456),
        encode_busy(4),
        encode_error("deadline exceeded during ingest"),
        encode_stats(doc.clone()),
        encode_pong(),
        encode_shards(Value::Array(vec![doc.clone()])),
        encode_route("word", "127.0.0.1:7001"),
        encode_trace("dead1e55dead1e55", Value::Array(vec![doc])),
        encode_metrics(
            "# TYPE gencache_jobs_completed_total counter\ngencache_jobs_completed_total 1\n",
        ),
        encode_watch("router", 3, &[row.clone(), row]),
    ]
    .iter()
    .map(|frame| frame.chars().collect())
    .collect()
}

/// Characters a mutation writes: JSON structure, number and literal
/// bytes, escapes, whitespace and multi-byte UTF-8.
const MUTANTS: [char; 24] = [
    '{', '}', '[', ']', ':', ',', '"', '\\', '0', '9', '-', '.', 'e', '+', 'n', 't', 'u', 'l', 'a',
    ' ', '\n', '\u{1}', 'é', '🦀',
];

/// One damage to a frame, applied at char positions so the result stays
/// valid UTF-8.
#[derive(Debug, Clone)]
enum Mutation {
    /// Replace the char at a position.
    Flip(usize, usize),
    /// Keep a prefix.
    Truncate(usize),
    /// Repeat a range right after itself.
    Duplicate(usize, usize),
    /// Insert a range of another frame at a position.
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

fn mutate(frame: &[char], donor: &[char], m: &Mutation) -> Vec<char> {
    let mut out = frame.to_vec();
    let pos = |at: usize, chars: &[char]| at % (chars.len() + 1);
    match *m {
        Mutation::Flip(at, c) if !out.is_empty() => {
            let at = at % out.len();
            out[at] = MUTANTS[c];
        }
        Mutation::Flip(..) => {}
        Mutation::Truncate(at) => out.truncate(pos(at, frame)),
        Mutation::Duplicate(at, len) => {
            let at = pos(at, frame);
            let end = (at + len).min(frame.len());
            out.splice(end..end, frame[at..end].iter().copied());
        }
        Mutation::Splice(at, from, len) => {
            let from = pos(from, donor);
            let end = (from + len).min(donor.len());
            let at = pos(at, frame);
            out.splice(at..at, donor[from..end].iter().copied());
        }
    }
    out
}

#[test]
fn every_undamaged_frame_decodes() {
    for frame in frames() {
        let text: String = frame.iter().collect();
        assert!(
            parse_request(&text).is_ok() || parse_reply(&text).is_ok(),
            "{text}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn damaged_frames_decode_without_panic_and_deterministically(
        picks in proptest::collection::vec((any::<usize>(), any::<usize>()), 1..4),
        mutations in proptest::collection::vec(mutation(), 1..4),
    ) {
        let frames = frames();
        for (frame, donor) in picks {
            let frame = &frames[frame % frames.len()];
            let donor = &frames[donor % frames.len()];
            let mut damaged = frame.clone();
            for m in &mutations {
                damaged = mutate(&damaged, donor, m);
                let text: String = damaged.iter().collect();
                let request = format!("{:?}", parse_request(&text));
                prop_assert_eq!(&request, &format!("{:?}", parse_request(&text)), "{}", text);
                let reply = format!("{:?}", parse_reply(&text));
                prop_assert_eq!(&reply, &format!("{:?}", parse_reply(&text)), "{}", text);
            }
        }
    }
}
