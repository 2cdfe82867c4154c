//! Damaged whole uploads into offline ingest. A real export of two
//! benchmarks, each with two model streams, has lines flipped,
//! truncated, duplicated and spliced with another line, and whole lines
//! dropped, duplicated and swapped, before `StreamIngest::push_line`
//! reads it. No input may panic, the same bytes must always give the
//! same outcome, error text included, and the undamaged export must give
//! each benchmark the trace `reconstruct_trace` rebuilds from records
//! read through the value tree.

use std::sync::OnceLock;

use gencache_bench::ingest::StreamIngest;
use gencache_bench::stream_events_to;
use gencache_obs::{parse_stream_line_tree, reconstruct_trace, CacheEvent, SimTrace, StreamLine};
use gencache_sim::record;
use gencache_workloads::interactive_benchmark;
use proptest::prelude::*;

/// The export's lines as chars, so mutations keep them valid UTF-8:
/// `word` and `solitaire`, shortened to keep the cases quick, each
/// replayed through both export models.
fn export() -> &'static [Vec<char>] {
    static EXPORT: OnceLock<Vec<Vec<char>>> = OnceLock::new();
    EXPORT.get_or_init(|| {
        let rows: Vec<_> = ["word", "solitaire"]
            .into_iter()
            .map(|name| {
                let mut profile = interactive_benchmark(name)
                    .expect("a built-in profile")
                    .scaled_down(1024);
                profile.duration_secs = 8.0;
                let run = record(&profile).expect("calibrated profiles always plan");
                (profile, run)
            })
            .collect();
        let (bytes, _) = stream_events_to(Vec::new(), &rows).expect("a Vec never fails to write");
        String::from_utf8(bytes)
            .expect("UTF-8 export")
            .lines()
            .map(|line| line.chars().collect())
            .collect()
    })
}

fn text(lines: &[Vec<char>]) -> Vec<String> {
    lines.iter().map(|line| line.iter().collect()).collect()
}

/// What offline ingest makes of `lines`: each benchmark's trace, or the
/// first error.
fn ingest(lines: &[String]) -> Result<Vec<(String, SimTrace)>, String> {
    let mut ingest = StreamIngest::new();
    for line in lines {
        ingest.push_line(line)?;
    }
    let inputs = ingest.into_inputs(None, None, None)?;
    Ok(inputs.into_iter().map(|i| (i.name, i.trace)).collect())
}

#[test]
fn undamaged_export_gives_the_tree_readers_traces() {
    let lines = text(export());
    // Each benchmark's first model stream, read through the value tree.
    let mut streams: Vec<(String, String, Vec<CacheEvent>)> = Vec::new();
    let mut metas = 0;
    for line in &lines {
        match parse_stream_line_tree(line).expect("an undamaged line") {
            StreamLine::Header(_) => {}
            StreamLine::Meta(_) => metas += 1,
            StreamLine::Event(record) => {
                match streams.iter_mut().find(|(s, _, _)| *s == record.source) {
                    Some((_, model, events)) => {
                        if *model == record.model {
                            events.push(record.event);
                        }
                    }
                    None => streams.push((record.source, record.model, vec![record.event])),
                }
            }
        }
    }
    assert_eq!(metas, 4, "two benchmarks with two model streams each");
    let want: Vec<(String, SimTrace)> = streams
        .into_iter()
        .map(|(source, _, events)| (source, reconstruct_trace(&events).expect("a whole stream")))
        .collect();
    assert_eq!(want.len(), 2);
    assert!(want.iter().all(|(_, trace)| !trace.ops.is_empty()));
    assert_eq!(ingest(&lines), Ok(want));
}

/// Characters a mutation writes: JSON structure, number and literal
/// bytes, escapes, whitespace and multi-byte UTF-8.
const MUTANTS: [char; 24] = [
    '{', '}', '[', ']', ':', ',', '"', '\\', '0', '9', '-', '.', 'e', '+', 'n', 't', 'u', 'l', 'a',
    ' ', '\n', '\u{1}', 'é', '🦀',
];

/// One damage to a line, applied at char positions.
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

/// One edit to the upload. Line indices are taken modulo the current
/// line count.
#[derive(Debug, Clone)]
enum Edit {
    /// Damage a line, splicing from the donor line where the mutation
    /// does.
    Damage(usize, usize, Mutation),
    /// Remove a line.
    Drop(usize),
    /// Repeat a line right after itself.
    Repeat(usize),
    /// Exchange two lines.
    Swap(usize, usize),
}

fn edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        3 => (any::<usize>(), any::<usize>(), mutation())
            .prop_map(|(at, donor, m)| Edit::Damage(at, donor, m)),
        1 => any::<usize>().prop_map(Edit::Drop),
        1 => any::<usize>().prop_map(Edit::Repeat),
        1 => (any::<usize>(), any::<usize>()).prop_map(|(a, b)| Edit::Swap(a, b)),
    ]
}

fn apply(lines: &mut Vec<Vec<char>>, edit: &Edit) {
    if lines.is_empty() {
        return;
    }
    let n = lines.len();
    match edit {
        Edit::Damage(at, donor, m) => {
            let damaged = mutate(&lines[at % n], &lines[donor % n], m);
            lines[at % n] = damaged;
        }
        Edit::Drop(at) => {
            lines.remove(at % n);
        }
        Edit::Repeat(at) => {
            let line = lines[at % n].clone();
            lines.insert(at % n + 1, line);
        }
        Edit::Swap(a, b) => lines.swap(a % n, b % n),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_uploads_ingest_without_panic_and_deterministically(
        edits in proptest::collection::vec(edit(), 1..5),
    ) {
        let mut lines = export().to_vec();
        for e in &edits {
            apply(&mut lines, e);
        }
        // A flip or splice can write a newline; the upload is read line
        // by line, so the damaged text is split the same way.
        let upload: Vec<String> = text(&lines)
            .iter()
            .flat_map(|line| line.split('\n').map(str::to_string).collect::<Vec<_>>())
            .collect();
        let first = ingest(&upload);
        prop_assert_eq!(&first, &ingest(&upload), "{:?}", edits);
    }
}
