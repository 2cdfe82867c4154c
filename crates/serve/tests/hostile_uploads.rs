//! Damaged whole uploads into offline ingest. A real export of two
//! benchmarks, each with two model streams, has lines flipped,
//! truncated, duplicated and spliced with another line, and whole lines
//! dropped, duplicated and swapped, before `StreamIngest::push_line`
//! reads it. No input may panic, the same bytes must always give the
//! same outcome, error text included, and the undamaged export must give
//! each benchmark the trace `reconstruct_trace` rebuilds from records
//! read through the value tree. The same damaged uploads also go over
//! the wire to a live daemon and to a router over two daemons.

use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::Duration;

use gencache_bench::ingest::StreamIngest;
use gencache_bench::stream_events_to;
use gencache_obs::{parse_stream_line_tree, reconstruct_trace, CacheEvent, SimTrace, StreamLine};
use gencache_serve::{
    Client, JobSpec, Reply, RetryPolicy, Server, ServerConfig, ShardConfig, ShardRouter,
};
use gencache_sim::record;
use gencache_workloads::interactive_benchmark;
use proptest::prelude::*;
use proptest::{generate_case, TestRunnerRng};

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

/// The upload `edits` make of the export. A flip or splice can write a
/// newline; the upload is read line by line, so the damaged text is
/// split the same way.
fn damaged(edits: &[Edit]) -> Vec<String> {
    let mut lines = export().to_vec();
    for e in edits {
        apply(&mut lines, e);
    }
    text(&lines)
        .iter()
        .flat_map(|line| line.split('\n').map(str::to_string).collect::<Vec<_>>())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn damaged_uploads_ingest_without_panic_and_deterministically(
        edits in proptest::collection::vec(edit(), 1..5),
    ) {
        let upload = damaged(&edits);
        let first = ingest(&upload);
        prop_assert_eq!(&first, &ingest(&upload), "{:?}", edits);
    }
}

/// Damaged uploads sent over the wire per node; each costs two jobs, so
/// the count stays small.
const LIVE_CASES: usize = 8;

/// A node's accept loop on its own thread, stopped through its flag.
struct Live {
    addr: String,
    flag: Arc<AtomicBool>,
    handle: JoinHandle<io::Result<()>>,
}

impl Live {
    fn daemon() -> Live {
        let server = Server::bind(&ServerConfig {
            workers: Some(2),
            queue_depth: Some(16),
            ..ServerConfig::default()
        })
        .expect("bind ephemeral port");
        Live {
            addr: server.local_addr().unwrap().to_string(),
            flag: server.shutdown_flag(),
            handle: std::thread::spawn(move || server.run()),
        }
    }

    fn router(backends: &[Live]) -> Live {
        let router = ShardRouter::bind(&ShardConfig {
            backends: backends.iter().map(|b| b.addr.clone()).collect(),
            // No health ping marks a slow debug-build shard down mid-run.
            health_interval: Duration::from_secs(600),
            retry: RetryPolicy::new(8, 250),
            read_timeout: Duration::from_secs(60),
            ..ShardConfig::default()
        })
        .expect("bind router");
        Live {
            addr: router.local_addr().unwrap().to_string(),
            flag: router.shutdown_flag(),
            handle: std::thread::spawn(move || router.run()),
        }
    }

    /// What the node answers `upload` with: the doc and tables of a
    /// result, or the error text.
    fn reply(&self, upload: &[String]) -> Result<String, String> {
        let body: String = upload.iter().map(|l| format!("{l}\n")).collect();
        match Client::new(self.addr.as_str()).submit(body.as_bytes(), &JobSpec::default()) {
            Ok(Reply::Result { doc, table, .. }) => Ok(format!("{doc}\n{table}")),
            Ok(Reply::Error { message }) => Err(message),
            other => panic!(
                "{}: expected a result or an error, got {other:?}",
                self.addr
            ),
        }
    }

    fn stats(&self) -> String {
        match Client::new(self.addr.as_str()).stats() {
            Ok(Reply::Stats { doc }) => doc,
            other => panic!("{}: stats got {other:?}", self.addr),
        }
    }

    fn stop(self) {
        self.flag.store(true, Ordering::SeqCst);
        self.handle
            .join()
            .expect("node thread panicked")
            .expect("accept loop failed");
    }
}

#[test]
fn damaged_uploads_are_answered_live_by_a_daemon_and_a_router() {
    let solo = Live::daemon();
    let backends = vec![Live::daemon(), Live::daemon()];
    let router = Live::router(&backends);
    let mut rng = TestRunnerRng::for_test("damaged_uploads_live");
    let edits = proptest::collection::vec(edit(), 1..5);
    for case in 0..LIVE_CASES {
        let edits = generate_case(&edits, &mut rng);
        let upload = damaged(&edits);
        for node in [&solo, &router] {
            let first = node.reply(&upload);
            assert_eq!(
                first,
                node.reply(&upload),
                "case {case} at {}: {edits:?}",
                node.addr
            );
            match Client::new(node.addr.as_str()).ping(0) {
                Ok(Reply::Pong) => {}
                other => panic!("case {case} at {}: ping got {other:?}", node.addr),
            }
        }
    }
    for node in [&solo, &router].into_iter().chain(&backends) {
        let stats = node.stats();
        assert!(
            stats.contains("\"jobs_panicked\":0,"),
            "{}: {stats}",
            node.addr
        );
    }
    router.stop();
    for node in backends.into_iter().chain([solo]) {
        node.stop();
    }
}
