//! Usage errors of the `explain`, `simulate`, `delta` and figure-binary
//! command lines: `--help` prints the usage to stdout and exits 0; an
//! unknown argument, a missing or bad value, or a missing required flag
//! prints the message and the usage to stderr and exits 2. None of them
//! panics.

use std::process::Command;

/// Runs `exe` with `args` and checks the exit status and where the
/// usage went; returns stderr.
#[track_caller]
fn usage(exe: &str, args: &[&str], status: i32) -> String {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary runs");
    let (stdout, stderr) = (
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    assert_eq!(out.status.code(), Some(status), "{args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    let usage_in = if status == 0 { &stdout } else { &stderr };
    assert!(
        usage_in.starts_with("usage:") || usage_in.contains("\nusage:"),
        "{args:?}: {usage_in}"
    );
    stderr.into_owned()
}

#[test]
fn explain_usage_errors_exit_2_and_help_exits_0() {
    let exe = env!("CARGO_BIN_EXE_explain");
    usage(exe, &["--help"], 0);
    usage(exe, &["-h"], 0);
    let cases: [(&[&str], &str); 6] = [
        (&["--nope"], "unknown argument \"--nope\""),
        (&["--top"], "--top needs a value"),
        (
            &["--top", "x"],
            "--top must be a non-negative integer, not \"x\"",
        ),
        (&["--scale", "0"], "--scale must be positive"),
        (
            &["--bench", "no-such-benchmark"],
            "unknown benchmark \"no-such-benchmark\"",
        ),
        (&["--spec", "no-such-spec"], "no-such-spec"),
    ];
    for (args, message) in cases {
        let stderr = usage(exe, args, 2);
        assert!(stderr.starts_with("explain: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn simulate_usage_errors_exit_2_and_help_exits_0() {
    let exe = env!("CARGO_BIN_EXE_simulate");
    usage(exe, &["--help"], 0);
    usage(exe, &["--events", "-", "--help"], 0);
    let cases: [(&[&str], &str); 5] = [
        (&[], "--events FILE is required"),
        (&["--events"], "--events needs a file path"),
        (
            &["--events", "x.jsonl", "--nope"],
            "unknown argument \"--nope\"",
        ),
        (
            &["--events", "x.jsonl", "--jobs", "0"],
            "--jobs must be positive",
        ),
        (
            &["--events", "x.jsonl", "--tolerance", "much"],
            "--tolerance must be a number",
        ),
    ];
    for (args, message) in cases {
        let stderr = usage(exe, args, 2);
        assert!(stderr.starts_with("simulate: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn figure_binary_usage_errors_exit_2_and_help_exits_0() {
    let exe = env!("CARGO_BIN_EXE_fig9_miss_rates");
    usage(exe, &["--help"], 0);
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus"], "unknown argument \"--bogus\"; use --scale N"),
        (&["--scale"], "--scale needs a value"),
        (&["--jobs", "0"], "--jobs must be positive"),
        (&["--suite", "nope"], "unknown suite \"nope\""),
    ];
    for (args, message) in cases {
        let stderr = usage(exe, args, 2);
        assert!(
            stderr.starts_with("fig9_miss_rates: "),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn delta_usage_errors_exit_2_and_help_exits_0() {
    let exe = env!("CARGO_BIN_EXE_delta");
    usage(exe, &["--help"], 0);
    let cases: [(&[&str], &str); 4] = [
        (&["--bogus"], "unknown argument \"--bogus\"; use LEFT.jsonl"),
        (&[], "expected 1 or 2 JSONL files, got 0"),
        (&["x.jsonl", "--phases", "0"], "--phases must be positive"),
        (&["x.jsonl", "--bench"], "--bench needs a benchmark name"),
    ];
    for (args, message) in cases {
        let stderr = usage(exe, args, 2);
        assert!(stderr.starts_with("delta: "), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}
