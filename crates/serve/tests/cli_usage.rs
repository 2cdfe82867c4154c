//! Usage errors of the serve crate's command lines. `--help` (for the
//! client also after a subcommand) prints the usage to stdout and exits
//! 0; a missing or unknown subcommand, an unknown argument, or a missing
//! or bad value prints the message and the usage to stderr and exits 2.
//! None of them panics, binds a port or reaches a server.

use std::process::Command;

/// Runs `exe` with `args`; returns its status, stdout and stderr.
fn run(exe: &str, args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(exe)
        .args(args)
        .output()
        .expect("the binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    (out.status.code(), stdout, stderr)
}

/// Checks each of `help` exits 0 with the usage on stdout, and each of
/// `errors` exits 2 with `name: message` and the usage on stderr.
#[track_caller]
fn check(name: &str, exe: &str, help: &[&[&str]], errors: &[(&[&str], &str)]) {
    for args in help {
        let (status, stdout, _) = run(exe, args);
        assert_eq!(status, Some(0), "{args:?}");
        assert!(stdout.starts_with("usage:"), "{args:?}: {stdout}");
    }
    for (args, message) in errors {
        let (status, stdout, stderr) = run(exe, args);
        assert_eq!(status, Some(2), "{args:?}: {stderr}");
        assert!(stdout.is_empty(), "{args:?}: {stdout}");
        assert!(
            stderr.starts_with(&format!("{name}: ")),
            "{args:?}: {stderr}"
        );
        assert!(stderr.contains(message), "{args:?}: {stderr}");
        assert!(stderr.contains("\nusage:"), "{args:?}: {stderr}");
    }
}

#[test]
fn client_usage_errors_exit_2_and_help_exits_0() {
    check(
        "gencache-client",
        env!("CARGO_BIN_EXE_gencache-client"),
        &[&["--help"], &["submit", "--help"], &["watch", "-h"]],
        &[
            (&[], "missing subcommand"),
            (&["nope"], "unknown subcommand \"nope\""),
            (&["stats"], "stats needs --addr HOST:PORT"),
            (&["stats", "--addr"], "--addr needs HOST:PORT"),
            (&["ping", "--bogus"], "unknown argument \"--bogus\""),
            (
                &["ping", "--addr", "127.0.0.1:1", "--hold-ms", "x"],
                "--hold-ms must be an integer",
            ),
            (
                &["fetch", "--addr", "127.0.0.1:1"],
                "fetch needs --bench NAME",
            ),
            (
                &["submit", "--addr", "127.0.0.1:1"],
                "submit needs --events FILE|-",
            ),
        ],
    );
}

#[test]
fn daemon_and_router_usage_errors_exit_2_and_help_exits_0() {
    check(
        "gencache-serve",
        env!("CARGO_BIN_EXE_gencache-serve"),
        &[&["--help"]],
        &[
            (&["--bogus"], "unknown argument \"--bogus\""),
            (&["--workers"], "--workers needs a value"),
            (&["--workers", "0"], "--workers must be positive"),
            (
                &["--log-level", "loud"],
                "--log-level must be debug|info|warn|error",
            ),
        ],
    );
    check(
        "gencache-shard",
        env!("CARGO_BIN_EXE_gencache-shard"),
        &[&["--help"], &["--backend", "127.0.0.1:1", "-h"]],
        &[
            (&[], "no backends"),
            (&["--backend"], "--backend needs HOST:PORT"),
            (
                &["--backend", "127.0.0.1:1", "--replicas", "x"],
                "--replicas must be a positive integer",
            ),
        ],
    );
}
