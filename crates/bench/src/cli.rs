//! Command-line usage errors for the tools that take flags.
//!
//! A parser returns [`ArgError`] instead of panicking; the binary hands
//! it to [`exit`], which prints the usage and picks the exit status:
//! `--help` prints to stdout and succeeds, a bad command line prints to
//! stderr and exits 2.

use std::process::ExitCode;
use std::str::FromStr;

/// Why a command line does not run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// `--help` (or `-h`) was given.
    Help,
    /// The arguments are wrong; the message says how.
    Usage(String),
}

/// The value after a flag, or the `missing` message as a usage error.
///
/// # Errors
///
/// [`ArgError::Usage`] when the arguments ended.
pub fn value(args: &mut impl Iterator<Item = String>, missing: &str) -> Result<String, ArgError> {
    args.next()
        .ok_or_else(|| ArgError::Usage(missing.to_string()))
}

/// `text` parsed as a `T`, or the `bad` message as a usage error.
///
/// # Errors
///
/// [`ArgError::Usage`] when `text` does not parse.
pub fn parse<T: FromStr>(text: &str, bad: &str) -> Result<T, ArgError> {
    text.parse()
        .map_err(|_| ArgError::Usage(format!("{bad}, not {text:?}")))
}

/// `Ok` when `holds`, else the `bad` message as a usage error.
///
/// # Errors
///
/// [`ArgError::Usage`] when `holds` is false.
pub fn ensure(holds: bool, bad: &str) -> Result<(), ArgError> {
    if holds {
        Ok(())
    } else {
        Err(ArgError::Usage(bad.to_string()))
    }
}

/// The usage error for an argument no flag of the tool names, or
/// [`ArgError::Help`] for `--help` and `-h`.
pub fn unknown(arg: &str) -> ArgError {
    match arg {
        "--help" | "-h" => ArgError::Help,
        other => ArgError::Usage(format!("unknown argument {other:?}")),
    }
}

/// Reports `err` for the tool `name`: `--help` prints `usage` to stdout
/// and exits 0; a usage error prints its message and `usage` to stderr
/// and exits 2.
pub fn exit(name: &str, usage: &str, err: ArgError) -> ExitCode {
    match err {
        ArgError::Help => {
            println!("{usage}");
            ExitCode::SUCCESS
        }
        ArgError::Usage(message) => {
            eprintln!("{name}: {message}\n{usage}");
            ExitCode::from(2)
        }
    }
}

/// [`exit`] for a tool whose `main` returns `()`: reports `err` the same
/// way and ends the process with the same status.
pub fn exit_now(name: &str, usage: &str, err: ArgError) -> ! {
    let status = if err == ArgError::Help { 0 } else { 2 };
    exit(name, usage, err);
    std::process::exit(status)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_name_the_flag_and_the_text() {
        let mut args = vec!["7".to_string()].into_iter();
        assert_eq!(value(&mut args, "--top needs a value"), Ok("7".into()));
        assert_eq!(
            value(&mut args, "--top needs a value"),
            Err(ArgError::Usage("--top needs a value".into()))
        );
        assert_eq!(parse::<u64>("7", "--top must be an integer"), Ok(7));
        assert_eq!(
            parse::<u64>("x", "--top must be an integer"),
            Err(ArgError::Usage(
                "--top must be an integer, not \"x\"".into()
            ))
        );
        assert_eq!(ensure(true, "bad"), Ok(()));
        assert_eq!(ensure(false, "bad"), Err(ArgError::Usage("bad".into())));
        assert_eq!(unknown("--help"), ArgError::Help);
        assert_eq!(unknown("-h"), ArgError::Help);
        assert_eq!(
            unknown("--nope"),
            ArgError::Usage("unknown argument \"--nope\"".into())
        );
    }
}
