//! Client-side protocol driver: connect, stream, read one reply.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{Shutdown, TcpStream};

use std::time::Instant;

use crate::proto::{
    encode_end, encode_fetch, encode_job, encode_metrics_request, encode_ping,
    encode_route_request, encode_shards_request, encode_stats_request, encode_trace_request,
    encode_watch_request, is_control_line, parse_reply, parse_request, JobSpec, Reply, Request,
    WatchRow,
};
use crate::retry::RetryPolicy;
use crate::server::CHUNK_BYTES;
use crate::signal;
use crate::telemetry::{Logger, Span, Telemetry};

/// A handle on one daemon address. Each call opens its own connection —
/// the protocol is one request–reply conversation per connection.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
    timeout: Option<std::time::Duration>,
}

impl Client {
    /// A client for the daemon at `addr` (`host:port`).
    pub fn new(addr: impl Into<String>) -> Self {
        Client {
            addr: addr.into(),
            timeout: None,
        }
    }

    /// Like [`new`](Client::new), but every socket read carries
    /// `timeout` — how the fleet router keeps a hung shard from pinning
    /// a dispatch thread. Replies slower than the timeout surface as
    /// `WouldBlock`/`TimedOut` errors, so budget for the job, not just
    /// the network.
    pub fn with_timeout(addr: impl Into<String>, timeout: std::time::Duration) -> Self {
        Client {
            addr: addr.into(),
            timeout: Some(timeout),
        }
    }

    fn connect(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(&self.addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(self.timeout)?;
        Ok(stream)
    }

    /// Submits a simulation job: the job header, then every line of the
    /// export read from `reader`, then the `end` frame. Returns the
    /// server's reply (`Result`, `Busy`, or `Error`).
    ///
    /// A mid-upload write failure is tolerated: the server may already
    /// have shed the job with `busy` or failed it with `error`, so the
    /// client switches to reading the reply instead of propagating the
    /// broken pipe.
    ///
    /// # Errors
    ///
    /// Returns connection failures, local read failures, and a protocol
    /// violation in the reply.
    pub fn submit(&self, reader: impl BufRead, spec: &JobSpec) -> io::Result<Reply> {
        let stream = self.connect()?;
        upload(&stream, reader, spec, &mut Sent::default())?;
        read_reply(stream)
    }

    /// Like [`submit`](Client::submit), but retries `busy` replies under
    /// `policy` (capped exponential backoff, deterministic delays). The
    /// upload must be re-sent on every attempt, so the caller provides a
    /// factory that reopens the export; anything other than `busy` —
    /// success, error, connection failure — returns immediately.
    ///
    /// # Errors
    ///
    /// As [`submit`](Client::submit); a still-busy server after the last
    /// attempt returns the final [`Reply::Busy`] for the caller to
    /// report.
    pub fn submit_with_retry<R: BufRead>(
        &self,
        mut open: impl FnMut() -> io::Result<R>,
        spec: &JobSpec,
        policy: &RetryPolicy,
    ) -> io::Result<Reply> {
        let mut attempt = 0u32;
        loop {
            let reply = self.submit(open()?, spec)?;
            match reply {
                Reply::Busy { .. } if attempt < policy.retries => {
                    std::thread::sleep(policy.delay(attempt));
                    attempt += 1;
                }
                other => return Ok(other),
            }
        }
    }

    /// Like [`submit`](Client::submit), but stamps a `trace_id` into the
    /// job frame (generating one when the spec has none) and records
    /// client-side spans — `upload` (lines/bytes sent), `reply_wait`,
    /// and the whole-`job` envelope. The spans' `start_us` offsets are
    /// relative to this call's start, node `client`.
    ///
    /// # Errors
    ///
    /// As [`submit`](Client::submit).
    pub fn submit_with_spans(
        &self,
        reader: impl BufRead,
        spec: &JobSpec,
    ) -> io::Result<(Reply, Vec<Span>)> {
        let mut spec = spec.clone();
        let trace_id = spec.stamp_trace_id();
        let tel = Telemetry::new("client", 16, Logger::disabled());
        let job_started = Instant::now();
        let stream = self.connect()?;
        let mut sent = Sent::default();
        let upload_started = Instant::now();
        upload(&stream, reader, &spec, &mut sent)?;
        if let Some(span) = tel.span(&trace_id, "upload", upload_started) {
            span.lines(sent.lines).bytes(sent.bytes).end();
        }
        let wait_started = Instant::now();
        let reply = read_reply(stream)?;
        if let Some(span) = tel.span(&trace_id, "reply_wait", wait_started) {
            span.end();
        }
        let outcome = match &reply {
            Reply::Busy { .. } => "busy".to_string(),
            Reply::Error { message } => format!("error: {message}"),
            _ => "ok".to_string(),
        };
        if let Some(span) = tel.span(&trace_id, "job", job_started) {
            span.outcome(&outcome).end();
        }
        Ok((reply, tel.spans_for(&trace_id)))
    }

    /// Requests the daemon's counter snapshot.
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn stats(&self) -> io::Result<Reply> {
        self.simple_request(&encode_stats_request())
    }

    /// Requests the retained span set for `trace_id`. A fleet router
    /// answers with its own spans stitched together with every live
    /// shard's.
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn trace(&self, trace_id: &str) -> io::Result<Reply> {
        self.simple_request(&encode_trace_request(trace_id))
    }

    /// Requests the daemon's metrics in Prometheus text exposition
    /// format.
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn metrics(&self) -> io::Result<Reply> {
        self.simple_request(&encode_metrics_request())
    }

    /// Requests a fleet router's shard table. Plain daemons answer with
    /// an `error` reply (unknown request type).
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn shards(&self) -> io::Result<Reply> {
        self.simple_request(&encode_shards_request())
    }

    /// Asks a fleet router which shard `bench` routes to.
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn route(&self, bench: &str) -> io::Result<Reply> {
        self.simple_request(&encode_route_request(bench))
    }

    /// Pings the daemon; `hold_ms > 0` keeps a worker slot busy for that
    /// long before the `pong` — the deterministic pool-filler for
    /// backpressure tests.
    ///
    /// # Errors
    ///
    /// Returns connection failures and protocol violations.
    pub fn ping(&self, hold_ms: u64) -> io::Result<Reply> {
        self.simple_request(&encode_ping(hold_ms))
    }

    fn simple_request(&self, line: &str) -> io::Result<Reply> {
        let stream = self.connect()?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writeln!(writer, "{line}")?;
        writer.flush()?;
        stream.shutdown(Shutdown::Write).ok();
        read_reply(stream)
    }

    /// Subscribes to the daemon's `watch` stream: one snapshot every
    /// `interval_ms` until `count` snapshots arrive (0 = unbounded).
    /// `on_snapshot` sees each frame's `(node, seq, rows)` and returns
    /// `false` to stop early (the client just hangs up — the stream owns
    /// no server-side worker). Returns the number of snapshots received.
    ///
    /// Interrupted reads are retried, and both an interrupt and a read
    /// timeout return cleanly once a process shutdown signal is pending
    /// — so a Ctrl-C'd dashboard never dies mid-frame with an error.
    ///
    /// # Errors
    ///
    /// Returns connection failures, an `error` reply, a read timeout
    /// with no shutdown pending, a protocol violation, or a stream that
    /// ends without its closing `end` frame.
    pub fn watch(
        &self,
        interval_ms: u64,
        count: u64,
        mut on_snapshot: impl FnMut(&str, u64, &[WatchRow]) -> bool,
    ) -> io::Result<u64> {
        let stream = self.connect()?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writeln!(writer, "{}", encode_watch_request(interval_ms, count))?;
        writer.flush()?;
        stream.shutdown(Shutdown::Write).ok();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut received = 0u64;
        loop {
            line.clear();
            match reader.read_line(&mut line) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "watch stream ended without an end frame",
                    ));
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {
                    if signal::shutdown_requested() {
                        return Ok(received);
                    }
                    continue;
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if signal::shutdown_requested() {
                        return Ok(received);
                    }
                    return Err(e);
                }
                Err(e) => return Err(e),
                Ok(_) => {}
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            // `watch` names both a request and a reply frame, so replies
            // are tried first; only the terminating `end` falls through.
            match parse_reply(trimmed) {
                Ok(Reply::Watch { node, seq, rows }) => {
                    received += 1;
                    if !on_snapshot(&node, seq, &rows) {
                        return Ok(received);
                    }
                }
                Ok(Reply::Error { message }) => return Err(io::Error::other(message)),
                Ok(other) => {
                    return Err(io::Error::other(format!(
                        "unexpected frame in watch stream: {other:?}"
                    )));
                }
                Err(_) => match parse_request(trimmed) {
                    Ok(Request::End { .. }) => return Ok(received),
                    _ => {
                        return Err(io::Error::other(format!(
                            "unexpected frame in watch stream: {trimmed}"
                        )));
                    }
                },
            }
        }
    }

    /// One-shot watch: samples the daemon's service rates over a single
    /// `interval_ms` window and returns that snapshot's rows. This is
    /// how the fleet router collects each shard's row per tick.
    ///
    /// # Errors
    ///
    /// As [`watch`](Client::watch), plus an empty stream.
    pub fn watch_once(&self, interval_ms: u64) -> io::Result<Vec<WatchRow>> {
        let mut out: Vec<WatchRow> = Vec::new();
        self.watch(interval_ms, 1, |_, _, rows| {
            out = rows.to_vec();
            false
        })?;
        if out.is_empty() {
            return Err(io::Error::other("watch returned no snapshot"));
        }
        Ok(out)
    }

    /// Asks the daemon to record `bench` at `scale` server-side and
    /// streams the resulting v2 export into `out`. Returns the number of
    /// export lines written.
    ///
    /// # Errors
    ///
    /// Returns connection failures, a `busy`/`error` reply, a line-count
    /// mismatch against the closing `end` frame, or a stream that ends
    /// without one.
    pub fn fetch(&self, bench: &str, scale: u64, mut out: impl Write) -> io::Result<u64> {
        let stream = self.connect()?;
        let mut writer = BufWriter::new(stream.try_clone()?);
        writeln!(writer, "{}", encode_fetch(bench, scale))?;
        writer.flush()?;
        stream.shutdown(Shutdown::Write).ok();
        let mut reader = BufReader::new(stream);
        let mut line = String::new();
        let mut forwarded = 0u64;
        loop {
            line.clear();
            if reader.read_line(&mut line)? == 0 {
                return Err(io::Error::other(
                    "download ended without an end frame (truncated)",
                ));
            }
            let trimmed = line.trim_end_matches(['\r', '\n']);
            if is_control_line(trimmed) {
                return match parse_request(trimmed) {
                    Ok(Request::End { lines }) if lines == forwarded => Ok(forwarded),
                    Ok(Request::End { lines }) => Err(io::Error::other(format!(
                        "download truncated: server sent {lines} lines, received {forwarded}"
                    ))),
                    _ => match parse_reply(trimmed) {
                        Ok(Reply::Error { message }) => Err(io::Error::other(message)),
                        Ok(Reply::Busy { queue_depth }) => Err(io::Error::other(format!(
                            "server busy (queue depth {queue_depth})"
                        ))),
                        _ => Err(io::Error::other(format!(
                            "unexpected frame in download: {trimmed}"
                        ))),
                    },
                };
            }
            out.write_all(trimmed.as_bytes())?;
            out.write_all(b"\n")?;
            forwarded += 1;
        }
    }
}

/// Export lines and bytes an upload has written so far.
#[derive(Default)]
struct Sent {
    lines: u64,
    bytes: u64,
}

/// Writes one job upload to `stream`: the job frame, every line of
/// `reader` with its `\n` or `\r\n` replaced by `\n`, and the `end`
/// frame with the line count; then closes the write side. One line
/// buffer is reused for the whole upload.
///
/// A write failure is tolerated (the server may already have answered
/// `busy` or `error`; the caller reads that reply). A line of `reader`
/// that is not UTF-8 is an `InvalidData` error.
fn upload(
    stream: &TcpStream,
    mut reader: impl BufRead,
    spec: &JobSpec,
    sent: &mut Sent,
) -> io::Result<()> {
    // Written in blocks of the daemon's read buffer, so each of its
    // reads can take a full chunk's worth of lines.
    let mut writer = BufWriter::with_capacity(CHUNK_BYTES, stream);
    let mut line = String::new();
    let mut write_all = || -> io::Result<()> {
        writeln!(writer, "{}", encode_job(spec))?;
        while reader.read_line(&mut line)? > 0 {
            let text = line
                .strip_suffix('\n')
                .map_or(line.as_str(), |l| l.strip_suffix('\r').unwrap_or(l));
            writer.write_all(text.as_bytes())?;
            writer.write_all(b"\n")?;
            sent.lines += 1;
            sent.bytes += text.len() as u64 + 1;
            line.clear();
        }
        writeln!(writer, "{}", encode_end(sent.lines))?;
        writer.flush()
    };
    match write_all() {
        Ok(()) => {}
        Err(e)
            if e.kind() == io::ErrorKind::BrokenPipe
                || e.kind() == io::ErrorKind::ConnectionReset
                || e.kind() == io::ErrorKind::ConnectionAborted => {}
        Err(e) => return Err(e),
    }
    stream.shutdown(Shutdown::Write).ok();
    Ok(())
}

fn read_reply(stream: TcpStream) -> io::Result<Reply> {
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection without a reply",
        ));
    }
    parse_reply(line.trim_end_matches(['\r', '\n'])).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Runs [`upload`] over a loopback connection and returns its result,
    /// what it counted, and the bytes the peer received.
    fn uploaded(input: &[u8]) -> (io::Result<()>, u64, u64, String) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let stream = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut peer, _) = listener.accept().unwrap();
        let mut sent = Sent::default();
        let result = upload(&stream, input, &JobSpec::default(), &mut sent);
        drop(stream);
        let mut received = String::new();
        peer.read_to_string(&mut received).unwrap();
        (result, sent.lines, sent.bytes, received)
    }

    #[test]
    fn upload_normalises_line_endings_and_counts_lines() {
        let (result, lines, bytes, received) = uploaded(b"a\r\nb\n\nc\rd\r\ne");
        result.unwrap();
        assert_eq!((lines, bytes), (5, 11));
        let job = encode_job(&JobSpec::default());
        let end = encode_end(5);
        assert_eq!(received, format!("{job}\na\nb\n\nc\rd\ne\n{end}\n"));
    }

    #[test]
    fn upload_refuses_a_line_that_is_not_utf8() {
        let (result, lines, _, received) = uploaded(b"ok\n\xff\xfe\nnever\n");
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::InvalidData);
        assert_eq!(lines, 1);
        assert!(
            !received.contains("\"end\""),
            "no end frame after a bad line"
        );
    }
}
