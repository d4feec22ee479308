//! A minimal blocking client for the serve protocol: one connection, one
//! request line, one reply line or a stream of them — plus one
//! bounded-retry loop, for both shapes, over the two *transient* failure
//! shapes a fleet client meets in practice:
//! connection-level errors (a shard restarting, a router not yet bound)
//! and typed `busy` replies (admission queue full).
//!
//! Retries use exponential backoff with deterministic jitter: the jitter
//! sequence is drawn from a caller-supplied seed, so tests can pin the
//! exact sleep schedule and two clients with different seeds never
//! thundering-herd in lockstep. A `busy` reply's `retry_after_ms` hint
//! takes precedence over the backoff when it is larger.

use crate::protocol;
use sampsim_util::rng::SplitMix64;
use std::cell::Cell;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Sends one request line to `addr` and returns the reply line (without
/// the trailing newline). No retries — see [`request_line_with_retry`].
///
/// # Errors
///
/// Returns the underlying I/O error on connection failure, or
/// `UnexpectedEof` when the server closes without replying.
pub fn request_line(addr: &str, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply)?;
    while reply.ends_with('\n') || reply.ends_with('\r') {
        reply.pop();
    }
    if reply.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "server closed the connection without replying",
        ));
    }
    Ok(reply)
}

/// Sends one request line and reads a *stream* of reply lines (the
/// `suite` batch op): every line before the last is handed to
/// `on_line`, and the final line — the stream's summary, or the single
/// error reply of a refused request — is returned. The stream ends at
/// a `suite` summary line or at EOF.
///
/// # Errors
///
/// Returns the underlying I/O error, or `UnexpectedEof` when the server
/// closes without sending any reply line.
pub fn request_stream(
    addr: &str,
    line: &str,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(600)))?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    let mut reader = BufReader::new(stream);
    let mut last: Option<String> = None;
    loop {
        let mut reply = String::new();
        let n = reader.read_line(&mut reply)?;
        if n == 0 {
            return last.ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection without replying",
                )
            });
        }
        let reply = reply.trim_end_matches(['\r', '\n']).to_string();
        if protocol::is_suite_summary(&reply) {
            if let Some(prev) = last.take() {
                on_line(&prev);
            }
            return Ok(reply);
        }
        if let Some(prev) = last.replace(reply) {
            on_line(&prev);
        }
    }
}

/// Bounded-retry policy for [`request_line_with_retry`] and
/// [`request_stream_with_retry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (>= 1); `1` disables retries entirely.
    pub attempts: u32,
    /// Backoff before the first retry, in milliseconds; doubles per
    /// retry.
    pub base_ms: u64,
    /// Cap on any single backoff (pre-jitter), in milliseconds.
    pub max_ms: u64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

/// The default client policy: 4 attempts, 25 ms → 50 ms → 100 ms
/// backoff (plus jitter), fixed seed.
pub const DEFAULT_RETRY: RetryPolicy = RetryPolicy {
    attempts: 4,
    base_ms: 25,
    max_ms: 2_000,
    seed: 0x5a3b_9e1d_c07f_4421,
};

impl RetryPolicy {
    /// A policy that never retries.
    pub const fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base_ms: 0,
            max_ms: 0,
            seed: 0,
        }
    }

    /// The deterministic backoff schedule in milliseconds: one entry per
    /// *retry* (so `attempts - 1` entries), each `min(base · 2ⁱ, max)`
    /// plus a jitter draw in `[0, backoff/2]` from the seeded stream.
    /// Pure — tests pin the exact sleeps a client will perform.
    pub fn backoff_schedule_ms(&self) -> Vec<u64> {
        let mut rng = SplitMix64::new(self.seed);
        (0..self.attempts.saturating_sub(1))
            .map(|i| {
                let backoff = self
                    .base_ms
                    .saturating_mul(1u64 << i.min(32))
                    .min(self.max_ms);
                let jitter = if backoff == 0 {
                    0
                } else {
                    rng.next_u64() % (backoff / 2 + 1)
                };
                backoff + jitter
            })
            .collect()
    }
}

/// The outcome of a retried request, for callers that report attempts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetriedReply {
    /// The final reply line.
    pub reply: String,
    /// Attempts actually made (1 = first try succeeded).
    pub attempts: u32,
}

/// [`request_line`] with bounded retry on *transient* failures: any
/// connection-level I/O error, and `busy` replies (which carry a server
/// `retry_after_ms` hint; the sleep is the larger of the hint and the
/// policy's backoff). Non-busy error replies — `bad-request`,
/// `invalid-config`, `unknown-bench`, `internal`, `degraded` — are
/// definitive answers and are returned immediately, never retried.
///
/// # Errors
///
/// Returns the last I/O error once the attempt budget is exhausted. A
/// `busy` reply that survives every attempt is returned as `Ok` (it is a
/// well-formed reply; callers treat it like any other error reply).
pub fn request_line_with_retry(
    addr: &str,
    line: &str,
    policy: &RetryPolicy,
) -> std::io::Result<RetriedReply> {
    retry(policy, || true, || request_line(addr, line))
}

/// [`request_stream`] with the retries of [`request_line_with_retry`],
/// taken only while no item line has reached `on_line`: a connection
/// error or a lone `busy` reply before the first item is retried, and
/// anything after it is returned as it is, so no item is delivered twice.
///
/// # Errors
///
/// As [`request_line_with_retry`]; an I/O error after the first item is
/// returned at once.
pub fn request_stream_with_retry(
    addr: &str,
    line: &str,
    policy: &RetryPolicy,
    mut on_line: impl FnMut(&str),
) -> std::io::Result<RetriedReply> {
    let delivered = Cell::new(false);
    retry(
        policy,
        || !delivered.get(),
        || {
            request_stream(addr, line, |item| {
                delivered.set(true);
                on_line(item);
            })
        },
    )
}

/// The retry loop under both reply shapes: repeats `attempt` after an I/O
/// error or a `busy` reply, sleeping the policy's backoff (or the busy
/// hint, when longer), while attempts remain and `may_retry` allows it.
fn retry(
    policy: &RetryPolicy,
    may_retry: impl Fn() -> bool,
    mut attempt: impl FnMut() -> std::io::Result<String>,
) -> std::io::Result<RetriedReply> {
    let schedule = policy.backoff_schedule_ms();
    let attempts = policy.attempts.max(1);
    let mut made = 1;
    loop {
        let outcome = attempt();
        let hint_ms = match &outcome {
            Ok(reply) => protocol::busy_retry_after(reply),
            Err(_) => Some(0),
        };
        match hint_ms {
            Some(hint_ms) if made < attempts && may_retry() => {
                let backoff = schedule.get(made as usize - 1).copied().unwrap_or(0);
                std::thread::sleep(Duration::from_millis(backoff.max(hint_ms)));
                made += 1;
            }
            _ => {
                return outcome.map(|reply| RetriedReply {
                    reply,
                    attempts: made,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn quick_policy(attempts: u32) -> RetryPolicy {
        RetryPolicy {
            attempts,
            base_ms: 1,
            max_ms: 4,
            seed: 42,
        }
    }

    /// One-line reply server: answers each accepted connection with the
    /// next scripted line, then exits.
    fn scripted_server(replies: Vec<String>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || {
            for reply in replies {
                let (mut stream, _) = listener.accept().unwrap();
                // Read (and discard) the request line first.
                let mut buf = String::new();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                reader.read_line(&mut buf).unwrap();
                stream.write_all(reply.as_bytes()).unwrap();
                stream.write_all(b"\n").unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn schedule_is_deterministic_and_bounded() {
        let policy = RetryPolicy {
            attempts: 5,
            base_ms: 25,
            max_ms: 60,
            seed: 7,
        };
        let a = policy.backoff_schedule_ms();
        let b = policy.backoff_schedule_ms();
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), 4);
        // Entry i is min(25·2^i, 60) plus jitter in [0, backoff/2].
        for (i, &ms) in a.iter().enumerate() {
            let backoff = (25u64 << i).min(60);
            assert!(
                ms >= backoff && ms <= backoff + backoff / 2,
                "entry {i}: {ms}"
            );
        }
        // A different seed jitters differently (overwhelmingly likely).
        let other = RetryPolicy { seed: 8, ..policy };
        assert_ne!(a, other.backoff_schedule_ms());
        assert!(RetryPolicy::none().backoff_schedule_ms().is_empty());
    }

    #[test]
    fn busy_replies_are_retried_until_success() {
        let (addr, server) = scripted_server(vec![
            protocol::busy_reply(4),
            protocol::busy_reply(4),
            protocol::pong_reply(),
        ]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(4)).unwrap();
        assert_eq!(got.reply, protocol::pong_reply());
        assert_eq!(got.attempts, 3);
        server.join().unwrap();
    }

    #[test]
    fn busy_after_exhausted_attempts_is_returned_not_an_error() {
        let (addr, server) =
            scripted_server(vec![protocol::busy_reply(4), protocol::busy_reply(4)]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(2)).unwrap();
        assert!(protocol::is_error_reply(&got.reply));
        assert_eq!(got.attempts, 2);
        server.join().unwrap();
    }

    #[test]
    fn definitive_error_replies_are_never_retried() {
        let (addr, server) = scripted_server(vec![protocol::error_reply("bad-request", "nope")]);
        let got = request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(4)).unwrap();
        assert_eq!(got.attempts, 1, "bad-request is definitive");
        assert!(got.reply.contains("bad-request"));
        server.join().unwrap();
    }

    #[test]
    fn connect_failures_retry_then_surface_the_io_error() {
        // Bind then drop: the port is (momentarily) certainly dead.
        let addr = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        let err =
            request_line_with_retry(&addr, "{\"op\":\"ping\"}", &quick_policy(3)).unwrap_err();
        // Three connect attempts, all refused; the last error surfaces.
        assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    }

    #[test]
    fn a_stream_retries_a_lone_busy_reply_and_delivers_each_item_once() {
        let summary = protocol::suite_summary_line(2, 0);
        let (addr, server) = scripted_server(vec![
            protocol::busy_reply(1),
            format!("{{\"item\":1}}\n{{\"item\":2}}\n{summary}"),
        ]);
        let mut items = Vec::new();
        let got = request_stream_with_retry(&addr, "{}", &quick_policy(4), |item| {
            items.push(item.to_string())
        })
        .unwrap();
        assert_eq!((got.reply, got.attempts), (summary, 2));
        assert_eq!(items, ["{\"item\":1}", "{\"item\":2}"]);
        server.join().unwrap();
    }

    #[test]
    fn a_stream_is_never_retried_after_its_first_item() {
        // One item, then a busy line: retrying would deliver the item
        // again, so the busy line is the answer.
        let busy = protocol::busy_reply(1);
        let (addr, server) = scripted_server(vec![format!("{{\"item\":1}}\n{busy}")]);
        let mut items = Vec::new();
        let got = request_stream_with_retry(&addr, "{}", &quick_policy(4), |item| {
            items.push(item.to_string())
        })
        .unwrap();
        assert_eq!((got.reply, got.attempts), (busy, 1));
        assert_eq!(items, ["{\"item\":1}"]);
        server.join().unwrap();
    }

    #[test]
    fn policy_none_is_a_single_attempt() {
        let (addr, server) = scripted_server(vec![protocol::busy_reply(4)]);
        let got =
            request_line_with_retry(&addr, "{\"op\":\"ping\"}", &RetryPolicy::none()).unwrap();
        assert_eq!(got.attempts, 1);
        assert!(protocol::is_error_reply(&got.reply));
        server.join().unwrap();
    }
}
