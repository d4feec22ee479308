//! `sampsim-serve` — sampling-as-a-service.
//!
//! The paper's central economics are amortization: pay for the
//! whole-program profiling pass once, then answer many questions from the
//! stored simulation points. This crate turns the deterministic pipeline
//! into a daemon that serves that consumption model: a TCP server speaking
//! line-delimited JSON ([`protocol`]), a bounded worker pool built on
//! `sampsim_exec`, a two-tier content-addressed cache ([`cache`]) that
//! memoizes both the profiling stage and whole response documents, and
//! request coalescing ([`coalesce`]) so N concurrent identical requests
//! trigger exactly one pipeline execution.
//!
//! # Determinism contract
//!
//! A `run` reply is **byte-identical to `sampsim run` stdout** for the
//! same benchmark and configuration — whether computed cold, answered
//! from the memory or disk cache, coalesced onto another request's
//! flight, or produced under a different `--jobs` value. This holds by
//! construction: both the CLI and the server render documents through
//! [`service::run_document`], responses are cached as the exact reply
//! bytes, and the pipeline itself is bit-deterministic (PR 2).
//!
//! # Lifecycle
//!
//! ```text
//! acceptor:  accept (readiness poll loop) → complete request line
//!            → bounded queue (busy when full) → worker pool
//!            → Handler::handle(line)
//! daemon:    parse → validate (analyze lints) → response cache
//!            → coalesce → pipeline
//! ```
//!
//! Everything up to the worker pool is the front end in [`acceptor`],
//! which the fleet router runs too; each server plugs in through one
//! seam, [`acceptor::Handler`], that serves one complete request line.
//! Connection intake is readiness-driven: a single poll-loop thread owns
//! every connection until its request line is complete, so an idle or
//! slow-writing client never pins a worker thread.
//!
//! Shutdown (`{"op":"shutdown"}`) is graceful: the acceptor stops taking
//! connections, drains the request lines of every already-accepted
//! connection, workers drain the queue, and [`Server::serve`] returns
//! the final [`Stats`]. Both servers' counters are declared once each
//! ([`counters`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod acceptor;
pub mod cache;
pub mod client;
pub mod coalesce;
pub mod counters;
pub mod protocol;
pub mod service;

use acceptor::{Bound, Handle, Handler};
use cache::{Tier, TieredCache};
use coalesce::{Claim, Coalescer};
use protocol::Request;
use sampsim_exec::Jobs;
use sampsim_util::json;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

/// Default listen address.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7411";
/// Default admission-queue depth.
pub const DEFAULT_QUEUE_DEPTH: usize = 32;
/// In-memory cache capacity in entries, per daemon.
const MEM_ENTRIES: usize = 256;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// On-disk cache directory (`None` = memory tier only).
    pub cache_dir: Option<PathBuf>,
    /// Worker-pool size.
    pub workers: Jobs,
    /// Admission-queue depth; connections beyond it get a `busy` reply.
    pub queue_depth: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: DEFAULT_ADDR.to_string(),
            cache_dir: None,
            workers: Jobs::Auto,
            queue_depth: DEFAULT_QUEUE_DEPTH,
        }
    }
}

crate::counter_set! {
    /// A snapshot of the server's counters, in `stats` reply order.
    pub struct Stats, live Counters {
        /// Requests handled by workers (every op, including failures).
        requests,
        /// Pipeline executions actually started (cache misses that led).
        executions,
        /// Run requests that waited on another request's flight.
        coalesced,
        /// Run responses answered from the memory tier.
        mem_hits,
        /// Run responses answered from the disk tier.
        disk_hits,
        /// Run requests that missed the response cache.
        misses,
        /// Connections refused with a `busy` reply at admission.
        busy_rejects,
        /// Profiling-stage cache hits inside the pipeline.
        stage_hits,
        /// Cache entries stored via the fleet `peer-put` warming protocol.
        peer_warms,
    }
}

impl Stats {
    /// Renders the `stats` reply line.
    pub fn to_json(&self) -> String {
        format!("{{\"ok\":\"stats\",{}}}", self.json_fields())
    }

    /// Parses a `stats` reply line back into counters — the inverse of
    /// [`Stats::to_json`], used by the fleet router to aggregate shard
    /// stats. Unknown fields are ignored (forward compatibility); a
    /// missing field reads as zero.
    pub fn from_json(line: &str) -> Option<Stats> {
        let value = json::parse(line).ok()?;
        (value.get("ok")?.as_str()? == "stats").then(|| Stats::from_fields(&value))
    }
}

/// The daemon's request handling, shared by the worker pool.
struct Shared {
    counters: Counters,
    cache: TieredCache,
    coalescer: Coalescer,
}

impl Shared {
    fn stats(&self) -> Stats {
        // The cache counts stage hits itself; the live counter stays 0.
        Stats {
            stage_hits: self.cache.stage_hits(),
            ..self.counters.snapshot()
        }
    }

    fn count_tier(&self, tier: Tier) {
        match tier {
            Tier::Memory => self.counters.mem_hits.bump(),
            Tier::Disk => self.counters.disk_hits.bump(),
        }
    }
}

/// A bound, not-yet-serving server.
pub struct Server {
    config: ServeConfig,
    bound: Bound,
}

impl Server {
    /// Binds the listen socket (so the port is known before serving).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound.
    pub fn bind(config: ServeConfig) -> std::io::Result<Self> {
        let bound = Bound::bind(&config.addr)?;
        Ok(Self { config, bound })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.bound.addr()
    }

    /// Serves until a `shutdown` request arrives, then drains the queue
    /// and returns the final counters.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the cache directory cannot be created.
    pub fn serve(self) -> std::io::Result<Stats> {
        let shared = Shared {
            counters: Counters::default(),
            cache: TieredCache::new(MEM_ENTRIES, self.config.cache_dir.as_deref())?,
            coalescer: Coalescer::new(),
        };
        self.bound
            .serve(self.config.workers, self.config.queue_depth, &shared)?;
        Ok(shared.stats())
    }

    /// Runs [`Server::serve`] on a background thread — the in-process
    /// variant the integration tests use.
    pub fn spawn(self) -> Handle<Stats> {
        Handle::spawn(self.local_addr(), move || self.serve())
    }
}

impl Handler for Shared {
    fn handle(&self, stream: TcpStream, line: &str) -> bool {
        handle_request(stream, line, self)
    }

    fn refused(&self) {
        self.counters.busy_rejects.bump();
    }
}

/// Serves one already-read request line (one reply line). Returns
/// whether a shutdown was requested.
fn handle_request(stream: TcpStream, line: &str, shared: &Shared) -> bool {
    shared.counters.requests.bump();
    match protocol::parse_request(line) {
        Ok(Request::Run(request)) => {
            let reply = handle_run(&request, shared);
            write_reply_line(stream, &reply);
            false
        }
        Ok(Request::Ping) => {
            write_reply_line(stream, &protocol::pong_reply());
            false
        }
        Ok(Request::Stats) => {
            write_reply_line(stream, &shared.stats().to_json());
            false
        }
        Ok(Request::Shutdown) => {
            write_reply_line(stream, &protocol::shutdown_reply());
            true
        }
        Ok(Request::Suite { .. }) => {
            // Batch fan-out is the fleet router's job; the daemon's
            // one-line reply discipline stays intact.
            write_reply_line(
                stream,
                &protocol::error_reply(
                    "bad-request",
                    "op \"suite\" is served by the fleet router (sampsim fleet)",
                ),
            );
            false
        }
        Ok(Request::PeerPut { key, doc }) => {
            // Fleet warming: store the rendered document under its key
            // so a later rebalance finds the bytes already local.
            shared.cache.put(key, doc.as_bytes());
            shared.counters.peer_warms.bump();
            write_reply_line(stream, &protocol::peer_put_reply());
            false
        }
        Err(message) => {
            write_reply_line(stream, &protocol::error_reply("bad-request", &message));
            false
        }
    }
}

/// Computes (or fetches) the reply line for a run request. Never panics:
/// validation failures become typed error replies and pipeline panics are
/// caught into `internal` replies.
fn handle_run(request: &service::RunRequest, shared: &Shared) -> String {
    let prepared = match service::prepare(request) {
        Ok(p) => p,
        Err(e) => return e.reply(),
    };
    // Fast path: the response cache.
    if let Some(line) = cached_response(shared, prepared.key) {
        return line;
    }
    match shared.coalescer.claim(prepared.key) {
        Claim::Follower(flight) => {
            shared.counters.coalesced.bump();
            flight.wait()
        }
        Claim::Leader(guard) => {
            // Double-check: a previous leader may have published between
            // our miss and our claim (it fills the cache before closing
            // its flight, so this read is guaranteed to see it).
            if let Some(line) = cached_response(shared, prepared.key) {
                guard.complete(line.clone());
                return line;
            }
            shared.counters.misses.bump();
            shared.counters.executions.bump();
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                // Workers provide the concurrency; each pipeline runs
                // serially so `--jobs` workers = `--jobs` concurrent runs.
                service::execute_prepared(&prepared, sampsim_exec::SERIAL, &shared.cache)
            }));
            let line = match outcome {
                Ok(Ok(document)) => {
                    shared.cache.put(prepared.key, document.as_bytes());
                    document
                }
                Ok(Err(e)) => e.reply(),
                Err(_) => protocol::error_reply("internal", "pipeline panicked"),
            };
            guard.complete(line.clone());
            line
        }
    }
}

fn cached_response(shared: &Shared, key: u64) -> Option<String> {
    let (bytes, tier) = shared.cache.get(key)?;
    // The reply line needs owned UTF-8; validate in place on the view and
    // copy once here, at the protocol edge.
    let line = std::str::from_utf8(&bytes).ok()?.to_string();
    shared.count_tier(tier);
    Some(line)
}

/// Writes one reply line and flushes; failures are the client's loss.
/// Public because the fleet router replies over the same discipline.
pub fn write_reply_line(mut stream: TcpStream, line: &str) {
    // The client may already be gone; a failed reply write is its loss.
    let _ = stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .and_then(|()| stream.flush());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `stats` reply as it went over the wire before the counter
    /// names were declared once: every field distinct, in reply order.
    const STATS_LINE: &str = concat!(
        r#"{"ok":"stats","requests":1,"executions":2,"coalesced":3,"mem_hits":4,"#,
        r#""disk_hits":5,"misses":6,"busy_rejects":7,"stage_hits":8,"peer_warms":9}"#
    );

    #[test]
    fn stats_wire_format_is_pinned() {
        let stats = Stats {
            requests: 1,
            executions: 2,
            coalesced: 3,
            mem_hits: 4,
            disk_hits: 5,
            misses: 6,
            busy_rejects: 7,
            stage_hits: 8,
            peer_warms: 9,
        };
        assert_eq!(stats.to_json(), STATS_LINE);
        assert_eq!(Stats::from_json(STATS_LINE), Some(stats));
        // The router's fleet-wide reply appends fields the parser skips.
        let fleet_line = STATS_LINE.replace('}', r#","shards":2,"unreachable":0}"#);
        assert_eq!(Stats::from_json(&fleet_line), Some(stats));
        assert_eq!(Stats::from_json(r#"{"ok":"pong"}"#), None);

        let mut sum = stats;
        sum.merge(&Stats {
            requests: 10,
            executions: 20,
            coalesced: 30,
            mem_hits: 40,
            disk_hits: 50,
            misses: 60,
            busy_rejects: 70,
            stage_hits: 80,
            peer_warms: 90,
        });
        assert_eq!(
            sum,
            Stats {
                requests: 11,
                executions: 22,
                coalesced: 33,
                mem_hits: 44,
                disk_hits: 55,
                misses: 66,
                busy_rejects: 77,
                stage_hits: 88,
                peer_warms: 99,
            }
        );
    }
}
