//! The fleet's entry point: a TCP router that shards the
//! content-addressed key space across `sampsim-serve` backends.
//!
//! The router speaks the same line protocol as a single daemon, so every
//! client (`sampsim request`, the load generator, tests) can point at a
//! router or a daemon interchangeably. It runs the daemon's front end
//! ([`sampsim_serve::acceptor`]: intake, bounded queue with `busy`
//! refusals, workers, drain) and plugs its own per-line handling into
//! that front end's [`Handler`] seam:
//!
//! - `run` — the router computes the request's content-addressed key
//!   *without* executing anything ([`sampsim_serve::service::route_key`]),
//!   forwards the original line verbatim to the key's rendezvous owner
//!   ([`crate::ring::Ring`]), and relays the shard's reply byte-for-byte.
//!   Replies therefore stay byte-identical to `sampsim run` stdout.
//!   After a successful run reply, the router warms the key's
//!   next-preference shard over the `peer-put` op, so the exact shard
//!   that inherits the key on a rebalance already holds the bytes.
//! - `suite` — the batch op: one run per benchmark, fanned across the
//!   shard pool with `sampsim_exec::parallel_stream`, streamed back as
//!   one envelope line per benchmark in request order plus a summary.
//! - `stats` — fans to every shard and replies with the fleet-wide sum
//!   of all tier counters (plus `shards`/`unreachable` fields).
//! - `shutdown` — shuts every shard down, then the router itself.
//!
//! Failure semantics: a dead shard never hangs a client. A forward that
//! cannot connect yields a typed `{"error":{"code":"degraded",...}}`
//! reply naming the shard, and the router keeps serving keys owned by
//! surviving shards.

use crate::ring::Ring;
use sampsim_exec::Jobs;
use sampsim_serve::acceptor::{Bound, Handle, Handler};
use sampsim_serve::protocol::{self, Request};
use sampsim_serve::service::RunRequest;
use sampsim_serve::{client, service, write_reply_line, Stats};
use sampsim_spec2017::BenchmarkId;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};

/// Router configuration.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Listen address (`host:port`; port 0 binds an ephemeral port).
    pub addr: String,
    /// Backend shard addresses, in ring-slot order. Slot index is the
    /// shard's identity: restarting a router over the same ordered list
    /// reproduces the placement exactly.
    pub backends: Vec<String>,
    /// Router worker threads (forwarding is I/O-bound and cheap).
    pub workers: Jobs,
    /// Admission-queue depth; requests beyond it get a `busy` reply.
    pub queue_depth: usize,
}

impl RouterConfig {
    /// A default-shaped config over the given backends.
    pub fn over(addr: &str, backends: Vec<String>) -> Self {
        RouterConfig {
            addr: addr.to_string(),
            backends,
            workers: Jobs::Auto,
            queue_depth: sampsim_serve::DEFAULT_QUEUE_DEPTH,
        }
    }
}

sampsim_serve::counter_set! {
    /// Router-level counters (shard counters live in shard [`Stats`]).
    pub struct RouterStats, live Counters {
        /// Requests handled (every op, including failures).
        requests,
        /// Run/peer-put forwards that reached a shard and returned a reply.
        routed,
        /// Forwards answered with a typed `degraded` reply (dead shard).
        degraded,
        /// `peer-put` warm messages successfully stored on a sibling.
        peer_warms_sent,
        /// Requests refused with a `busy` reply at admission.
        busy_rejects,
    }
}

/// The router's request handling, shared by its worker pool.
struct Shared {
    counters: Counters,
    ring: Ring,
    backends: Vec<String>,
    fan_jobs: Jobs,
}

/// A bound, not-yet-serving router.
pub struct Router {
    config: RouterConfig,
    bound: Bound,
}

impl Router {
    /// Binds the listen socket (so the port is known before serving).
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be bound, or
    /// `InvalidInput` when no backends were given.
    pub fn bind(config: RouterConfig) -> std::io::Result<Self> {
        if config.backends.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a router needs at least one backend shard",
            ));
        }
        let bound = Bound::bind(&config.addr)?;
        Ok(Router { config, bound })
    }

    /// The bound address (resolves port 0 to the ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.bound.addr()
    }

    /// Serves until a `shutdown` request arrives (which also shuts every
    /// backend down), then returns the router's counters.
    ///
    /// # Errors
    ///
    /// Returns the I/O error if the listener cannot enter non-blocking
    /// mode.
    pub fn serve(self) -> std::io::Result<RouterStats> {
        let shared = Shared {
            counters: Counters::default(),
            ring: Ring::new(self.config.backends.len()),
            backends: self.config.backends,
            fan_jobs: self.config.workers,
        };
        self.bound
            .serve(self.config.workers, self.config.queue_depth, &shared)?;
        Ok(shared.counters.snapshot())
    }

    /// Runs [`Router::serve`] on a background thread.
    pub fn spawn(self) -> Handle<RouterStats> {
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

/// Serves one request line. Returns whether a shutdown was requested.
fn handle_request(stream: TcpStream, line: &str, shared: &Shared) -> bool {
    shared.counters.requests.bump();
    match protocol::parse_request(line) {
        Ok(Request::Run(request)) => {
            let reply = match service::route_key(&request) {
                // Pre-preflight failures render the same typed reply a
                // shard would; no forward needed.
                Err(e) => e.reply(),
                Ok(key) => forward_run(shared, key, line),
            };
            write_reply_line(stream, &reply);
            false
        }
        Ok(Request::Suite { benches, template }) => {
            handle_suite(stream, shared, &benches, &template);
            false
        }
        Ok(Request::Ping) => {
            write_reply_line(stream, &protocol::pong_reply());
            false
        }
        Ok(Request::Stats) => {
            write_reply_line(stream, &fleet_stats_reply(shared));
            false
        }
        Ok(Request::Shutdown) => {
            // Shards first (each drains its own queue), then the router.
            crate::shutdown_all(&shared.backends);
            write_reply_line(stream, &protocol::shutdown_reply());
            true
        }
        Ok(Request::PeerPut { key, .. }) => {
            // External warm-fill: forward to the key's owner verbatim.
            let reply = forward_to(shared, shared.ring.route(key), line);
            write_reply_line(stream, &reply);
            false
        }
        Err(message) => {
            write_reply_line(stream, &protocol::error_reply("bad-request", &message));
            false
        }
    }
}

/// Forwards a run line to its key's owner and relays the reply
/// byte-for-byte; on success, warms the next-preference sibling.
fn forward_run(shared: &Shared, key: u64, line: &str) -> String {
    let preference = shared.ring.preference(key);
    let reply = forward_to(shared, preference[0], line);
    // A single-shard fleet has no sibling to warm.
    if shared.backends.len() > 1 && !protocol::is_error_reply(&reply) {
        let warm = protocol::peer_put_line(key, &reply);
        if let Ok(ack) = client::request_line(&shared.backends[preference[1]], &warm) {
            if ack == protocol::peer_put_reply() {
                shared.counters.peer_warms_sent.bump();
            }
        }
    }
    reply
}

/// One forward to one shard; a transport failure becomes the typed
/// `degraded` reply instead of a hang or dropped connection.
fn forward_to(shared: &Shared, shard: usize, line: &str) -> String {
    match client::request_line(&shared.backends[shard], line) {
        Ok(reply) => {
            shared.counters.routed.bump();
            reply
        }
        Err(e) => {
            shared.counters.degraded.bump();
            protocol::error_reply(
                "degraded",
                &format!(
                    "shard {shard} ({}) unreachable: {e}",
                    shared.backends[shard]
                ),
            )
        }
    }
}

/// The batch op: fan one run per benchmark across the shard pool and
/// stream envelope lines back in request order, then a summary.
fn handle_suite(mut stream: TcpStream, shared: &Shared, benches: &[String], template: &RunRequest) {
    let names: Vec<String> = if benches.is_empty() {
        BenchmarkId::ALL
            .iter()
            .map(|id| id.name().to_string())
            .collect()
    } else {
        benches.to_vec()
    };
    let mut errors = 0usize;
    let mut write_line = |line: &str| {
        let _ = stream
            .write_all(line.as_bytes())
            .and_then(|()| stream.write_all(b"\n"))
            .and_then(|()| stream.flush());
    };
    {
        let run_one = |_i: usize, bench: &String| -> String {
            let request = RunRequest {
                bench: bench.clone(),
                ..template.clone()
            };
            let line = protocol::run_request_line(
                bench,
                request.scale,
                request.slice,
                request.maxk,
                request.strategy.as_deref(),
                request.kmeans.as_deref(),
            );
            match service::route_key(&request) {
                Err(e) => e.reply(),
                Ok(key) => forward_run(shared, key, &line),
            }
        };
        // parallel_stream delivers results in input order as a
        // contiguous prefix completes, so the client sees benchmark i
        // before benchmark i+1 — streaming, yet deterministic.
        sampsim_exec::parallel_stream(shared.fan_jobs, &names, run_one, |i, reply: String| {
            if protocol::is_error_reply(&reply) {
                errors += 1;
            }
            write_line(&protocol::suite_item_line(i, &names[i], &reply));
        });
    }
    write_line(&protocol::suite_summary_line(names.len(), errors));
}

/// Fans `stats` to every shard and sums the counters; unreachable
/// shards are counted, not fatal.
fn fleet_stats_reply(shared: &Shared) -> String {
    let mut totals = Stats::default();
    let mut unreachable = 0usize;
    for addr in &shared.backends {
        match client::request_line(addr, "{\"op\":\"stats\"}")
            .ok()
            .and_then(|reply| Stats::from_json(&reply))
        {
            Some(stats) => totals.merge(&stats),
            None => unreachable += 1,
        }
    }
    let json = totals.to_json();
    // Extend the merged object with fleet-level fields; shard parsers
    // ignore unknown keys, so the line still round-trips Stats::from_json.
    format!(
        "{},\"shards\":{},\"unreachable\":{}}}",
        &json[..json.len() - 1],
        shared.backends.len(),
        unreachable
    )
}
