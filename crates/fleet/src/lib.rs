//! `sampsim-fleet` — sharded multi-instance serving on top of
//! `sampsim-serve`.
//!
//! One daemon amortizes profiling across requests; a *fleet* amortizes
//! it across machines-worth of workers while keeping the single-node
//! contract intact. The pieces:
//!
//! - [`ring`] — rendezvous (highest-random-weight) hashing: a pure
//!   deterministic map from content-addressed keys to shard slots, with
//!   per-key preference lists so a shard loss moves each orphaned key to
//!   exactly the sibling that peer warming pre-filled.
//! - [`router`] — the fleet's entry point, on the daemon's own front end
//!   (`sampsim_serve::acceptor`). Speaks the same line protocol as a
//!   single daemon (clients cannot tell the difference), shards `run`
//!   requests by `response_key`, relays shard replies byte-for-byte,
//!   warms next-preference siblings over `peer-put`, aggregates
//!   fleet-wide `stats`, fans `suite` batch sweeps across the pool, and
//!   answers for dead shards with typed `degraded` replies.
//! - [`loadgen`] — a std-only load generator: spawns an ephemeral
//!   in-process fleet, drives concurrent cold/warm traffic through real
//!   sockets, and emits a schema-checked `sampsim-serve-bench/v1`
//!   report (p50/p99 latency, throughput, fleet counters).
//!
//! # Determinism contract
//!
//! Placement is a pure function of `(response_key, shard_count)` and
//! replies are produced by the shards' single rendering path, so a fleet
//! answer is byte-identical to `sampsim run` stdout — cold, warm,
//! coalesced, or after a rebalance.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod loadgen;
pub mod ring;
pub mod router;

use router::{Router, RouterConfig, RouterStats};
use sampsim_exec::Jobs;
use sampsim_serve::acceptor::Handle;
use sampsim_serve::{ServeConfig, Server, Stats};
use std::net::SocketAddr;
use std::path::PathBuf;

/// Configuration for an in-process fleet: N shard daemons plus the
/// router in front of them.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Router listen address (`host:port`; port 0 = ephemeral). Shards
    /// always bind ephemeral loopback ports.
    pub addr: String,
    /// Number of backend shards (>= 1).
    pub shards: usize,
    /// Worker-pool size per shard.
    pub shard_workers: Jobs,
    /// Router worker threads.
    pub router_workers: Jobs,
    /// Admission-queue depth for the router and each shard.
    pub queue_depth: usize,
    /// Disk-tier root; shard `i` uses `<root>/shard-<i>` (`None` =
    /// memory tiers only).
    pub cache_dir: Option<PathBuf>,
}

impl FleetConfig {
    /// An ephemeral loopback fleet of `shards` shards.
    pub fn ephemeral(shards: usize) -> Self {
        FleetConfig {
            addr: "127.0.0.1:0".into(),
            shards,
            shard_workers: Jobs::Auto,
            router_workers: Jobs::Auto,
            queue_depth: sampsim_serve::DEFAULT_QUEUE_DEPTH,
            cache_dir: None,
        }
    }
}

/// Final counters of a fleet run: the router's and every shard's.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Router-level counters.
    pub router: RouterStats,
    /// Per-shard daemon counters, in slot order.
    pub shards: Vec<Stats>,
}

impl FleetReport {
    /// The fleet-wide sum of all shard counters.
    pub fn totals(&self) -> Stats {
        let mut totals = Stats::default();
        for shard in &self.shards {
            totals.merge(shard);
        }
        totals
    }
}

/// A running in-process fleet: shard daemons plus the router, each on
/// its own threads.
pub struct Fleet {
    router: Handle<RouterStats>,
    shards: Vec<Handle<Stats>>,
    shard_addrs: Vec<String>,
}

impl Fleet {
    /// Binds and spawns the whole topology: `shards` daemons on
    /// ephemeral ports, then the router over them. Returns once every
    /// socket is bound and serving.
    ///
    /// # Errors
    ///
    /// Returns the first bind/spawn I/O error (already-spawned shards
    /// are shut down best-effort).
    pub fn spawn(config: &FleetConfig) -> std::io::Result<Fleet> {
        assert!(config.shards > 0, "a fleet needs at least one shard");
        let mut shards = Vec::with_capacity(config.shards);
        let mut shard_addrs = Vec::with_capacity(config.shards);
        let mut bind = || {
            for slot in 0..config.shards {
                let handle = Server::bind(ServeConfig {
                    addr: "127.0.0.1:0".into(),
                    cache_dir: config
                        .cache_dir
                        .as_ref()
                        .map(|root| root.join(format!("shard-{slot}"))),
                    workers: config.shard_workers,
                    queue_depth: config.queue_depth,
                })?
                .spawn();
                shard_addrs.push(handle.addr().to_string());
                shards.push(handle);
            }
            Router::bind(RouterConfig {
                addr: config.addr.clone(),
                backends: shard_addrs.clone(),
                workers: config.router_workers,
                queue_depth: config.queue_depth,
            })
        };
        match bind() {
            Ok(router) => Ok(Fleet {
                router: router.spawn(),
                shards,
                shard_addrs,
            }),
            Err(e) => {
                shutdown_all(&shard_addrs);
                for handle in shards {
                    let _ = handle.wait();
                }
                Err(e)
            }
        }
    }

    /// The router's bound address — the fleet's single client entry
    /// point.
    pub fn addr(&self) -> SocketAddr {
        self.router.addr()
    }

    /// The shard addresses, in ring-slot order.
    pub fn shard_addrs(&self) -> &[String] {
        &self.shard_addrs
    }

    /// Blocks until the fleet shuts down (a `shutdown` request to the
    /// router stops the shards first, then the router) and returns every
    /// component's final counters.
    ///
    /// # Errors
    ///
    /// Propagates the first component I/O error.
    ///
    /// # Panics
    ///
    /// Panics if a component thread panicked.
    pub fn wait(self) -> std::io::Result<FleetReport> {
        let router = self.router.wait()?;
        let mut shards = Vec::with_capacity(self.shards.len());
        for handle in self.shards {
            shards.push(handle.wait()?);
        }
        Ok(FleetReport { router, shards })
    }
}

/// Best-effort shutdown fan-out to every shard: the router's `shutdown`
/// op and the spawn-failure cleanup path. A shard that is already gone
/// is skipped.
fn shutdown_all(addrs: &[String]) {
    for addr in addrs {
        let _ = sampsim_serve::client::request_line(addr, "{\"op\":\"shutdown\"}");
    }
}
