//! `sampsim fleet` — the sharded serving topology.

use super::CmdResult;
use crate::args::Args;
use sampsim_fleet::{Fleet, FleetConfig};
use std::io::Write;
use std::path::PathBuf;

/// `sampsim fleet [--shards N] [--addr A] [--cache-dir DIR]
/// [--queue-depth N]`.
///
/// Spawns N shard daemons on ephemeral loopback ports plus the router in
/// front of them, prints the router address on stdout (flushed, so
/// scripts can pass `--addr 127.0.0.1:0` and read back the port), and
/// serves until a `shutdown` request arrives. `--jobs` sets each shard's
/// worker-pool size; with `--cache-dir`, shard `i` keeps its disk tier
/// under `DIR/shard-<i>`.
pub fn fleet(args: &Args) -> CmdResult {
    let config = FleetConfig {
        addr: args.addr.clone(),
        shards: args.shards,
        shard_workers: args.jobs,
        router_workers: args.jobs,
        queue_depth: args.queue_depth,
        cache_dir: args.cache_dir.as_ref().map(PathBuf::from),
    };
    let fleet = Fleet::spawn(&config)?;
    println!(
        "sampsim-fleet ({} shards) listening on {}",
        args.shards,
        fleet.addr()
    );
    std::io::stdout().flush()?;
    let report = fleet.wait()?;
    let totals = report.totals();
    eprintln!(
        "fleet served {} requests ({} routed, {} degraded): {} executions, \
         {} coalesced, {} memory hits, {} disk hits, {} peer warms",
        report.router.requests,
        report.router.routed,
        report.router.degraded,
        totals.executions,
        totals.coalesced,
        totals.mem_hits,
        totals.disk_hits,
        totals.peer_warms,
    );
    Ok(())
}
