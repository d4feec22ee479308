//! `sampsim fleet` / `sampsim loadgen` — the sharded serving topology
//! and its load-generator harness.

use super::{create_report_file, validate_file, CmdResult};
use crate::args::Options;
use sampsim_fleet::loadgen::{self, LoadgenConfig, Mix};
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
pub fn fleet(
    shards: usize,
    addr: &str,
    cache_dir: Option<&str>,
    queue_depth: usize,
    options: &Options,
) -> CmdResult {
    let config = FleetConfig {
        addr: addr.to_string(),
        shards,
        shard_workers: options.jobs,
        router_workers: options.jobs,
        queue_depth,
        cache_dir: cache_dir.map(PathBuf::from),
    };
    let fleet = Fleet::spawn(&config)?;
    println!(
        "sampsim-fleet ({shards} shards) listening on {}",
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

/// `sampsim loadgen [--fleet N] [--clients C] [--requests R]
/// [--mix cold:warm] [--seed S] [--quick] [-o FILE]`, or
/// `sampsim loadgen --validate FILE` to only schema-check an existing
/// report (a violation exits 2).
///
/// Spawns an ephemeral in-process fleet, drives the seed-deterministic
/// cold/warm schedule through `--clients` concurrent TCP clients, and
/// prints the `sampsim-serve-bench/v1` report on stdout (and to `-o
/// FILE`). Every fresh report is validated before it is written, so a
/// green exit also certifies the schema — the same check `--validate`
/// runs against the committed `BENCH_serve.json`.
#[allow(clippy::too_many_arguments)]
pub fn loadgen(
    shards: Option<usize>,
    clients: Option<usize>,
    requests: Option<usize>,
    mix: Option<&str>,
    seed: Option<u64>,
    quick: bool,
    out: Option<&str>,
    validate: Option<&str>,
) -> CmdResult {
    if let Some(path) = validate {
        return validate_file(path, loadgen::SCHEMA, loadgen::validate_report);
    }
    let mut config = if quick {
        LoadgenConfig::quick()
    } else {
        LoadgenConfig::full()
    };
    if let Some(n) = shards {
        config.shards = n;
    }
    if let Some(n) = clients {
        config.clients = n;
    }
    if let Some(n) = requests {
        config.requests = n;
    }
    if let Some(s) = mix {
        config.mix = Mix::parse(s)?;
    }
    if let Some(s) = seed {
        config.seed = s;
    }
    eprintln!(
        "loadgen: {} shards, {} clients, {} requests, mix {}:{}, seed {}...",
        config.shards,
        config.clients,
        config.requests,
        config.mix.cold,
        config.mix.warm,
        config.seed
    );
    let text = loadgen::run(&config)?;
    loadgen::validate_report(&text)
        .map_err(|e| format!("generated report failed validation: {e}"))?;
    println!("{text}");
    if let Some(path) = out {
        let mut file = create_report_file(path)?;
        writeln!(file, "{text}")?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
