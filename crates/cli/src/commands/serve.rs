//! `sampsim serve` / `sampsim request` — the daemon and its client.

use super::{create_report_file, CmdResult, UsageError};
use crate::args::{Args, RequestOp};
use sampsim_serve::client::{self, RetryPolicy};
use sampsim_serve::service::RunRequest;
use sampsim_serve::{protocol, ServeConfig, Server};
use std::io::Write;
use std::path::PathBuf;

/// `sampsim serve [--addr A] [--cache-dir DIR] [--queue-depth N]`.
///
/// Prints the bound address on stdout (flushed) before serving, so
/// scripts can pass `--addr 127.0.0.1:0` and read back the ephemeral
/// port. `--jobs` sets the worker-pool size.
pub fn serve(args: &Args) -> CmdResult {
    let config = ServeConfig {
        addr: args.addr.clone(),
        cache_dir: args.cache_dir.as_ref().map(PathBuf::from),
        workers: args.jobs,
        queue_depth: args.queue_depth,
    };
    let server = Server::bind(config)?;
    println!("sampsim-serve listening on {}", server.local_addr());
    std::io::stdout().flush()?;
    let stats = server.serve()?;
    eprintln!(
        "served {} requests: {} executions, {} coalesced, {} memory hits, \
         {} disk hits, {} busy rejects",
        stats.requests,
        stats.executions,
        stats.coalesced,
        stats.mem_hits,
        stats.disk_hits,
        stats.busy_rejects
    );
    Ok(())
}

/// `sampsim request [bench] [--addr A] [--ping|--stats|--shutdown|--suite]
/// [--retries N] [-o FILE]`.
///
/// Sends one request line, prints the reply line(s) to stdout (and `-o
/// FILE` when given). Error replies go to stderr and fail the command, so
/// a zero exit always means the stdout line is a successful reply — for
/// run requests, byte-identical to `sampsim run` stdout.
///
/// Transient failures — connection refused/reset, or a `busy` reply —
/// are retried with exponential backoff and deterministic jitter,
/// honoring the daemon's `retry_after_ms` hint; `--retries N` bounds the
/// attempts (`--retries 1` disables retry). `--suite` sends the batch op
/// (benchmarks from the comma-separated operand, or the whole suite) and
/// streams one envelope line per benchmark as the fleet produces them; it
/// retries only until the first line arrives, so none prints twice.
pub fn request(args: &Args) -> CmdResult {
    let (bench, op, addr) = (args.operand(0), args.op, args.addr.as_str());
    match op {
        RequestOp::Run if bench.is_none() => {
            return Err(UsageError(
                "request needs a benchmark (or one of --ping/--stats/--shutdown/--suite)".into(),
            )
            .into());
        }
        // `--suite` takes an optional comma-separated benchmark list; the
        // pure control ops take none.
        RequestOp::Ping | RequestOp::Stats | RequestOp::Shutdown if bench.is_some() => {
            return Err(UsageError(
                "control requests (--ping/--stats/--shutdown) take no benchmark".into(),
            )
            .into());
        }
        _ => {}
    }
    let mut sink = args.out.as_deref().map(create_report_file).transpose()?;
    let policy = RetryPolicy {
        attempts: args.retries.unwrap_or(client::DEFAULT_RETRY.attempts),
        ..client::DEFAULT_RETRY
    };
    let template = |bench: &str| RunRequest {
        bench: bench.to_string(),
        scale: args.scale.factor(),
        slice: args.slice,
        maxk: args.maxk,
        strategy: args.strategy.clone(),
        kmeans: None,
    };
    if op == RequestOp::Suite {
        // The batch op streams; print every envelope line as it lands.
        let benches: Vec<&str> = bench
            .map(|list| list.split(',').map(str::trim).collect())
            .unwrap_or_default();
        let line = protocol::suite_request_line(&benches, &template(""));
        let got = client::request_stream_with_retry(addr, &line, &policy, |item| {
            println!("{item}");
            if let Some(file) = &mut sink {
                let _ = writeln!(file, "{item}");
            }
        })?;
        if got.attempts > 1 {
            eprintln!("(succeeded after {} attempts)", got.attempts);
        }
        let summary = got.reply;
        if protocol::is_error_reply(&summary) {
            eprintln!("{summary}");
            return Err(format!("the server at {addr} rejected the request").into());
        }
        println!("{summary}");
        if let Some(file) = &mut sink {
            writeln!(file, "{summary}")?;
        }
        match protocol::suite_summary_errors(&summary) {
            Some(0) => return Ok(()),
            Some(errors) => {
                return Err(format!("{errors} of the suite's benchmarks failed").into());
            }
            None => return Err(format!("malformed suite summary: {summary}").into()),
        }
    }
    let line = match op {
        RequestOp::Run => protocol::run_request_line(
            bench.expect("checked above"),
            args.scale.factor(),
            args.slice,
            args.maxk,
            args.strategy.as_deref(),
            None,
        ),
        RequestOp::Ping => "{\"op\":\"ping\"}".to_string(),
        RequestOp::Stats => "{\"op\":\"stats\"}".to_string(),
        RequestOp::Shutdown => "{\"op\":\"shutdown\"}".to_string(),
        RequestOp::Suite => unreachable!("handled above"),
    };
    let got = client::request_line_with_retry(addr, &line, &policy)?;
    if got.attempts > 1 {
        eprintln!("(succeeded after {} attempts)", got.attempts);
    }
    if protocol::is_error_reply(&got.reply) {
        eprintln!("{}", got.reply);
        return Err(format!("the server at {addr} rejected the request").into());
    }
    println!("{}", got.reply);
    if let Some(file) = &mut sink {
        writeln!(file, "{}", got.reply)?;
    }
    Ok(())
}
