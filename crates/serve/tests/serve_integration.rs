//! End-to-end tests for the `sampsim-serve` daemon: byte-identity across
//! cold / cached / coalesced paths, drain-on-shutdown, and the counters
//! that prove which path a reply took.
//!
//! Every test binds port 0 (ephemeral) and uses the tiny scaled
//! `620.omnetpp_s` configuration so a pipeline execution costs fractions
//! of a second.

use sampsim_core::stage_cache::NoCache;
use sampsim_exec::Jobs;
use sampsim_serve::service::{self, RunRequest};
use sampsim_serve::{client, protocol, ServeConfig, Server};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;

fn tiny_request() -> RunRequest {
    RunRequest {
        bench: "omnetpp_s".into(),
        scale: 0.002,
        slice: None,
        maxk: Some(6),
        strategy: None,
        kmeans: None,
    }
}

fn tiny_request_line() -> String {
    protocol::run_request_line("omnetpp_s", 0.002, None, Some(6), None, None)
}

/// The ground truth: exactly what `sampsim run` prints on stdout.
fn reference_document() -> String {
    service::run_document(&tiny_request(), sampsim_exec::SERIAL, &NoCache).unwrap()
}

fn config(workers: Jobs, cache_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        cache_dir,
        workers,
        queue_depth: 16,
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sampsim-serve-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// (a) + (c): N concurrent identical requests all receive bytes identical
/// to `sampsim run` stdout, and the counters prove exactly one pipeline
/// execution — every other client was coalesced onto the leader's flight
/// or answered from the response cache.
#[test]
fn concurrent_identical_requests_coalesce_to_one_execution() {
    const CLIENTS: usize = 4;
    let reference = reference_document();
    let server = Server::bind(config(Jobs::new(CLIENTS).unwrap(), None)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    let replies: Vec<String> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| s.spawn(|| client::request_line(&addr, &tiny_request_line()).unwrap()))
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for reply in &replies {
        assert_eq!(reply, &reference, "served bytes != `sampsim run` stdout");
    }

    assert_eq!(
        client::request_line(&addr, "{\"op\":\"shutdown\"}").unwrap(),
        "{\"ok\":\"shutdown\"}"
    );
    let stats = handle.wait().unwrap();
    assert_eq!(stats.executions, 1, "coalescing must yield ONE execution");
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.coalesced + stats.mem_hits,
        (CLIENTS - 1) as u64,
        "every non-leader waits on the flight or hits the cache: {stats:?}"
    );
    assert_eq!(stats.disk_hits, 0, "no disk tier was configured");
}

/// (b): cold miss, memory hit, and (after a server restart on the same
/// cache directory) disk hit all return bit-identical bytes, and the
/// stats counters prove which tier answered.
#[test]
fn cold_memory_and_disk_paths_are_bit_identical() {
    let reference = reference_document();
    let dir = temp_dir("tiers");
    let line = tiny_request_line();

    // First server lifetime: a cold miss, then a memory hit.
    let server = Server::bind(config(Jobs::new(2).unwrap(), Some(dir.clone()))).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let cold = client::request_line(&addr, &line).unwrap();
    let warm = client::request_line(&addr, &line).unwrap();
    client::request_line(&addr, "{\"op\":\"shutdown\"}").unwrap();
    let first = handle.wait().unwrap();
    assert_eq!(cold, reference);
    assert_eq!(warm, reference);
    assert_eq!(first.executions, 1);
    assert_eq!(first.misses, 1);
    assert_eq!(first.mem_hits, 1);
    assert_eq!(first.disk_hits, 0);

    // Second lifetime on the same directory: the memory tier is empty, so
    // the reply must come from disk — and still be the exact same bytes.
    let server = Server::bind(config(Jobs::new(2).unwrap(), Some(dir.clone()))).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();
    let persisted = client::request_line(&addr, &line).unwrap();
    client::request_line(&addr, "{\"op\":\"shutdown\"}").unwrap();
    let second = handle.wait().unwrap();
    assert_eq!(persisted, reference);
    assert_eq!(
        second.executions, 0,
        "the disk tier must answer: {second:?}"
    );
    assert_eq!(second.disk_hits, 1);
    assert_eq!(second.misses, 0);

    let _ = std::fs::remove_dir_all(&dir);
}

/// (d): with a single worker, run requests whose lines arrive *after* a
/// shutdown request are still served before the server exits — shutdown
/// drains accepted connections and the queue instead of dropping them.
#[test]
fn shutdown_drains_queued_requests() {
    let reference = reference_document();
    let server = Server::bind(config(sampsim_exec::SERIAL, None)).unwrap();
    let addr = server.local_addr();
    let handle = server.spawn();

    // Connect three clients in order, then write the shutdown line first.
    // The acceptor holds each connection until its line is complete, and
    // after a shutdown it keeps draining the connections it holds, so the
    // two run lines written after the shutdown line are still served.
    // (A line queued behind a shutdown is pinned deterministically by the
    // acceptor's unit tests.)
    let mut first = TcpStream::connect(addr).unwrap();
    let mut shut = TcpStream::connect(addr).unwrap();
    let mut queued = TcpStream::connect(addr).unwrap();
    shut.write_all(b"{\"op\":\"shutdown\"}\n").unwrap();
    queued
        .write_all(format!("{}\n", tiny_request_line()).as_bytes())
        .unwrap();
    first
        .write_all(format!("{}\n", tiny_request_line()).as_bytes())
        .unwrap();

    let read_reply = |stream: TcpStream| {
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).unwrap();
        line.trim_end_matches(['\r', '\n']).to_string()
    };
    assert_eq!(read_reply(first), reference);
    assert_eq!(read_reply(shut), "{\"ok\":\"shutdown\"}");
    assert_eq!(
        read_reply(queued),
        reference,
        "the queued request must be served, not dropped"
    );

    let stats = handle.wait().unwrap();
    assert_eq!(stats.requests, 3);
    assert_eq!(stats.executions, 1, "second run is a cache hit: {stats:?}");
}

/// Requesting a default by name changes nothing: the documents for
/// `"strategy":"simpoint"` and `"kmeans":"lloyd"` are byte-identical to
/// the one for a request that omits the key entirely.
#[test]
fn explicit_simpoint_strategy_is_byte_identical_to_default() {
    let reference = reference_document();
    for explicit in [
        RunRequest {
            strategy: Some("simpoint".into()),
            ..tiny_request()
        },
        RunRequest {
            kmeans: Some("lloyd".into()),
            ..tiny_request()
        },
    ] {
        let doc = service::run_document(&explicit, sampsim_exec::SERIAL, &NoCache).unwrap();
        assert_eq!(doc, reference, "{explicit:?}");
    }
}

/// Control ops and failure replies over a real socket: ping, stats,
/// malformed JSON, unknown benchmarks, and lint-rejected configurations
/// all produce one typed reply line — never a dropped connection.
#[test]
fn control_and_failure_replies_are_typed() {
    let server = Server::bind(config(Jobs::new(2).unwrap(), None)).unwrap();
    let addr = server.local_addr().to_string();
    let handle = server.spawn();

    assert_eq!(
        client::request_line(&addr, "{\"op\":\"ping\"}").unwrap(),
        "{\"ok\":\"pong\"}"
    );
    let stats_line = client::request_line(&addr, "{\"op\":\"stats\"}").unwrap();
    assert!(stats_line.starts_with("{\"ok\":\"stats\""), "{stats_line}");

    let bad = client::request_line(&addr, "this is not json").unwrap();
    assert!(bad.contains("\"code\":\"bad-request\""), "{bad}");

    let unknown = client::request_line(&addr, "{\"op\":\"run\",\"bench\":\"nope\"}").unwrap();
    assert!(unknown.contains("\"code\":\"unknown-bench\""), "{unknown}");

    // slice 0 passes the protocol and is rejected by the full analysis
    // preflight with a structured rule list (SA020), not a panic. Sending
    // maxk 0 in the same request proves the reply carries the *complete*
    // report — one rule object per finding, in `lint --format json` shape
    // — rather than just the first failure.
    let invalid = client::request_line(
        &addr,
        "{\"op\":\"run\",\"bench\":\"omnetpp_s\",\"scale\":0.002,\"slice\":0,\"maxk\":0}",
    )
    .unwrap();
    assert!(invalid.contains("\"code\":\"invalid-config\""), "{invalid}");
    assert!(invalid.contains("\"rules\":["), "{invalid}");
    assert!(invalid.contains("SA020"), "{invalid}");
    assert!(invalid.contains("SA021"), "{invalid}");
    assert!(invalid.contains("\"severity\":\"error\""), "{invalid}");
    assert!(protocol::is_error_reply(&invalid));

    // An unregistered sampling strategy is rejected the same structured
    // way: a typed invalid-config reply carrying the SA130 rule — never a
    // dropped connection or an untyped error.
    let bad_strategy = client::request_line(
        &addr,
        &protocol::run_request_line("omnetpp_s", 0.002, None, Some(6), Some("frobnicate"), None),
    )
    .unwrap();
    assert!(
        bad_strategy.contains("\"code\":\"invalid-config\""),
        "{bad_strategy}"
    );
    assert!(bad_strategy.contains("\"rules\":["), "{bad_strategy}");
    assert!(bad_strategy.contains("SA130"), "{bad_strategy}");
    assert!(bad_strategy.contains("frobnicate"), "{bad_strategy}");
    assert!(protocol::is_error_reply(&bad_strategy));

    // A replicate count past the documented maximum is an SA130 spec
    // error too. Accepted, it would allocate every replicate's selection
    // up front and abort the daemon; the next request must still get an
    // answer.
    let huge = client::request_line(
        &addr,
        r#"{"op":"run","bench":"mcf_r","scale":0.002,"strategy":"rss:replicates=1000000000"}"#,
    )
    .unwrap();
    assert!(huge.contains("\"code\":\"invalid-config\""), "{huge}");
    assert!(huge.contains("SA130"), "{huge}");
    assert!(huge.contains("exceeds the maximum"), "{huge}");
    assert_eq!(
        client::request_line(&addr, "{\"op\":\"ping\"}").unwrap(),
        "{\"ok\":\"pong\"}"
    );

    // Lloyd is the only clustering kernel: any other `kmeans` label is a
    // typed bad-request, and the daemon keeps answering.
    let minibatch = client::request_line(
        &addr,
        &protocol::run_request_line("omnetpp_s", 0.002, None, Some(6), None, Some("minibatch")),
    )
    .unwrap();
    assert!(
        minibatch.contains("\"code\":\"bad-request\""),
        "{minibatch}"
    );
    assert!(minibatch.contains("minibatch"), "{minibatch}");
    assert_eq!(
        client::request_line(&addr, "{\"op\":\"ping\"}").unwrap(),
        "{\"ok\":\"pong\"}"
    );

    client::request_line(&addr, "{\"op\":\"shutdown\"}").unwrap();
    let stats = handle.wait().unwrap();
    assert_eq!(stats.executions, 0, "no valid run was requested: {stats:?}");
}
