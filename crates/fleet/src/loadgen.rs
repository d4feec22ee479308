//! A std-only load generator for the serving stack, and the
//! `sampsim-serve-bench/v1` report it emits.
//!
//! The generator spawns a fully in-process fleet (ephemeral loopback
//! ports), then drives it the way a real client population would:
//! `clients` threads race down a shared, seed-deterministic schedule of
//! request lines over real TCP sockets, with the bounded-retry client
//! policy active. The schedule mixes two traffic classes:
//!
//! - **cold** — a config never seen before (unique `slice` value), so
//!   the owning shard must execute the pipeline;
//! - **warm** — drawn from a small pool of repeated configs, so after
//!   each pool entry's first execution every reply is a cache hit or a
//!   coalesced flight.
//!
//! The *schedule* is a pure function of the seed; the interleaving and
//! latencies are not (that is the point of a load test). The report
//! therefore commits to structure, not timings: [`validate_report`]
//! checks the declared [`schema`] (zero errors, the fleet-wide counters)
//! and the accounting invariants across fields (every request accounted
//! for, percentile ordering) — exactly what `scripts/check.sh` gates on
//! for the committed `BENCH_serve.json` baseline.

use crate::{Fleet, FleetConfig};
use sampsim_serve::client::{self, RetryPolicy};
use sampsim_serve::protocol;
use sampsim_serve::Stats;
use sampsim_util::json::{Bound, Shape, Value};
use sampsim_util::rng::Xoshiro256StarStar;
use sampsim_util::stats::percentile;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// The report schema identifier.
pub const SCHEMA: &str = "sampsim-serve-bench/v1";

/// A `cold:warm` traffic mix, e.g. `1:3` = one never-seen config for
/// every three repeated-pool requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Weight of cold (unique-config) requests.
    pub cold: u32,
    /// Weight of warm (repeated-pool) requests.
    pub warm: u32,
}

impl Mix {
    /// Parses the `cold:warm` form (`"1:3"`).
    ///
    /// # Errors
    ///
    /// Returns a message when the form is not two integers with a
    /// positive sum.
    pub fn parse(s: &str) -> Result<Mix, String> {
        let err = || format!("mix must be 'cold:warm' integers, got {s:?}");
        let (cold, warm) = s.split_once(':').ok_or_else(err)?;
        let cold: u32 = cold.trim().parse().map_err(|_| err())?;
        let warm: u32 = warm.trim().parse().map_err(|_| err())?;
        if cold + warm == 0 {
            return Err(format!("mix {s:?} has no traffic"));
        }
        Ok(Mix { cold, warm })
    }

    fn render(&self) -> String {
        format!("{}:{}", self.cold, self.warm)
    }
}

/// Load-generator configuration.
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Fleet size (backend shards).
    pub shards: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Cold/warm traffic mix.
    pub mix: Mix,
    /// Schedule + retry-jitter seed.
    pub seed: u64,
    /// Marked in the report so readers know which preset produced it.
    pub quick: bool,
}

impl LoadgenConfig {
    /// The quick preset used by `scripts/check.sh`: small but still
    /// concurrent and mixed.
    pub fn quick() -> Self {
        LoadgenConfig {
            shards: 2,
            clients: 4,
            requests: 24,
            mix: Mix { cold: 1, warm: 3 },
            seed: 42,
            quick: true,
        }
    }

    /// The full preset behind the committed `BENCH_serve.json`.
    pub fn full() -> Self {
        LoadgenConfig {
            shards: 3,
            clients: 8,
            requests: 96,
            mix: Mix { cold: 1, warm: 3 },
            seed: 42,
            quick: false,
        }
    }
}

/// The deterministic request schedule: `requests` protocol lines. Cold
/// entries get a never-repeating `slice` value; warm entries draw from a
/// four-config pool. Pure in the seed — two loadgen runs with the same
/// config send exactly the same lines (in whatever order the clients
/// race to them).
pub fn schedule(config: &LoadgenConfig) -> Vec<String> {
    let mut rng = Xoshiro256StarStar::seed_from_u64(config.seed);
    let mut cold_seq = 0u64;
    (0..config.requests)
        .map(|_| {
            let total = u64::from(config.mix.cold + config.mix.warm);
            if rng.next_below(total) < u64::from(config.mix.cold) {
                // Unique slice ⇒ unique response key ⇒ real execution.
                // 40 + 2·j never collides with the warm pool's default
                // slice (20 at scale 0.002).
                cold_seq += 1;
                protocol::run_request_line(
                    "omnetpp_s",
                    0.002,
                    Some(38 + 2 * cold_seq),
                    Some(4),
                    None,
                    None,
                )
            } else {
                let maxk = 5 + rng.next_below(4) as usize;
                protocol::run_request_line("omnetpp_s", 0.002, None, Some(maxk), None, None)
            }
        })
        .collect()
}

/// One client's view of one request.
struct Sample {
    latency_ms: f64,
    attempts: u32,
    ok: bool,
}

/// Spawns the fleet, drives the schedule, and returns the rendered
/// report document.
///
/// # Errors
///
/// Returns the I/O error if the fleet cannot be spawned or shut down;
/// per-request failures are *counted*, not fatal.
pub fn run(config: &LoadgenConfig) -> std::io::Result<String> {
    let lines = schedule(config);
    let fleet = Fleet::spawn(&FleetConfig::ephemeral(config.shards))?;
    let addr = fleet.addr().to_string();

    let next = AtomicUsize::new(0);
    let started = Instant::now();
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.clients.max(1))
            .map(|client_id| {
                let lines = &lines;
                let next = &next;
                let addr = &addr;
                let policy = RetryPolicy {
                    attempts: 4,
                    base_ms: 5,
                    max_ms: 200,
                    seed: config
                        .seed
                        .wrapping_add((client_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                };
                s.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= lines.len() {
                            return mine;
                        }
                        let begin = Instant::now();
                        let outcome = client::request_line_with_retry(addr, &lines[i], &policy);
                        let latency_ms = begin.elapsed().as_secs_f64() * 1e3;
                        mine.push(match outcome {
                            Ok(got) => Sample {
                                latency_ms,
                                attempts: got.attempts,
                                ok: !protocol::is_error_reply(&got.reply),
                            },
                            Err(_) => Sample {
                                latency_ms,
                                attempts: policy.attempts,
                                ok: false,
                            },
                        });
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client threads do not panic"))
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();

    // Fleet-wide counters before shutdown (the stats op sums shards).
    let fleet_stats = client::request_line(&addr, "{\"op\":\"stats\"}")
        .ok()
        .and_then(|reply| Stats::from_json(&reply))
        .unwrap_or_default();
    client::request_line(&addr, "{\"op\":\"shutdown\"}")?;
    let report = fleet.wait()?;

    let latencies: Vec<f64> = samples.iter().map(|s| s.latency_ms).collect();
    let ok = samples.iter().filter(|s| s.ok).count();
    let errors = samples.len() - ok;
    let retries: u64 = samples.iter().map(|s| u64::from(s.attempts - 1)).sum();
    let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
    let max = latencies.iter().copied().fold(0.0f64, f64::max);
    let throughput = samples.len() as f64 / elapsed.max(f64::MIN_POSITIVE);

    Ok(format!(
        concat!(
            "{{\"schema\":\"{schema}\",",
            "\"config\":{{\"shards\":{shards},\"clients\":{clients},\"requests\":{requests},",
            "\"mix\":\"{mix}\",\"seed\":{seed},\"quick\":{quick}}},",
            "\"totals\":{{\"sent\":{sent},\"ok\":{ok},\"errors\":{errors},\"retries\":{retries}}},",
            "\"latency_ms\":{{\"p50\":{p50:?},\"p99\":{p99:?},\"max\":{max:?},\"mean\":{mean:?}}},",
            "\"throughput_rps\":{rps:?},",
            "\"fleet\":{{{fleet}}},",
            "\"router\":{{{router}}}}}"
        ),
        schema = SCHEMA,
        shards = config.shards,
        clients = config.clients,
        requests = config.requests,
        mix = config.mix.render(),
        seed = config.seed,
        quick = config.quick,
        sent = samples.len(),
        ok = ok,
        errors = errors,
        retries = retries,
        p50 = percentile(&latencies, 50.0),
        p99 = percentile(&latencies, 99.0),
        max = max,
        mean = mean,
        rps = throughput,
        fleet = fleet_stats.json_fields(),
        router = report.router.json_fields(),
    ))
}

/// The `sampsim-serve-bench/v1` document [`run`] renders, from a healthy
/// fleet: no failed requests or degraded replies, at least one execution.
pub const fn schema() -> &'static Shape {
    const COUNT: Shape = Shape::Num(Bound::AtLeast(0.0));
    const SHAPE: Shape = Shape::Object(&[
        ("schema", Shape::OneOf(&[SCHEMA])),
        (
            "config",
            Shape::Object(&[
                ("shards", Shape::Num(Bound::AtLeast(1.0))),
                ("clients", Shape::Num(Bound::AtLeast(1.0))),
                ("requests", Shape::Num(Bound::AtLeast(1.0))),
                ("mix", Shape::Str),
                ("seed", COUNT),
                ("quick", Shape::Bool),
            ]),
        ),
        (
            "totals",
            Shape::Object(&[
                ("sent", COUNT),
                ("ok", COUNT),
                ("errors", Shape::Num(Bound::Exactly(0.0))),
                ("retries", COUNT),
            ]),
        ),
        (
            "latency_ms",
            Shape::Object(&[
                ("p50", COUNT),
                ("p99", COUNT),
                ("max", COUNT),
                ("mean", COUNT),
            ]),
        ),
        ("throughput_rps", Shape::Num(Bound::Above(0.0))),
        (
            "fleet",
            Shape::Object(&[
                ("requests", COUNT),
                ("executions", Shape::Num(Bound::AtLeast(1.0))),
                ("coalesced", COUNT),
                ("mem_hits", COUNT),
                ("disk_hits", COUNT),
                ("misses", COUNT),
                ("busy_rejects", COUNT),
                ("stage_hits", COUNT),
                ("peer_warms", COUNT),
            ]),
        ),
        (
            "router",
            Shape::Object(&[
                ("requests", COUNT),
                ("routed", COUNT),
                ("degraded", Shape::Num(Bound::Exactly(0.0))),
                ("peer_warms_sent", COUNT),
                ("busy_rejects", COUNT),
            ]),
        ),
    ]);
    &SHAPE
}

/// Validates a `sampsim-serve-bench/v1` report: its [`schema`], a `mix`
/// that [`Mix::parse`] accepts, and the invariants across fields (`sent
/// = ok + errors = config.requests`, `p50 <= p99 <= max`).
///
/// # Errors
///
/// Returns the first violated rule as a human-readable message.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = schema().parse(text)?;
    let field = |object: &str, key: &str| doc.get(object).and_then(|o| o.get(key));
    let number = |object: &str, key: &str| {
        field(object, key)
            .and_then(Value::as_f64)
            .expect("the schema requires the number")
    };
    let mix = field("config", "mix").and_then(Value::as_str);
    Mix::parse(mix.unwrap_or_default()).map_err(|e| format!("config.mix: {e}"))?;
    let [sent, ok, errors] = ["sent", "ok", "errors"].map(|key| number("totals", key));
    if sent != ok + errors {
        return Err(format!("totals: sent {sent} != ok {ok} + errors {errors}"));
    }
    if sent != number("config", "requests") {
        return Err(format!("totals: sent {sent} != config.requests"));
    }
    let [p50, p99, max] = ["p50", "p99", "max"].map(|key| number("latency_ms", key));
    if !(p50 <= p99 && p99 <= max) {
        return Err(format!(
            "latency_ms: percentile order violated (p50 {p50}, p99 {p99}, max {max})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_parses_and_rejects() {
        assert_eq!(Mix::parse("1:3").unwrap(), Mix { cold: 1, warm: 3 });
        assert_eq!(Mix::parse(" 2 : 0 ").unwrap(), Mix { cold: 2, warm: 0 });
        for bad in ["", "1", "1:", ":3", "a:b", "0:0", "1:3:5"] {
            assert!(Mix::parse(bad).is_err(), "{bad:?}");
        }
        assert_eq!(Mix { cold: 1, warm: 3 }.render(), "1:3");
    }

    #[test]
    fn schedule_is_seed_deterministic_and_mixed() {
        let config = LoadgenConfig::quick();
        let a = schedule(&config);
        let b = schedule(&config);
        assert_eq!(a, b, "same seed, same schedule");
        assert_eq!(a.len(), config.requests);
        // Both classes are present, and every line parses.
        let colds = a.iter().filter(|l| l.contains("\"slice\":")).count();
        assert!(colds > 0 && colds < a.len(), "{colds}/{} cold", a.len());
        for line in &a {
            assert!(protocol::parse_request(line).is_ok(), "{line}");
        }
        // Cold slices never repeat (each must be a real execution).
        let mut slices: Vec<&str> = a
            .iter()
            .filter_map(|l| l.split("\"slice\":").nth(1))
            .collect();
        let before = slices.len();
        slices.sort_unstable();
        slices.dedup();
        assert_eq!(slices.len(), before, "cold configs must be unique");
        // A different seed reshuffles.
        let other = schedule(&LoadgenConfig { seed: 43, ..config });
        assert_ne!(a, other);
    }

    fn synthetic_report() -> String {
        format!(
            concat!(
                "{{\"schema\":\"{}\",",
                "\"config\":{{\"shards\":2,\"clients\":4,\"requests\":24,",
                "\"mix\":\"1:3\",\"seed\":42,\"quick\":true}},",
                "\"totals\":{{\"sent\":24,\"ok\":24,\"errors\":0,\"retries\":0}},",
                "\"latency_ms\":{{\"p50\":1.5,\"p99\":20.0,\"max\":25.0,\"mean\":4.0}},",
                "\"throughput_rps\":100.0,",
                "\"fleet\":{{\"requests\":26,\"executions\":9,\"coalesced\":2,",
                "\"mem_hits\":13,\"disk_hits\":0,\"misses\":9,\"busy_rejects\":0,",
                "\"stage_hits\":0,\"peer_warms\":9}},",
                "\"router\":{{\"requests\":26,\"routed\":24,\"degraded\":0,",
                "\"peer_warms_sent\":9,\"busy_rejects\":1}}}}"
            ),
            SCHEMA
        )
    }

    #[test]
    fn validate_accepts_the_reference_shape() {
        let report = synthetic_report();
        validate_report(&report).unwrap();
        // `run` renders the router object from the counter set; its
        // members and their order are the ones this literal pins.
        let router = crate::router::RouterStats {
            requests: 26,
            routed: 24,
            degraded: 0,
            peer_warms_sent: 9,
            busy_rejects: 1,
        };
        let tail = format!(",\"router\":{{{}}}}}", router.json_fields());
        assert!(report.ends_with(&tail), "{report}");
    }

    #[test]
    fn validate_rejects_broken_reports() {
        let good = synthetic_report();
        for (from, to, why) in [
            (SCHEMA, "sampsim-serve-bench/v0", "wrong schema"),
            ("\"errors\":0", "\"errors\":1", "failed requests"),
            ("\"sent\":24", "\"sent\":23", "accounting broken"),
            ("\"p50\":1.5", "\"p50\":30.0", "percentile order"),
            (
                "\"throughput_rps\":100.0",
                "\"throughput_rps\":0.0",
                "zero rps",
            ),
            ("\"executions\":9", "\"executions\":0", "nothing executed"),
            ("\"degraded\":0", "\"degraded\":2", "degraded fleet"),
            ("\"mix\":\"1:3\"", "\"mix\":\"nope\"", "bad mix"),
            (",\"peer_warms\":9", "", "missing fleet field"),
        ] {
            let broken = good.replacen(from, to, 1);
            assert_ne!(broken, good, "{why}: pattern not found");
            assert!(validate_report(&broken).is_err(), "{why}");
        }
        assert!(validate_report("not json").is_err());
    }
}
