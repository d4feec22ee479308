//! The `serve-mixed` workload: a closed loop of `sampsim request` lines
//! (one line per connection) against an in-process 2-shard fleet with
//! memory and disk cache tiers.
//!
//! The schedule mixes one cold request (a never-seen `slice`, so the
//! owning shard executes the pipeline) to three warm ones drawn from a
//! four-config pool that set-up has already filled, so cache-tier reads
//! run beside executions, fills and peer warming. Lines are generated
//! on demand until the deadline; a run that uses up the cold keys first
//! fails instead of ending early.

use crate::study::{self, timed, Pairs, StudySpec};
use crate::trace::Tracer;
use crate::{digests, median, Outcome, JOBS};
use sampsim_exec::Jobs;
use sampsim_fleet::ring::Ring;
use sampsim_fleet::{Fleet, FleetConfig, FleetReport};
use sampsim_serve::protocol::{self, Request};
use sampsim_serve::service::{self, RunRequest};
use sampsim_serve::{client, Stats};
use sampsim_util::hash::fnv64;
use sampsim_util::rng::Xoshiro256StarStar;
use sampsim_util::scale::Scale;
use sampsim_workload::Program;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The benchmark and scale every request uses; `maxk` is the cold one.
pub const SPEC: StudySpec = StudySpec {
    benches: &["620.omnetpp_s"],
    scale: 0.002,
    maxk: 4,
};
/// `MaxK` of the four warm-pool configs.
pub const POOL_MAXK: [usize; 4] = [5, 6, 7, 8];
/// Cold requests use the slices `COLD_SLICE0..COLD_SLICE0 + COLD_KEYS`
/// in a seed-shuffled order. The warm pool uses the default slice (20 at
/// this scale), so cold keys never collide with it. An execution's cost
/// depends on the slice (16–23 ms on one thread over this range, see the
/// README), but every prefix of a shuffled range is a uniform sample of
/// it, so the cold mix is the same however many requests a run gets
/// through.
const COLD_SLICE0: u64 = 100;
/// One cold key per four requests: enough for 30 s at about 1100
/// requests/s, five times the measured rate. A run that uses them all up
/// before its deadline fails.
const COLD_KEYS: u64 = 8192;
/// Every this-many-th cold reply is checked against an in-process run.
const VERIFY_EVERY: u64 = 25;
const SHARDS: usize = 2;
const CLIENTS: usize = 2;
const SETUP_REPS: usize = 5;
/// Warm requests sent straight to a shard and through the router, each.
const HIT_PROBES: usize = 100;

/// One scheduled request line.
pub struct Line {
    pub text: String,
    pub class: Class,
}

/// What a request line asks for.
#[derive(Clone, Copy)]
pub enum Class {
    /// Warm-pool entry `i`, already cached by set-up.
    Warm(usize),
    /// The `j`-th never-seen config.
    Cold(u64),
}

/// The request line of warm-pool entry `i`.
pub fn pool_line(i: usize) -> String {
    protocol::run_request_line(
        SPEC.benches[0],
        SPEC.scale,
        None,
        Some(POOL_MAXK[i]),
        None,
        None,
    )
}

/// The digest key of warm-pool entry `i`.
pub fn pool_key(i: usize) -> String {
    format!("serve-mixed/maxk={}", POOL_MAXK[i])
}

/// The seed's request schedule, in blocks of four holding one cold and
/// three warm requests, so every prefix keeps the 1 : 3 mix. Lines are
/// made on demand: line `i` depends only on the seed and `i`.
pub struct Schedule {
    seed: u64,
    /// The cold slice of each block.
    cold_slices: Vec<u64>,
}

impl Schedule {
    pub fn new(seed: u64) -> Schedule {
        let mut cold_slices: Vec<u64> = (COLD_SLICE0..COLD_SLICE0 + COLD_KEYS).collect();
        Xoshiro256StarStar::seed_from_u64(seed).shuffle(&mut cold_slices);
        Schedule { seed, cold_slices }
    }

    /// Line `i`, or `None` once every cold key has been used.
    pub fn line(&self, i: usize) -> Option<Line> {
        let block = i / 4;
        let slice = *self.cold_slices.get(block)?;
        let key = [self.seed.to_le_bytes(), (block as u64).to_le_bytes()].concat();
        let mut rng = Xoshiro256StarStar::seed_from_u64(fnv64(&key));
        let cold_at = rng.next_below(4) as usize;
        let warm: [u64; 4] = std::array::from_fn(|_| rng.next_below(POOL_MAXK.len() as u64));
        Some(if i % 4 == cold_at {
            Line {
                text: protocol::run_request_line(
                    SPEC.benches[0],
                    SPEC.scale,
                    Some(slice),
                    Some(SPEC.maxk),
                    None,
                    None,
                ),
                class: Class::Cold(block as u64),
            }
        } else {
            let w = warm[i % 4] as usize;
            Line {
                text: pool_line(w),
                class: Class::Warm(w),
            }
        })
    }
}

/// One request as a client saw it.
struct Sample {
    line: usize,
    class: Class,
    begin: Instant,
    end: Instant,
    ok: bool,
    /// Kept for the post-run check (every [`VERIFY_EVERY`]-th cold reply).
    reply: Option<String>,
}

impl Sample {
    fn ms(&self) -> f64 {
        (self.end - self.begin).as_secs_f64() * 1e3
    }
}

pub fn parse_run(line: &str) -> Result<RunRequest, String> {
    match protocol::parse_request(line)? {
        Request::Run(request) => Ok(request),
        _ => Err(format!("not a run request: {line}")),
    }
}

/// A fresh disk-tier root inside the working directory.
fn cache_dir(rep: usize) -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| e.to_string())?
        .join(".e2e-bench-tmp")
        .join(format!("serve-{}-{rep}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    Ok(dir)
}

fn shut_down(fleet: Fleet, dir: &Path) -> Result<FleetReport, String> {
    client::request_line(&fleet.addr().to_string(), "{\"op\":\"shutdown\"}")
        .map_err(|e| format!("fleet shutdown: {e}"))?;
    let report = fleet.wait().map_err(|e| format!("fleet: {e}"))?;
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(dir.parent().expect("the cache dir has a parent"));
    Ok(report)
}

/// A fleet ready for the measured phase.
struct Setup {
    fleet: Fleet,
    dir: PathBuf,
    /// The warm-pool replies, in pool order.
    pool: Vec<String>,
    program: Program,
}

/// Program generation, fleet spawn, and filling the warm pool (checked
/// against its digests).
fn set_up(rep: usize, out: &mut Outcome) -> Result<Setup, String> {
    let started = Instant::now();
    let (program, build_ms) = timed(|| {
        service::find_benchmark(SPEC.benches[0])
            .map(|spec| spec.scaled(Scale::new(SPEC.scale)).build())
    });
    out.build_ms.push(build_ms);
    let dir = cache_dir(rep)?;
    let fleet = Fleet::spawn(&FleetConfig {
        shard_workers: Jobs::new(JOBS)?,
        router_workers: Jobs::new(JOBS)?,
        cache_dir: Some(dir.clone()),
        ..FleetConfig::ephemeral(SHARDS)
    })
    .map_err(|e| format!("fleet spawn: {e}"))?;
    let addr = fleet.addr().to_string();
    let mut pool = Vec::new();
    for i in 0..POOL_MAXK.len() {
        let reply = client::request_line(&addr, &pool_line(i)).map_err(|e| e.to_string())?;
        if !digests::matches(&pool_key(i), &reply) {
            return Err(format!(
                "warm-pool reply {i} differs from its digest: {reply}"
            ));
        }
        pool.push(reply);
    }
    out.setup_s.push(started.elapsed().as_secs_f64());
    Ok(Setup {
        fleet,
        dir,
        pool,
        program: program?,
    })
}

/// Runs the workload for `seconds`, then checks the sampled cold replies.
pub fn run(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setup = set_up(0, &mut out)?;
    for rep in 1..SETUP_REPS {
        shut_down(setup.fleet, &setup.dir)?;
        setup = set_up(rep, &mut out)?;
    }
    let Setup {
        fleet,
        dir,
        pool,
        program,
    } = setup;
    let addr = fleet.addr().to_string();
    let schedule = Schedule::new(seed);

    let next = AtomicUsize::new(0);
    let ran_out = AtomicBool::new(false);
    let started = Instant::now();
    let deadline = started + Duration::from_secs_f64(seconds);
    let samples: Vec<Sample> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        if Instant::now() >= deadline {
                            return mine;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(line) = schedule.line(i) else {
                            ran_out.store(true, Ordering::Relaxed);
                            return mine;
                        };
                        let begin = Instant::now();
                        let reply = client::request_line(&addr, &line.text);
                        let end = Instant::now();
                        let ok = match (&reply, line.class) {
                            (Ok(reply), Class::Warm(i)) => *reply == pool[i],
                            (Ok(reply), Class::Cold(_)) => !protocol::is_error_reply(reply),
                            (Err(_), _) => false,
                        };
                        let verify = matches!(line.class, Class::Cold(j) if j % VERIFY_EVERY == 0);
                        mine.push(Sample {
                            line: i,
                            class: line.class,
                            begin,
                            end,
                            ok,
                            reply: reply.ok().filter(|_| verify),
                        });
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().expect("client threads do not panic"))
            .collect()
    });
    out.wall_s = started.elapsed().as_secs_f64();
    out.ops = samples.len();
    out.latencies_ms = vec![samples.iter().map(Sample::ms).collect()];
    out.failed = samples.iter().filter(|s| !s.ok).count();
    out.accuracy = vec![(
        "l3_miss_err_pp",
        crate::l3_miss_err_pp(&pool.iter().map(String::as_str).collect::<Vec<_>>()),
    )];
    let stats = client::request_line(&addr, "{\"op\":\"stats\"}")
        .ok()
        .and_then(|reply| Stats::from_json(&reply))
        .ok_or("the fleet did not answer stats")?;

    let mut pairs = Pairs::default();
    let mut exec_ms = Vec::new();
    if let Some(t) = tracer.as_deref_mut() {
        hit_probes(t, &fleet, &pool, &mut out)?;
    }
    let report = shut_down(fleet, &dir)?;
    if ran_out.into_inner() {
        return Err(format!(
            "the schedule's {COLD_KEYS} cold keys ran out before the deadline; raise COLD_KEYS"
        ));
    }

    // Cold replies, checked against the in-process `run_document` of the
    // same request (and, traced, against its recomposition).
    let jobs = sampsim_exec::SERIAL;
    for sample in samples.iter().filter(|s| s.reply.is_some()) {
        let line = schedule.line(sample.line).expect("a sent line exists");
        let request = parse_run(&line.text)?;
        let reply = sample.reply.as_deref();
        let ok = if let Some(t) = tracer.as_deref_mut() {
            let (a, b) = pairs.run(
                t,
                || study::study_op(&request, jobs),
                |t, root| study::study_op_traced(t, root, &request, jobs),
            );
            exec_ms.push(pairs.last_untraced_ms);
            a.as_deref().ok() == reply && b.as_deref().ok() == reply
        } else {
            study::study_op(&request, jobs).ok().as_deref() == reply
        };
        out.failed += usize::from(!ok);
    }

    let Some(t) = tracer else {
        return Ok(out);
    };
    for sample in &samples {
        t.record(
            "serve.request",
            sample.line as u64,
            sample.begin,
            sample.end,
        );
    }
    study::probes(t, &SPEC, &[program], &mut out, Jobs::new(JOBS)?);
    pairs.layer_metrics(t, &mut out.layers);
    let cold_ms: Vec<f64> = samples
        .iter()
        .filter(|s| matches!(s.class, Class::Cold(_)))
        .map(Sample::ms)
        .collect();
    let cold = median(&cold_ms);
    let exec = median(&exec_ms);
    let hits = (stats.mem_hits + stats.disk_hits) as f64;
    let router = report.router;
    let layers = &mut out.layers;
    layers.insert("serve.cold_ms_p50".into(), cold);
    layers.insert("serve.exec_ms_p50".into(), exec);
    layers.insert("serve.wait_ms_p50".into(), cold - exec);
    layers.insert(
        "serve.hit_ratio".into(),
        hits / (hits + stats.misses as f64),
    );
    layers.insert("serve.executions".into(), stats.executions as f64);
    layers.insert("serve.coalesced".into(), stats.coalesced as f64);
    layers.insert("serve.stage_hits".into(), stats.stage_hits as f64);
    layers.insert("serve.busy_rejects".into(), stats.busy_rejects as f64);
    layers.insert(
        "fleet.peer_warms_per_request".into(),
        router.peer_warms_sent as f64 / router.routed as f64,
    );
    layers.insert("fleet.degraded".into(), router.degraded as f64);
    Ok(out)
}

/// Warm-pool lines sent straight to the owning shard (found with
/// `Ring::route(service::route_key(..))`) and through the router,
/// alternately; the difference of the medians is the router's cost.
fn hit_probes(
    t: &mut Tracer,
    fleet: &Fleet,
    pool: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let router = fleet.addr().to_string();
    let ring = Ring::new(SHARDS);
    let mut owners = Vec::new();
    for i in 0..POOL_MAXK.len() {
        let key = service::route_key(&parse_run(&pool_line(i))?).map_err(|e| e.to_string())?;
        owners.push(&fleet.shard_addrs()[ring.route(key)]);
    }
    let (mut direct, mut routed) = (Vec::new(), Vec::new());
    for k in 0..2 * HIT_PROBES {
        let i = (k / 2) % POOL_MAXK.len();
        let (name, addr, times) = if k % 2 == 0 {
            ("serve.hit_direct", owners[i], &mut direct)
        } else {
            ("fleet.hit_routed", &router, &mut routed)
        };
        let begin = Instant::now();
        let reply = client::request_line(addr, &pool_line(i));
        let end = Instant::now();
        t.record(name, k as u64, begin, end);
        times.push((end - begin).as_secs_f64() * 1e3);
        out.failed += usize::from(reply.ok().as_ref() != Some(&pool[i]));
    }
    let hit = median(&direct);
    out.layers.insert("serve.hit_ms_p50".into(), hit);
    out.layers
        .insert("fleet.router_ms_p50".into(), median(&routed) - hit);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(seed: u64, len: usize) -> Vec<Line> {
        let schedule = Schedule::new(seed);
        (0..len).map(|i| schedule.line(i).unwrap()).collect()
    }

    #[test]
    fn schedule_is_seed_deterministic_with_unique_cold_keys() {
        let a = lines(42, 2_000);
        let b = lines(42, 2_000);
        assert!(a.iter().zip(&b).all(|(x, y)| x.text == y.text));
        assert!(lines(7, 2_000)
            .iter()
            .zip(&a)
            .any(|(x, y)| x.text != y.text));
        let colds: Vec<&Line> = a
            .iter()
            .filter(|l| matches!(l.class, Class::Cold(_)))
            .collect();
        assert_eq!(colds.len(), 500);
        let mut keys: Vec<u64> = colds
            .iter()
            .map(|l| service::route_key(&parse_run(&l.text).unwrap()).unwrap())
            .collect();
        keys.extend(
            (0..POOL_MAXK.len())
                .map(|i| service::route_key(&parse_run(&pool_line(i)).unwrap()).unwrap()),
        );
        let before = keys.len();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(
            keys.len(),
            before,
            "cold keys must be unique and miss the pool"
        );
    }

    #[test]
    fn cold_slices_are_a_shuffled_fixed_range_that_runs_out() {
        let schedule = Schedule::new(42);
        let mut slices = schedule.cold_slices.clone();
        assert_ne!(slices, Schedule::new(7).cold_slices);
        slices.sort_unstable();
        assert_eq!(
            slices,
            (COLD_SLICE0..COLD_SLICE0 + COLD_KEYS).collect::<Vec<_>>()
        );
        let last = 4 * COLD_KEYS as usize;
        assert!(schedule.line(last - 1).is_some());
        assert!(schedule.line(last).is_none());
    }
}
