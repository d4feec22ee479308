//! `e2e-bench` — the end-to-end benchmark: host time and sampling
//! accuracy of a `sampsim run` study, a `sampsim compare` efficacy
//! study, and a served request mix, with a traced per-layer breakdown.
//!
//! ```text
//! e2e-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]
//! e2e-bench --digests
//! ```
//!
//! One run measures one workload for `--seconds` and prints two JSON
//! lines: a detail line (sample counts, `nproc`, `jobs`, the tail
//! percentile, accuracy) and, last, the result line
//! `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}` carrying
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). `--digests` prints the output digest table that
//! `digests.txt` pins. See README.md next to this file.

mod serve;
mod study;
mod trace;

use sampsim_util::json::{self, Value};
use sampsim_util::stats::percentile;
use std::collections::BTreeMap;
use std::process::ExitCode;
use study::StudySpec;
use trace::Tracer;

/// Worker threads per op (the load never has more busy threads).
pub const JOBS: usize = 2;

/// What one op of a workload is.
pub enum Kind {
    /// `service::run_document`, the `sampsim run` document.
    Study(StudySpec),
    /// `compare::compare_strategies`, the `sampsim compare` report.
    Efficacy(StudySpec),
    /// One request line per connection against an in-process fleet.
    Serve,
}

/// A workload; why each one was chosen is in `BENCHMARK.json` and the
/// README.
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "study-cluster",
        kind: Kind::Study(StudySpec {
            benches: &["620.omnetpp_s", "503.bwaves_r", "505.mcf_r"],
            scale: 0.01,
            maxk: 35,
        }),
    },
    Workload {
        name: "study-profile",
        kind: Kind::Study(StudySpec {
            benches: &["620.omnetpp_s", "557.xz_r", "505.mcf_r", "623.xalancbmk_s"],
            scale: 0.25,
            maxk: 8,
        }),
    },
    Workload {
        name: "efficacy",
        kind: Kind::Efficacy(StudySpec {
            benches: &[
                "620.omnetpp_s",
                "505.mcf_r",
                "623.xalancbmk_s",
                "503.bwaves_r",
            ],
            scale: 0.1,
            maxk: 8,
        }),
    },
    Workload {
        name: "serve-mixed",
        kind: Kind::Serve,
    },
];

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p99", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// A per-layer metric and the end-to-end metrics it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    /// End-to-end metrics a change in this one should move...
    pub moves: &'static [&'static str],
    /// ...on these workloads...
    pub on: &'static [&'static str],
    /// ...and not on these control workloads.
    pub control: &'static [&'static str],
}

const ALL: &[&str] = &["study-cluster", "study-profile", "efficacy", "serve-mixed"];
const STUDIES: &[&str] = &["study-cluster", "study-profile"];
const NOT_EFFICACY: &[&str] = &["study-cluster", "study-profile", "serve-mixed"];
const CLUSTER: &[&str] = &["study-cluster"];
const PROFILE: &[&str] = &["study-profile"];
const EFFICACY: &[&str] = &["efficacy"];
const SERVE: &[&str] = &["serve-mixed"];
const REPLAY_ON: &[&str] = &["serve-mixed", "study-cluster"];
const THROUGHPUT: &[&str] = &["ops_per_s"];
const P50: &[&str] = &["op_ms_p50", "ops_per_s"];
const P99: &[&str] = &["op_ms_p99"];
const TAIL: &[&str] = &["op_ms_p99", "ops_per_s"];

const fn layer(
    name: &'static str,
    unit: &'static str,
    moves: &'static [&'static str],
    on: &'static [&'static str],
    control: &'static [&'static str],
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        moves,
        on,
        control,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: &[LayerMetric] = &[
    layer("spec2017.build_ms", "ms", &["setup_s"], ALL, &[]),
    layer("analyze.preflight_ms", "ms", P99, SERVE, &[]),
    layer("core.profile_ms", "ms", THROUGHPUT, PROFILE, SERVE),
    layer("core.profile_share", "fraction", THROUGHPUT, PROFILE, SERVE),
    layer("cache.whole_minst_per_s", "Minst/s", THROUGHPUT, &["study-profile", "efficacy"], &[]),
    layer("pin.bbv_minst_per_s", "Minst/s", THROUGHPUT, EFFICACY, PROFILE),
    layer("simpoint.select_ms", "ms", P50, CLUSTER, PROFILE),
    layer("simpoint.select_share", "fraction", P50, CLUSTER, PROFILE),
    layer("simpoint.slices", "count", P50, CLUSTER, PROFILE),
    layer("simpoint.k", "count", P50, CLUSTER, PROFILE),
    layer("pinball.capture_ms", "ms", P50, CLUSTER, &[]),
    layer("cache.replay_ms", "ms", TAIL, REPLAY_ON, EFFICACY),
    layer("cache.replay_share", "fraction", TAIL, REPLAY_ON, EFFICACY),
    layer("cache.replay_minst", "Minst", TAIL, REPLAY_ON, EFFICACY),
    layer("core.render_ms", "ms", THROUGHPUT, CLUSTER, &[]),
    layer("uarch.whole_ms", "ms", THROUGHPUT, EFFICACY, NOT_EFFICACY),
    layer("uarch.whole_minst_per_s", "Minst/s", THROUGHPUT, EFFICACY, NOT_EFFICACY),
    layer("uarch.regional_ms", "ms", THROUGHPUT, EFFICACY, NOT_EFFICACY),
    layer("uarch.share", "fraction", THROUGHPUT, EFFICACY, NOT_EFFICACY),
    layer("uarch.sampled_fraction", "count", THROUGHPUT, EFFICACY, NOT_EFFICACY),
    layer("serve.hit_ms_p50", "ms", &["op_ms_p50"], SERVE, STUDIES),
    layer("serve.cold_ms_p50", "ms", P99, SERVE, &[]),
    layer("serve.exec_ms_p50", "ms", P99, SERVE, &[]),
    layer("serve.wait_ms_p50", "ms", P99, SERVE, &[]),
    layer("serve.hit_ratio", "fraction", THROUGHPUT, SERVE, &[]),
    layer("serve.executions", "count", THROUGHPUT, SERVE, &[]),
    layer("serve.coalesced", "count", THROUGHPUT, SERVE, &[]),
    layer("serve.stage_hits", "count", THROUGHPUT, SERVE, &[]),
    layer("serve.busy_rejects", "count", THROUGHPUT, SERVE, &[]),
    layer("fleet.router_ms_p50", "ms", P50, SERVE, &[]),
    layer("fleet.peer_warms_per_request", "count", P50, SERVE, &[]),
    layer("fleet.degraded", "count", P50, SERVE, &[]),
    // The benchmark's own cost; it moves no end-to-end metric.
    layer("trace.overhead_pct", "%", &[], &[], &[]),
    layer("trace.unattributed_pct", "%", &[], &[], &[]),
];

/// What a workload run measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// Program-generation milliseconds of each set-up repetition.
    pub build_ms: Vec<f64>,
    /// Ops measured.
    pub ops: usize,
    /// The latency samples behind the percentiles, one per op, in groups:
    /// one group per benchmark (study, efficacy) or a single group of
    /// every request (serve).
    pub latencies_ms: Vec<Vec<f64>>,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Ops whose output was wrong or missing.
    pub failed: usize,
    /// Deterministic accuracy of the outputs.
    pub accuracy: Vec<(&'static str, f64)>,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<String, f64>,
}

/// Nearest-rank median.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// The nearest-rank `p`-th percentile of each latency group, averaged
/// over the groups, so every benchmark weighs the same however long its
/// ops take.
pub fn group_percentile(groups: &[Vec<f64>], p: f64) -> f64 {
    groups.iter().map(|g| percentile(g, p)).sum::<f64>() / groups.len() as f64
}

/// The highest whole percentile of `n` samples that still has at least
/// ten samples beyond its nearest-rank position.
pub fn tail_percentile(n: usize) -> Option<usize> {
    (1..100).rev().find(|&p| (p * n).div_ceil(100) + 10 <= n)
}

/// Mean |regional − whole| L3 miss rate of `sampsim run` documents, in
/// percentage points.
pub fn l3_miss_err_pp(docs: &[&str]) -> f64 {
    let l3 = |doc: &Value, side: &str| doc.get(side)?.get("miss_rates_pct")?.get("l3")?.as_f64();
    let errs: Vec<f64> = docs
        .iter()
        .map(|text| {
            let doc = json::parse(text).ok();
            let doc = doc.as_ref();
            match (
                doc.and_then(|d| l3(d, "whole")),
                doc.and_then(|d| l3(d, "regional")),
            ) {
                (Some(w), Some(r)) => (r - w).abs(),
                _ => f64::NAN,
            }
        })
        .collect();
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// Mean |CPI error| over every (benchmark, strategy) row of `sampsim
/// compare` reports, in percent.
pub fn cpi_err_pct(reports: &[&str]) -> f64 {
    let mut errs = Vec::new();
    for text in reports {
        let doc = json::parse(text).ok();
        let rows = doc.as_ref().and_then(|d| d.get("strategies")?.as_array());
        for row in rows.unwrap_or(&[]) {
            let err = row.get("cpi").and_then(|c| c.get("error_pct")?.as_f64());
            errs.push(err.map_or(f64::NAN, f64::abs));
        }
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}

/// The committed FNV-64 digests of every deterministic output.
pub mod digests {
    use sampsim_util::hash::fnv64;

    const TABLE: &str = include_str!("digests.txt");

    /// The pinned digest of output `key`.
    pub fn expected(key: &str) -> Option<u64> {
        TABLE
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.split_once(' '))
            .find(|(k, _)| *k == key)
            .and_then(|(_, hex)| u64::from_str_radix(hex.trim(), 16).ok())
    }

    /// Whether `output` is byte-identical to the pinned output `key`.
    pub fn matches(key: &str, output: &str) -> bool {
        expected(key) == Some(fnv64(output.as_bytes()))
    }

    /// One table line for `output`.
    pub fn line(key: &str, output: &str) -> String {
        format!("{key} {:016x}", fnv64(output.as_bytes()))
    }
}

/// Every `(digest key, output)` pair the workloads check, computed
/// in-process.
fn reference_outputs() -> Result<Vec<(String, String)>, String> {
    let jobs = sampsim_exec::Jobs::new(JOBS)?;
    let mut out = Vec::new();
    for w in WORKLOADS {
        match &w.kind {
            Kind::Study(spec) | Kind::Efficacy(spec) => {
                for bench in spec.benches {
                    let doc = if matches!(w.kind, Kind::Study(_)) {
                        study::study_op(&spec.request(bench), jobs)?
                    } else {
                        let program = sampsim_serve::service::find_benchmark(bench)?
                            .scaled(sampsim_util::scale::Scale::new(spec.scale))
                            .build();
                        study::efficacy_op(&program, spec, jobs)?
                    };
                    out.push((format!("{}/{bench}", w.name), doc));
                }
            }
            Kind::Serve => {
                for i in 0..serve::POOL_MAXK.len() {
                    let request = serve::parse_run(&serve::pool_line(i))?;
                    out.push((serve::pool_key(i), study::study_op(&request, jobs)?));
                }
            }
        }
    }
    Ok(out)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    digests: bool,
}

const USAGE: &str = "usage: e2e-bench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--spans FILE]\n       e2e-bench --digests";

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut out = Args {
            workload: String::new(),
            seed: 42,
            seconds: 30.0,
            trace: false,
            spans: None,
            digests: false,
        };
        while let Some(flag) = args.next() {
            if flag == "--digests" {
                out.digests = true;
                continue;
            }
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let bad = || format!("bad value for {flag}: {value}");
            match flag.as_str() {
                "--workload" => out.workload = value.clone(),
                "--seed" => out.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    out.seconds = value.parse().map_err(|_| bad())?;
                    if !(out.seconds > 0.0 && out.seconds <= 3600.0) {
                        return Err(format!("--seconds must be in (0, 3600], got {value}"));
                    }
                }
                "--trace" => {
                    out.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    }
                }
                "--spans" => out.spans = Some(value),
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !out.digests && out.workload.is_empty() {
            return Err("--workload is required".into());
        }
        Ok(out)
    }
}

/// The end-to-end metric values of an untraced run.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64)> {
    let rss = sampsim_perf::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1u64 << 20) as f64);
    vec![
        ("setup_s", median(&o.setup_s)),
        ("ops_per_s", o.ops as f64 / o.wall_s),
        ("op_ms_p50", group_percentile(&o.latencies_ms, 50.0)),
        ("op_ms_p99", group_percentile(&o.latencies_ms, 99.0)),
        ("peak_rss_mb", rss),
    ]
}

/// The per-layer metric values of a traced run; a layer the workload does
/// not exercise reads 0.
fn per_layer(o: &Outcome) -> Vec<(&'static str, f64)> {
    PER_LAYER
        .iter()
        .map(|m| {
            let value = match m.name {
                "spec2017.build_ms" => median(&o.build_ms),
                name => o.layers.get(name).copied().unwrap_or(0.0),
            };
            (m.name, value)
        })
        .collect()
}

fn unit(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .or_else(|| PER_LAYER.iter().find(|m| m.name == name).map(|m| m.unit))
        .expect("every emitted metric is declared")
}

fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2e-bench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.digests {
        return match reference_outputs() {
            Ok(outputs) => {
                for (key, doc) in outputs {
                    println!("{}", digests::line(&key, &doc));
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("e2e-bench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "e2e-bench: unknown workload {:?} (one of: {})",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let mut tracer = args.trace.then(Tracer::new);
    let (seed, seconds) = (args.seed, args.seconds);
    let outcome = match &workload.kind {
        Kind::Study(spec) => study::run(workload.name, spec, false, seed, seconds, tracer.as_mut()),
        Kind::Efficacy(spec) => {
            study::run(workload.name, spec, true, seed, seconds, tracer.as_mut())
        }
        Kind::Serve => serve::run(seed, seconds, tracer.as_mut()),
    };
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("e2e-bench: {}: {e}", workload.name);
            return ExitCode::FAILURE;
        }
    };
    if let (Some(t), Some(path)) = (&tracer, &args.spans) {
        if let Err(e) = std::fs::write(path, t.to_json_lines()) {
            eprintln!("e2e-bench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let ops = outcome.ops;
    let groups = &outcome.latencies_ms;
    let counts: Vec<String> = groups.iter().map(|g| g.len().to_string()).collect();
    // The tail every group can support.
    let n = groups.iter().map(Vec::len).min().unwrap_or(0);
    let tail = tail_percentile(n).map_or("null".into(), |p| {
        format!(
            "{{\"pct\":{p},\"ms\":{},\"beyond\":{}}}",
            number(group_percentile(groups, p as f64)),
            n - (p * n).div_ceil(100)
        )
    });
    let accuracy: String = outcome
        .accuracy
        .iter()
        .map(|(name, v)| format!(",\"{name}\":{}", number(*v)))
        .collect();
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "{{\"workload\":\"{}\",\"seed\":{seed},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\"jobs\":{JOBS},\
         \"ops\":{ops},\"ops_failed\":{},\"error_pct\":{},\"samples\":{{\"setup_s\":{},\"latency_groups\":[{}]}},\
         \"tail\":{tail}{accuracy}}}",
        workload.name,
        number(seconds),
        u8::from(args.trace),
        outcome.failed,
        number(100.0 * outcome.failed as f64 / ops.max(1) as f64),
        outcome.setup_s.len(),
        counts.join(","),
    );
    let metrics = if args.trace {
        per_layer(&outcome)
    } else {
        end_to_end(&outcome)
    };
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "\"{name}\":{{\"value\":{},\"unit\":\"{}\"}}",
                number(*v),
                unit(name)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && ops > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        ops.max(1),
        outcome.failed,
        metrics.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../../../BENCHMARK.json");

    fn names<'a>(doc: &'a Value, key: &str) -> Vec<&'a Value> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json: {key} is not a list"))
            .iter()
            .collect()
    }

    fn str_of<'a>(v: &'a Value, key: &str) -> &'a str {
        v.get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("{key} missing in {v:?}"))
    }

    fn valid_name(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_lists_exactly_what_the_binary_emits() {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = names(&doc, "workloads")
            .iter()
            .map(|w| str_of(w, "name"))
            .collect();
        let ours: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        assert_eq!(workloads, ours);
        for w in names(&doc, "workloads") {
            let why = str_of(w, "why");
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        assert!((2..=8).contains(&workloads.len()));

        // The metric names the binary prints, in print order.
        let outcome = Outcome {
            setup_s: vec![1.0],
            ops: 1,
            latencies_ms: vec![vec![1.0]],
            wall_s: 1.0,
            ..Outcome::default()
        };
        let e2e: Vec<&str> = end_to_end(&outcome).iter().map(|(n, _)| *n).collect();
        let layers: Vec<&str> = per_layer(&outcome).iter().map(|(n, _)| *n).collect();
        let declared = |key: &str| -> Vec<&str> {
            names(&doc, key)
                .iter()
                .map(|m| {
                    let name = str_of(m, "name");
                    assert_eq!(str_of(m, "unit"), unit(name), "{name}");
                    assert!(["lower", "higher"].contains(&str_of(m, "better")), "{name}");
                    name
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), e2e);
        assert_eq!(declared("per_layer"), layers);
        assert!((1..=16).contains(&e2e.len()));
        assert!((1..=128).contains(&layers.len()));
        assert!(e2e.contains(&"setup_s"));
        for m in names(&doc, "end_to_end") {
            let bound = m.get("bound").and_then(Value::as_f64).expect("bound");
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }

        let mut all: Vec<&str> = workloads
            .iter()
            .chain(&e2e)
            .chain(&layers)
            .copied()
            .collect();
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), before, "names are used once");
    }

    #[test]
    fn every_layer_metric_maps_to_an_end_to_end_metric_and_workload() {
        let e2e: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        let workloads: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        for m in PER_LAYER {
            if m.name.starts_with("trace.") {
                continue;
            }
            assert!(!m.moves.is_empty() && !m.on.is_empty(), "{}", m.name);
            assert!(m.moves.iter().all(|e| e2e.contains(e)), "{}", m.name);
            assert!(
                m.on.iter().chain(m.control).all(|w| workloads.contains(w)),
                "{}",
                m.name
            );
            assert!(m.on.iter().all(|w| !m.control.contains(w)), "{}", m.name);
        }
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(3000), Some(99));
        assert_eq!(tail_percentile(1000), Some(99));
        assert_eq!(tail_percentile(999), Some(98));
        assert_eq!(tail_percentile(20), Some(50));
        assert_eq!(tail_percentile(10), None);
        for n in 11..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(n - (p * n).div_ceil(100) >= 10, "n={n}");
            assert!(p == 99 || n - ((p + 1) * n).div_ceil(100) < 10, "n={n}");
        }
    }

    #[test]
    fn group_percentiles_weigh_every_group_the_same() {
        let groups = vec![vec![3.0, 1.0, 2.0], vec![10.0, 30.0, 20.0, 40.0, 50.0]];
        assert_eq!(group_percentile(&groups, 50.0), (2.0 + 30.0) / 2.0);
        assert_eq!(group_percentile(&groups, 99.0), (3.0 + 50.0) / 2.0);
        assert_eq!(group_percentile(&groups[..1], 99.0), 3.0);
    }

    #[test]
    fn every_checked_output_has_a_digest() {
        for w in WORKLOADS {
            let keys: Vec<String> = match &w.kind {
                Kind::Study(s) | Kind::Efficacy(s) => s
                    .benches
                    .iter()
                    .map(|b| format!("{}/{b}", w.name))
                    .collect(),
                Kind::Serve => (0..serve::POOL_MAXK.len()).map(serve::pool_key).collect(),
            };
            for key in keys {
                assert!(digests::expected(&key).is_some(), "{key}");
            }
        }
    }

    #[test]
    fn args_parse_the_command_line() {
        let parse = |s: &str| Args::parse(s.split_whitespace().map(String::from));
        let a = parse("--workload efficacy --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("efficacy", 7, 10.0, true)
        );
        assert!(parse("--workload x --trace 2").is_err());
        assert!(parse("--seed 1").is_err());
        assert!(parse("--workload x --bogus 1").is_err());
        assert!(parse("--digests").unwrap().digests);
    }
}
