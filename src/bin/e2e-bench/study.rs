//! The `study-*` and `efficacy` workloads.
//!
//! A study op is the exact `sampsim run` document
//! (`service::run_document` with `NoCache`); an efficacy op is the
//! `sampsim compare` report (`compare::compare_strategies`). The traced
//! variants recompose the same output from each layer's public entry
//! points, so the benchmark can time every layer without touching the
//! program; they must reproduce the untraced bytes exactly.

use crate::trace::Tracer;
use crate::{digests, Outcome};
use sampsim_cache::configs;
use sampsim_core::compare::{
    compare_strategies, CompareReport, Estimate, MissRateEstimates, StrategyReport,
};
use sampsim_core::metrics::{aggregate_weighted, whole_as_aggregate};
use sampsim_core::pipeline::{PinPointsConfig, Pipeline, PipelineResult};
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::stage_cache::{profile_stage_key, NoCache, ProfileStage, StageCache};
use sampsim_exec::Jobs;
use sampsim_pinball::WholePinball;
use sampsim_serve::service::{self, RunRequest};
use sampsim_simpoint::strategy::reseeded_simpoint_options;
use sampsim_simpoint::{
    Rss, RssOptions, SamplingStrategy, SimPoint, SimPointOptions, SimPointsResult, StrategyInput,
    StrategySpec,
};
use sampsim_uarch::CoreConfig;
use sampsim_util::rng::Xoshiro256StarStar;
use sampsim_util::scale::Scale;
use sampsim_util::stats::{relative_error_pct, Summary};
use sampsim_workload::Program;
use std::collections::BTreeMap;
use std::time::Instant;

/// Replicates per strategy in an efficacy op.
pub const REPLICATES: usize = 2;

/// Program generation is sub-millisecond, so the set-up median is taken
/// over this many repetitions.
const SETUP_REPS: usize = 101;

/// The inputs of a study or efficacy workload. They never depend on the
/// seed.
pub struct StudySpec {
    pub benches: &'static [&'static str],
    pub scale: f64,
    pub maxk: usize,
}

impl StudySpec {
    /// The `sampsim run` request for one benchmark.
    pub fn request(&self, bench: &str) -> RunRequest {
        RunRequest {
            bench: bench.to_string(),
            scale: self.scale,
            slice: None,
            maxk: Some(self.maxk),
            strategy: None,
            kmeans: None,
        }
    }

    /// The configuration `sampsim compare` builds for these options.
    pub fn compare_config(&self) -> PinPointsConfig {
        PinPointsConfig {
            slice_size: Scale::new(self.scale).apply(10_000),
            simpoint: SimPointOptions {
                max_k: self.maxk,
                ..SimPointOptions::default()
            },
            ..PinPointsConfig::default()
        }
    }

    fn programs(&self) -> Result<Vec<Program>, String> {
        self.benches
            .iter()
            .map(|b| {
                Ok(service::find_benchmark(b)?
                    .scaled(Scale::new(self.scale))
                    .build())
            })
            .collect()
    }
}

/// One untraced study op: the `sampsim run` stdout document.
pub fn study_op(request: &RunRequest, jobs: Jobs) -> Result<String, String> {
    service::run_document(request, jobs, &NoCache).map_err(|e| e.to_string())
}

/// One untraced efficacy op: the `sampsim compare` report.
pub fn efficacy_op(program: &Program, spec: &StudySpec, jobs: Jobs) -> Result<String, String> {
    compare_strategies(program, &spec.compare_config(), REPLICATES, jobs)
        .map(|report| report.to_json())
        .map_err(|e| e.to_string())
}

/// [`study_op`] recomposed from the layers' public calls, each in its
/// own span under `root`.
pub fn study_op_traced(
    t: &mut Tracer,
    root: usize,
    request: &RunRequest,
    jobs: Jobs,
) -> Result<String, String> {
    let prepared = t
        .child(root, "analyze.preflight", || service::prepare(request))
        .map_err(|e| e.to_string())?;
    let (program, config) = (&prepared.program, &prepared.config);
    let pipeline = Pipeline::new(config.clone());
    let stage = t.child(root, "core.profile", || {
        // What the pipeline does with a `NoCache` stage cache: profile,
        // then offer the encoded stage to the cache.
        let (bbvs, starts, metrics) = pipeline.profile_jobs(program, jobs);
        let stage = ProfileStage {
            bbvs,
            starts,
            metrics,
        };
        NoCache.put(profile_stage_key(program, config), &stage.to_bytes());
        stage
    });
    let input = StrategyInput {
        bbvs: &stage.bbvs,
        slice_size: config.slice_size,
    };
    let selection = t
        .child(root, "simpoint.select", || {
            config.strategy.build(&config.simpoint).select(&input, jobs)
        })
        .map_err(|e| e.to_string())?;
    t.count("simpoint.slices", stage.bbvs.len() as f64);
    t.count("simpoint.k", selection.k as f64);
    let (simpoints, replicates) = selection.into_parts(config.slice_size);
    let (regional, whole) = t.child(root, "pinball.capture", || {
        (
            pipeline.regionals_for(program, &simpoints, &stage.starts),
            WholePinball::capture(program),
        )
    });
    let replayed: u64 = regional
        .iter()
        .map(|pb| pb.length + pb.warmup_insts())
        .sum();
    t.count("cache.replay_insts", replayed as f64);
    let regions = t
        .child(root, "cache.replay", || {
            runs::run_regions_functional_jobs(
                program,
                &regional,
                configs::allcache_table1(),
                WarmupMode::Checkpointed,
                jobs,
            )
        })
        .map_err(|e| e.to_string())?;
    Ok(t.child(root, "core.render", || {
        let result = PipelineResult {
            whole,
            num_slices: stage.bbvs.len() as u64,
            whole_metrics: stage.metrics,
            simpoints,
            regional,
            replicates,
        };
        let agg = aggregate_weighted(&regions);
        let whole = whole_as_aggregate(&result.whole_metrics);
        service::run_json(&prepared.name, &result, &whole, &agg)
    }))
}

/// [`efficacy_op`] recomposed from the layers' public calls, following
/// `compare_strategies` step for step.
pub fn efficacy_op_traced(
    t: &mut Tracer,
    root: usize,
    program: &Program,
    spec: &StudySpec,
    jobs: Jobs,
) -> Result<String, String> {
    let config = spec.compare_config();
    let pipeline = Pipeline::new(config.clone());
    let preflight = t.child(root, "analyze.preflight", || pipeline.preflight(program));
    if preflight.has_errors() {
        return Err(format!("{} failed preflight", program.name()));
    }
    let (bbvs, starts, _) = t.child(root, "core.profile", || {
        pipeline.profile_jobs(program, jobs)
    });
    let input = StrategyInput {
        bbvs: &bbvs,
        slice_size: config.slice_size,
    };
    let whole = t.child(root, "uarch.whole", || {
        runs::run_whole_timing(program, CoreConfig::table3(), configs::i7_table3())
    });
    t.count("uarch.whole_insts", whole.instructions as f64);
    let truth = t.child(root, "core.render", || whole_as_aggregate(&whole));
    let truth_cpi = truth.cpi.ok_or("timing truth carries no CPI")?;
    let truth_mr = truth
        .miss_rates
        .ok_or("timing truth carries no miss rates")?;

    let select = |t: &mut Tracer, strategy: &dyn SamplingStrategy| {
        let selection = t
            .child(root, "simpoint.select", || strategy.select(&input, jobs))
            .map_err(|e| e.to_string())?;
        t.count("simpoint.slices", bbvs.len() as f64);
        t.count("simpoint.k", selection.k as f64);
        Ok::<_, String>(selection)
    };
    let mut strategies = Vec::new();
    for strategy in StrategySpec::registry() {
        let point_sets: Vec<Vec<SimPoint>> = match &strategy {
            StrategySpec::Rss(base) => {
                let rss = Rss::new(RssOptions {
                    replicates: REPLICATES,
                    ..*base
                });
                select(t, &rss)?.replicates
            }
            _ => {
                let mut sets = Vec::with_capacity(REPLICATES);
                for r in 0..REPLICATES as u64 {
                    let simpoint = if matches!(strategy, StrategySpec::SimPoint) {
                        reseeded_simpoint_options(&config.simpoint, r)
                    } else {
                        config.simpoint
                    };
                    sets.push(select(t, &*strategy.reseeded(r).build(&simpoint))?.points);
                }
                sets
            }
        };
        let mut samples: [Vec<f64>; 5] = Default::default();
        for points in &point_sets {
            let simpoints = SimPointsResult {
                k: points.len(),
                slice_size: config.slice_size,
                assignments: Vec::new(),
                points: points.clone(),
                bic_scores: Vec::new(),
                avg_variance: 0.0,
            };
            let regional = t.child(root, "pinball.capture", || {
                pipeline.regionals_for(program, &simpoints, &starts)
            });
            let simulated: u64 = regional
                .iter()
                .map(|pb| pb.length + pb.warmup_insts())
                .sum();
            t.count(
                "uarch.sampled_fraction",
                simulated as f64 / whole.instructions as f64,
            );
            let measured = t
                .child(root, "uarch.regional", || {
                    runs::run_regions_timing_jobs(
                        program,
                        &regional,
                        CoreConfig::table3(),
                        configs::i7_table3(),
                        WarmupMode::Checkpointed,
                        jobs,
                    )
                })
                .map_err(|e| e.to_string())?;
            let agg = t.child(root, "core.render", || aggregate_weighted(&measured));
            let mr = agg
                .miss_rates
                .ok_or("timing replay carries no miss rates")?;
            let cpi = agg.cpi.ok_or("timing replay carries no CPI")?;
            for (column, value) in samples.iter_mut().zip([cpi, mr.l1i, mr.l1d, mr.l2, mr.l3]) {
                column.push(value);
            }
        }
        let [cpi, l1i, l1d, l2, l3] = &samples;
        strategies.push(t.child(root, "core.render", || StrategyReport {
            strategy: strategy.name().to_string(),
            regions: point_sets[0].len(),
            replicates: point_sets.len(),
            cpi: estimate(cpi, truth_cpi),
            miss_rates: MissRateEstimates {
                l1i: estimate(l1i, truth_mr.l1i),
                l1d: estimate(l1d, truth_mr.l1d),
                l2: estimate(l2, truth_mr.l2),
                l3: estimate(l3, truth_mr.l3),
            },
        }));
    }
    Ok(t.child(root, "core.render", || {
        CompareReport {
            bench: program.name().to_string(),
            slices: bbvs.len() as u64,
            slice_size: config.slice_size,
            replicates: REPLICATES,
            truth,
            strategies,
        }
        .to_json()
    }))
}

/// The report's replicate statistics, computed as `compare` computes them.
fn estimate(samples: &[f64], truth: f64) -> Estimate {
    let s: Summary = samples.iter().copied().collect();
    let mean = s.mean();
    let ci95 = if samples.len() >= 2 {
        1.96 * s.stddev() / (samples.len() as f64).sqrt()
    } else {
        0.0
    };
    Estimate {
        mean,
        ci95,
        error_pct: relative_error_pct(mean, truth),
    }
}

/// Runs a study (`efficacy == false`) or efficacy workload.
///
/// Untraced: seed-shuffled rounds (every benchmark once per round) until
/// the measured time is closest to `seconds` at a round boundary. Traced:
/// the layer probes first, then rounds in which every op runs both
/// untraced and traced (alternating which goes first), for what remains
/// of `seconds`.
pub fn run(
    name: &str,
    spec: &StudySpec,
    efficacy: bool,
    seed: u64,
    seconds: f64,
    tracer: Option<&mut Tracer>,
) -> Result<Outcome, String> {
    let jobs = Jobs::new(crate::JOBS)?;
    let mut out = Outcome::default();
    let mut programs = Vec::new();
    for _ in 0..SETUP_REPS {
        let started = Instant::now();
        programs = spec.programs()?;
        let s = started.elapsed().as_secs_f64();
        out.setup_s.push(s);
        out.build_ms.push(s * 1e3);
    }
    let requests: Vec<RunRequest> = spec.benches.iter().map(|b| spec.request(b)).collect();
    let untraced = |i: usize| {
        if efficacy {
            efficacy_op(&programs[i], spec, jobs)
        } else {
            study_op(&requests[i], jobs)
        }
    };
    let check = |i: usize, output: &Result<String, String>| match output {
        Ok(doc) => digests::matches(&format!("{name}/{}", spec.benches[i]), doc),
        Err(e) => {
            eprintln!("{}: {e}", spec.benches[i]);
            false
        }
    };
    let mut first_outputs: Vec<Option<String>> = vec![None; spec.benches.len()];
    let mut op_ms = vec![Vec::new(); spec.benches.len()];
    let mut keep = |i: usize, output: Result<String, String>, ms: f64| {
        op_ms[i].push(ms);
        if let Ok(doc) = output {
            first_outputs[i].get_or_insert(doc);
        }
    };

    let Some(t) = tracer else {
        out.wall_s = rounds(spec.benches.len(), seed, seconds, |i| {
            let (output, ms) = timed(|| untraced(i));
            out.ops += 1;
            out.failed += usize::from(!check(i, &output));
            keep(i, output, ms);
        });
        out.latencies_ms = op_ms;
        out.accuracy = accuracy(efficacy, &first_outputs);
        return Ok(out);
    };

    let started = Instant::now();
    probes(t, spec, &programs, &mut out, jobs);
    let remaining = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    let mut pairs = Pairs::default();
    out.wall_s = rounds(spec.benches.len(), seed, remaining, |i| {
        let (a, b) = pairs.run(
            t,
            || untraced(i),
            |t, root| {
                if efficacy {
                    efficacy_op_traced(t, root, &programs[i], spec, jobs)
                } else {
                    study_op_traced(t, root, &requests[i], jobs)
                }
            },
        );
        out.ops += 1;
        let same = matches!((&a, &b), (Ok(x), Ok(y)) if x == y);
        out.failed += usize::from(!(same && check(i, &a)));
        keep(i, a, pairs.last_untraced_ms);
    });
    out.latencies_ms = op_ms;
    out.accuracy = accuracy(efficacy, &first_outputs);
    pairs.layer_metrics(t, &mut out.layers);
    Ok(out)
}

/// Paired untraced/traced executions of the same ops: the traced run's
/// "op" root spans, and the wall time of each side.
#[derive(Default)]
pub struct Pairs {
    ops: u64,
    untraced_ms: f64,
    traced_ms: f64,
    /// The untraced wall time of the last op run.
    pub last_untraced_ms: f64,
}

impl Pairs {
    /// Runs one op both ways, alternating which side goes first.
    pub fn run<R>(
        &mut self,
        t: &mut Tracer,
        plain: impl FnOnce() -> R,
        traced: impl FnOnce(&mut Tracer, usize) -> R,
    ) -> (R, R) {
        let op = self.ops;
        let ((a, a_ms), (b, b_ms)) = if op.is_multiple_of(2) {
            let a = timed(plain);
            (a, timed(|| t.op("op", op, traced)))
        } else {
            let b = timed(|| t.op("op", op, traced));
            (timed(plain), b)
        };
        self.ops += 1;
        self.untraced_ms += a_ms;
        self.traced_ms += b_ms;
        self.last_untraced_ms = a_ms;
        (a, b)
    }

    /// The per-layer metrics of the traced ops: mean self time per op,
    /// shares of op wall time, work counts, and the tracing overhead.
    pub fn layer_metrics(&self, t: &Tracer, layers: &mut BTreeMap<String, f64>) {
        let ops = self.ops.max(1) as f64;
        let own = t.self_ms();
        let op_ms = t.root_ms("op");
        let own_ms = |layer: &str| own.get(layer).copied().unwrap_or(0.0);
        let per_op = |layer: &str| own_ms(layer) / ops;
        let share = |names: &[&str]| names.iter().map(|l| own_ms(l)).sum::<f64>() / op_ms;
        let mean = |name: &str| match t.count_total(name) {
            (_, 0) => 0.0,
            (sum, n) => sum / n as f64,
        };
        for layer in [
            "analyze.preflight",
            "core.profile",
            "simpoint.select",
            "pinball.capture",
            "cache.replay",
            "core.render",
            "uarch.whole",
            "uarch.regional",
        ] {
            layers.insert(format!("{layer}_ms"), per_op(layer));
        }
        layers.insert("core.profile_share".into(), share(&["core.profile"]));
        layers.insert("simpoint.select_share".into(), share(&["simpoint.select"]));
        layers.insert("cache.replay_share".into(), share(&["cache.replay"]));
        layers.insert(
            "uarch.share".into(),
            share(&["uarch.whole", "uarch.regional"]),
        );
        layers.insert("simpoint.slices".into(), mean("simpoint.slices"));
        layers.insert("simpoint.k".into(), mean("simpoint.k"));
        layers.insert(
            "cache.replay_minst".into(),
            t.count_total("cache.replay_insts").0 / ops / 1e6,
        );
        let whole_insts = t.count_total("uarch.whole_insts").0;
        if whole_insts > 0.0 {
            layers.insert(
                "uarch.whole_minst_per_s".into(),
                whole_insts / 1e6 / (own["uarch.whole"] / 1e3),
            );
        }
        layers.insert(
            "uarch.sampled_fraction".into(),
            mean("uarch.sampled_fraction"),
        );
        layers.insert(
            "trace.overhead_pct".into(),
            100.0 * (self.traced_ms / self.untraced_ms - 1.0),
        );
        layers.insert(
            "trace.unattributed_pct".into(),
            100.0 * t.max_unattributed("op"),
        );
    }
}

/// Runs `f`, returning its result and wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64() * 1e3)
}

/// Seed-shuffled rounds of `op(0..n)`: stops at the round boundary
/// closest to `seconds` (at least one round). Returns the wall seconds
/// of the rounds run.
pub fn rounds(n: usize, seed: u64, seconds: f64, mut op: impl FnMut(usize)) -> f64 {
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let started = Instant::now();
    let mut done = 0u32;
    loop {
        let mut order: Vec<usize> = (0..n).collect();
        rng.shuffle(&mut order);
        for i in order {
            op(i);
        }
        done += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if elapsed + elapsed / f64::from(done) / 2.0 >= seconds {
            return elapsed;
        }
    }
}

/// Per-layer throughput probes, run once per benchmark outside any op
/// span: whole-program `allcache` simulation (`cache`) and the BBV
/// profiling pass without cache simulation (`pin`, through
/// `profile_jobs` with `profile_cache: None`, which the compare
/// configuration already has).
pub fn probes(
    t: &mut Tracer,
    spec: &StudySpec,
    programs: &[Program],
    out: &mut Outcome,
    jobs: Jobs,
) {
    let bbv = Pipeline::new(spec.compare_config());
    let mut insts = 0.0;
    for (i, program) in programs.iter().enumerate() {
        insts += program.total_insts() as f64;
        t.op("probe", i as u64, |t, root| {
            t.child(root, "cache.whole_probe", || {
                runs::run_whole_functional(program, configs::allcache_table1())
            });
            t.child(root, "pin.bbv_probe", || bbv.profile_jobs(program, jobs));
        });
    }
    let own = t.self_ms();
    out.layers.insert(
        "cache.whole_minst_per_s".into(),
        insts / 1e6 / (own["cache.whole_probe"] / 1e3),
    );
    out.layers.insert(
        "pin.bbv_minst_per_s".into(),
        insts / 1e6 / (own["pin.bbv_probe"] / 1e3),
    );
}

/// The deterministic accuracy of the outputs: mean |regional − whole|
/// L3 miss rate (study documents) or mean |CPI error| over every
/// (benchmark, strategy) row (compare reports).
fn accuracy(efficacy: bool, outputs: &[Option<String>]) -> Vec<(&'static str, f64)> {
    let docs: Vec<&str> = outputs.iter().flatten().map(String::as_str).collect();
    if efficacy {
        vec![("cpi_err_pct", crate::cpi_err_pct(&docs))]
    } else {
        vec![("l3_miss_err_pp", crate::l3_miss_err_pp(&docs))]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TINY: StudySpec = StudySpec {
        benches: &["620.omnetpp_s"],
        scale: 0.002,
        maxk: 4,
    };

    #[test]
    fn traced_study_recomposition_equals_run_document() {
        let jobs = Jobs::new(2).unwrap();
        let request = TINY.request(TINY.benches[0]);
        let mut t = Tracer::new();
        let traced = t.op("op", 0, |t, root| study_op_traced(t, root, &request, jobs));
        assert_eq!(traced.unwrap(), study_op(&request, jobs).unwrap());
        let own = t.self_ms();
        for layer in [
            "analyze.preflight",
            "core.profile",
            "simpoint.select",
            "pinball.capture",
            "cache.replay",
            "core.render",
        ] {
            assert!(own.contains_key(layer), "{layer} was not timed");
        }
    }

    #[test]
    fn traced_efficacy_recomposition_equals_compare_strategies() {
        let jobs = Jobs::new(2).unwrap();
        let program = TINY.programs().unwrap().remove(0);
        let mut t = Tracer::new();
        let traced = t.op("op", 0, |t, root| {
            efficacy_op_traced(t, root, &program, &TINY, jobs)
        });
        let reference = compare_strategies(&program, &TINY.compare_config(), 2, jobs)
            .unwrap()
            .to_json();
        assert_eq!(traced.unwrap(), reference);
        assert!(t.self_ms().contains_key("uarch.whole"));
    }

    #[test]
    fn rounds_are_seeded_permutations() {
        let order = |seed| {
            let mut seen = Vec::new();
            rounds(6, seed, 1e-9, |i| seen.push(i));
            seen
        };
        let a = order(42);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..6).collect::<Vec<_>>());
        assert_eq!(a, order(42));
        assert_ne!(a, order(7));
    }
}
