//! The cross-strategy efficacy study: every registered sampling strategy
//! versus whole-program truth, with error bars.
//!
//! This is the engine behind `sampsim compare`. Whole-program truth is one
//! sequential walk of the full execution through the timing model; its
//! state carries across the whole run, so it cannot shard. It runs on a
//! reserved worker ([`sampsim_exec::join`]) while the other workers
//! produce the sampled side, and the two meet only where the estimates
//! are formed. The sampled side profiles the program **once** (the
//! strategy-agnostic BBV pass, exactly what the stage cache shares across
//! strategies), then evaluates each strategy in [`STRATEGY_NAMES`] order:
//!
//! 1. Build `replicates` independent selections. Single-shot strategies
//!    (simpoint, stratified2p) are seed-resampled — replicate `r` shifts
//!    the strategy's master seed by `r · φ64` (replicate 0 is the base
//!    configuration); `rss` produces its replicate sets natively.
//! 2. Replay every replicate's regions in the timing model and form the
//!    weighted aggregate (CPI + per-level cache miss rates). Replicates
//!    share one warmup policy — the plain preceding-window warmup that
//!    synthetic point sets get — so strategies are compared like for
//!    like.
//!
//! With truth in hand, each metric is reported as mean over replicates, a
//! normal-theory 95% confidence half-width (`1.96·s/√R`), and the
//! relative error of the mean against truth.
//!
//! The report is schema-versioned single-line JSON ([`SCHEMA`]); floats
//! render via `{:?}` (shortest exact representation), and every stage is
//! deterministic per job count, so the bytes are identical across
//! `--jobs` values. [`validate_report`] checks a report against its
//! declared [`schema`], which includes **the registry**: a strategy
//! registered in the engine but missing from a report (or vice versa) is
//! a validation failure, which is how `scripts/check.sh` fails loudly on
//! registry drift.

use crate::error::CoreError;
use crate::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
use crate::pipeline::{PinPointsConfig, Pipeline};
use crate::runs::{run_regions_timing_jobs, run_whole_timing, WarmupMode};
use sampsim_cache::configs;
use sampsim_exec::Jobs;
use sampsim_simpoint::strategy::reseeded_simpoint_options;
use sampsim_simpoint::{
    Rss, RssOptions, SamplingStrategy, SimPoint, SimPointsResult, StrategyInput, StrategySpec,
    STRATEGY_NAMES,
};
use sampsim_uarch::CoreConfig;
use sampsim_util::json::{num, Bound, Shape};
use sampsim_util::stats::{relative_error_pct, Summary};
use sampsim_workload::Program;

/// Schema identifier stamped into every compare report.
pub const SCHEMA: &str = "sampsim-compare/v1";

/// Default replicate count per strategy.
pub const DEFAULT_REPLICATES: usize = 5;

/// One metric's replicate statistics versus truth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Mean of the per-replicate estimates.
    pub mean: f64,
    /// Normal-theory 95% confidence half-width, `1.96·s/√R` (0 when
    /// `R < 2`).
    pub ci95: f64,
    /// Relative error of the mean against whole-program truth, percent.
    pub error_pct: f64,
}

impl Estimate {
    fn from_samples(samples: &[f64], truth: f64) -> Self {
        let mut s = Summary::new();
        for &v in samples {
            s.add(v);
        }
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
}

/// Per-level cache miss-rate estimates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissRateEstimates {
    /// L1 instruction cache.
    pub l1i: Estimate,
    /// L1 data cache.
    pub l1d: Estimate,
    /// Unified L2.
    pub l2: Estimate,
    /// Unified L3 (LLC).
    pub l3: Estimate,
}

/// One strategy's row in the study.
#[derive(Debug, Clone, PartialEq)]
pub struct StrategyReport {
    /// Registry name.
    pub strategy: String,
    /// Regions the primary (replicate 0) selection chose.
    pub regions: usize,
    /// Replicates evaluated.
    pub replicates: usize,
    /// CPI estimate versus truth.
    pub cpi: Estimate,
    /// Miss-rate estimates versus truth.
    pub miss_rates: MissRateEstimates,
}

/// The whole study: truth plus one row per registered strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Benchmark / program name.
    pub bench: String,
    /// Slices the profile divided into.
    pub slices: u64,
    /// Slice length in instructions.
    pub slice_size: u64,
    /// Replicates per strategy.
    pub replicates: usize,
    /// Whole-program truth (timing run over the full execution).
    pub truth: AggregatedMetrics,
    /// One row per strategy, in [`STRATEGY_NAMES`] order.
    pub strategies: Vec<StrategyReport>,
}

/// Runs the study: whole-program truth on a reserved worker, beside one
/// shared profile and every registered strategy × `replicates` selections
/// through the timing model. Deterministic per job count — the report
/// bytes never depend on `jobs`.
///
/// # Errors
///
/// Returns [`CoreError::Config`] when the configuration fails preflight
/// and [`CoreError::SimPoint`] when the program is too short to slice.
pub fn compare_strategies(
    program: &Program,
    config: &PinPointsConfig,
    replicates: usize,
    jobs: Jobs,
) -> Result<CompareReport, CoreError> {
    let pipeline = Pipeline::new(config.clone());
    let preflight = pipeline.preflight(program);
    if preflight.has_errors() {
        return Err(CoreError::Config(preflight.errors()));
    }
    let reps = replicates.max(1);
    let (truth, sampled) = sampsim_exec::join(
        jobs,
        || {
            whole_as_aggregate(&run_whole_timing(
                program,
                CoreConfig::table3(),
                configs::i7_table3(),
            ))
        },
        |jobs| sample_strategies(&pipeline, program, reps, jobs),
    );
    let (slices, sampled) = sampled?;
    let truth_cpi = truth.cpi.expect("timing truth carries CPI");
    let truth_mr = truth.miss_rates.expect("timing truth carries miss rates");
    let strategies = sampled
        .into_iter()
        .map(|s| {
            let [cpi, l1i, l1d, l2, l3] = &s.columns;
            StrategyReport {
                strategy: s.strategy.to_string(),
                regions: s.regions,
                replicates: cpi.len(),
                cpi: Estimate::from_samples(cpi, truth_cpi),
                miss_rates: MissRateEstimates {
                    l1i: Estimate::from_samples(l1i, truth_mr.l1i),
                    l1d: Estimate::from_samples(l1d, truth_mr.l1d),
                    l2: Estimate::from_samples(l2, truth_mr.l2),
                    l3: Estimate::from_samples(l3, truth_mr.l3),
                },
            }
        })
        .collect();
    Ok(CompareReport {
        bench: program.name().to_string(),
        slices,
        slice_size: config.slice_size,
        replicates: reps,
        truth,
        strategies,
    })
}

/// One strategy's replicate measurements, before truth is known.
struct StrategySamples {
    strategy: &'static str,
    /// Regions the primary (replicate 0) selection chose.
    regions: usize,
    /// Per replicate: CPI, then the L1I, L1D, L2 and L3 miss rates.
    columns: [Vec<f64>; 5],
}

/// The sampled side of the study: one profile, then every registered
/// strategy's `reps` selections replayed through the timing model.
/// Returns the profile's slice count and one entry per strategy, in
/// [`STRATEGY_NAMES`] order.
fn sample_strategies(
    pipeline: &Pipeline,
    program: &Program,
    reps: usize,
    jobs: Jobs,
) -> Result<(u64, Vec<StrategySamples>), CoreError> {
    let config = pipeline.config();
    // One strategy-agnostic profiling pass shared by every strategy and
    // replicate — the amortization the stage cache already exploits.
    let (bbvs, starts, _) = pipeline.profile_jobs(program, jobs);
    let input = StrategyInput {
        bbvs: &bbvs,
        slice_size: config.slice_size,
    };
    let mut strategies = Vec::with_capacity(STRATEGY_NAMES.len());
    for spec in StrategySpec::registry() {
        // Replicate selections: native for rss, seed-resampled otherwise.
        let point_sets: Vec<Vec<SimPoint>> = match &spec {
            StrategySpec::Rss(base) => {
                let rss = Rss::new(RssOptions {
                    replicates: reps,
                    ..*base
                });
                rss.select(&input, jobs)?.replicates
            }
            _ => {
                let mut sets = Vec::with_capacity(reps);
                for r in 0..reps as u64 {
                    let simpoint = if matches!(spec, StrategySpec::SimPoint) {
                        reseeded_simpoint_options(&config.simpoint, r)
                    } else {
                        config.simpoint
                    };
                    let strategy = spec.reseeded(r).build(&simpoint);
                    sets.push(strategy.select(&input, jobs)?.points);
                }
                sets
            }
        };

        let mut columns: [Vec<f64>; 5] = Default::default();
        for points in &point_sets {
            // Synthetic result: empty assignments give every replicate of
            // every strategy the same plain preceding-window warmup.
            let simpoints = SimPointsResult {
                k: points.len(),
                slice_size: config.slice_size,
                assignments: Vec::new(),
                points: points.clone(),
                bic_scores: Vec::new(),
                avg_variance: 0.0,
            };
            let regional = pipeline.regionals_for(program, &simpoints, &starts);
            let measured = run_regions_timing_jobs(
                program,
                &regional,
                CoreConfig::table3(),
                configs::i7_table3(),
                WarmupMode::Checkpointed,
                jobs,
            )?;
            let agg = aggregate_weighted(&measured);
            let cpi = agg.cpi.expect("timing replay carries CPI");
            let mr = agg.miss_rates.expect("timing replay carries miss rates");
            for (column, value) in columns.iter_mut().zip([cpi, mr.l1i, mr.l1d, mr.l2, mr.l3]) {
                column.push(value);
            }
        }
        strategies.push(StrategySamples {
            strategy: spec.name(),
            regions: point_sets[0].len(),
            columns,
        });
    }
    Ok((bbvs.len() as u64, strategies))
}

impl CompareReport {
    /// Renders the single-line `sampsim-compare/v1` JSON document (no
    /// trailing newline), in the shape [`schema`] declares. Floats go
    /// through [`num`] so the text is the shortest exact representation
    /// of the bit pattern — byte-stable across job counts because every
    /// input is.
    pub fn to_json(&self) -> String {
        fn estimate(e: &Estimate) -> String {
            format!(
                "{{\"mean\":{},\"ci95\":{},\"error_pct\":{}}}",
                num(e.mean),
                num(e.ci95),
                num(e.error_pct)
            )
        }
        let truth_mr = self.truth.miss_rates.expect("truth carries miss rates");
        let truth = format!(
            "{{\"cpi\":{},\"miss_rates_pct\":{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l3\":{}}}}}",
            num(self.truth.cpi.expect("truth carries CPI")),
            num(truth_mr.l1i),
            num(truth_mr.l1d),
            num(truth_mr.l2),
            num(truth_mr.l3)
        );
        let rows: Vec<String> = self
            .strategies
            .iter()
            .map(|s| {
                format!(
                    "{{\"strategy\":\"{}\",\"regions\":{},\"replicates\":{},\"cpi\":{},\
                     \"miss_rates_pct\":{{\"l1i\":{},\"l1d\":{},\"l2\":{},\"l3\":{}}}}}",
                    s.strategy,
                    s.regions,
                    s.replicates,
                    estimate(&s.cpi),
                    estimate(&s.miss_rates.l1i),
                    estimate(&s.miss_rates.l1d),
                    estimate(&s.miss_rates.l2),
                    estimate(&s.miss_rates.l3)
                )
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"bench\":\"{}\",\"slices\":{},\"slice_size\":{},\
             \"replicates\":{},\"truth\":{},\"strategies\":[{}]}}",
            SCHEMA,
            self.bench,
            self.slices,
            self.slice_size,
            self.replicates,
            truth,
            rows.join(",")
        )
    }
}

/// The `sampsim-compare/v1` document [`CompareReport::to_json`] renders,
/// with exactly one row per registered strategy.
pub const fn schema() -> &'static Shape {
    const ESTIMATE: Shape = Shape::Object(&[
        ("mean", Shape::Num(Bound::Any)),
        ("ci95", Shape::Num(Bound::Any)),
        ("error_pct", Shape::Num(Bound::Any)),
    ]);
    const ROW: Shape = Shape::Object(&[
        ("strategy", Shape::OneOf(STRATEGY_NAMES)),
        ("regions", Shape::Num(Bound::AtLeast(1.0))),
        ("replicates", Shape::Num(Bound::AtLeast(1.0))),
        ("cpi", ESTIMATE),
        (
            "miss_rates_pct",
            Shape::Object(&[
                ("l1i", ESTIMATE),
                ("l1d", ESTIMATE),
                ("l2", ESTIMATE),
                ("l3", ESTIMATE),
            ]),
        ),
    ]);
    const SHAPE: Shape = Shape::Object(&[
        ("schema", Shape::OneOf(&[SCHEMA])),
        ("bench", Shape::Text),
        ("slices", Shape::Num(Bound::AtLeast(1.0))),
        ("slice_size", Shape::Num(Bound::AtLeast(1.0))),
        ("replicates", Shape::Num(Bound::AtLeast(1.0))),
        (
            "truth",
            Shape::Object(&[
                ("cpi", Shape::Num(Bound::Any)),
                (
                    "miss_rates_pct",
                    Shape::Object(&[
                        ("l1i", Shape::Num(Bound::Any)),
                        ("l1d", Shape::Num(Bound::Any)),
                        ("l2", Shape::Num(Bound::Any)),
                        ("l3", Shape::Num(Bound::Any)),
                    ]),
                ),
            ]),
        ),
        (
            "strategies",
            Shape::Array(&ROW, 0, Some(("strategy", STRATEGY_NAMES))),
        ),
    ]);
    &SHAPE
}

/// Validates a compare report against [`schema`].
///
/// # Errors
///
/// Returns a description of the first violation, by its path. The
/// registry checks make `scripts/check.sh` fail loudly when a strategy
/// is added to (or dropped from) the engine without the report following.
pub fn validate_report(text: &str) -> Result<(), String> {
    schema().parse(text).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("compare-test", 13)
            .total_insts(120_000)
            .phase(PhaseSpec::memory_bound(1.0))
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 6_000,
                jitter: 0.3,
                align: 0,
            })
            .build()
            .build()
    }

    fn config() -> PinPointsConfig {
        PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 6,
                ..Default::default()
            },
            warmup_slices: 5,
            profile_cache: None,
            ..Default::default()
        }
    }

    #[test]
    fn report_covers_registry_and_validates() {
        let report = compare_strategies(&program(), &config(), 3, sampsim_exec::SERIAL).unwrap();
        assert_eq!(report.strategies.len(), STRATEGY_NAMES.len());
        for (row, name) in report.strategies.iter().zip(STRATEGY_NAMES) {
            assert_eq!(row.strategy, *name);
            assert_eq!(row.replicates, 3);
            assert!(row.regions >= 1);
            assert!(row.cpi.mean > 0.0, "{name}: cpi {:?}", row.cpi);
            assert!(row.cpi.error_pct >= 0.0);
            assert!(row.cpi.ci95 >= 0.0);
        }
        let json = report.to_json();
        validate_report(&json).unwrap();
    }

    #[test]
    fn report_bytes_are_job_count_invariant() {
        let reference = compare_strategies(&program(), &config(), 2, sampsim_exec::SERIAL)
            .unwrap()
            .to_json();
        for jobs in [Jobs::new(2).unwrap(), Jobs::new(5).unwrap(), Jobs::Auto] {
            let report = compare_strategies(&program(), &config(), 2, jobs)
                .unwrap()
                .to_json();
            assert_eq!(report, reference, "jobs = {jobs}");
        }
    }

    #[test]
    fn validator_rejects_drift() {
        let mut report =
            compare_strategies(&program(), &config(), 2, sampsim_exec::SERIAL).unwrap();
        let json = report.to_json();
        // Dropping a registered strategy must fail loudly.
        report.strategies.pop();
        let err = validate_report(&report.to_json()).unwrap_err();
        assert!(err.contains("rss") && err.contains("missing"), "{err}");
        // A duplicated strategy row must fail loudly.
        let duplicated = json.replace("\"strategy\":\"rss\"", "\"strategy\":\"simpoint\"");
        assert!(validate_report(&duplicated).unwrap_err().contains("twice"));
        // An unregistered strategy must fail loudly.
        let unknown = json.replace("\"strategy\":\"rss\"", "\"strategy\":\"frobnicate\"");
        assert!(validate_report(&unknown)
            .unwrap_err()
            .contains("frobnicate"));
        // Wrong schema tag.
        let wrong = json.replace(SCHEMA, "sampsim-compare/v0");
        assert!(validate_report(&wrong).unwrap_err().contains("schema"));
        // Not JSON at all.
        assert!(validate_report("nonsense").is_err());
    }
}
