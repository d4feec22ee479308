//! The static cost/precision planner behind `sampsim plan`.
//!
//! Everything here is derived without executing, profiling or clustering
//! anything: the slice structure comes from [`StaticBbvBounds`] (the
//! schedule proves the slice count and instruction mass), the selection
//! shape from [`StrategySpec::predict`], and the confidence-interval
//! bounds from closed-form survey-sampling theory under conservative
//! dispersion caps. The same [`lint_soundness`] pass the pipeline
//! preflight runs is embedded in the report, so a plan always shows the
//! SA14x findings its configuration would trigger.
//!
//! ## The precision model and its conservatism
//!
//! For a metric with per-slice coefficient of variation `CV`, the
//! relative 95% half-width of a weighted mean over `n_eff` effective
//! samples from `N` slices is bounded by
//!
//! ```text
//! ci_bound_pct = Z95 · CV_cap · fpc / sqrt(n_eff) · 100
//! fpc          = sqrt((N − n_eff) / (N − 1))   (0 at a census)
//! ```
//!
//! with `CV_cap` a fixed cap on the per-slice dispersion of the metric
//! ([`CPI_CV_BOUND`], [`MISS_RATE_CV_BOUND`]). `n_eff` is the number of
//! *regions* one replicate covers — never the replicate-multiplied
//! sample count. Downstream consumers are free to re-run a strategy with
//! any replicate budget (and `sampsim compare` does exactly that), so
//! the plan only promises what a single replicate guarantees; averaging
//! replicates can only sharpen the estimate below the bound. The caps
//! are deliberately
//! far above anything the synthetic workloads exhibit — the plan promises
//! an *upper bound*, not an estimate — and the plan-vs-compare oracle
//! test (`tests/plan_oracle.rs`) pins the bound to reality: on every
//! registered strategy over several benchmarks the observed `sampsim
//! compare` error must fall inside it, and a doctored (too-narrow) bound
//! must make the oracle fail. The bound collapses to exactly 0 at a
//! census (`n_eff ≥ N`): replaying every slice reproduces the
//! whole-program numbers.
//!
//! The report is schema-versioned single-line JSON ([`SCHEMA`]) with the
//! same float formatting rules as `sampsim compare`: every value is
//! deterministic and *statically* derived, so the bytes are identical
//! across `--jobs` values by construction (no stage of the planner is
//! parallel at all).

use crate::error::CoreError;
use crate::pipeline::PinPointsConfig;
use sampsim_analyze::{
    diagnostic_json, diagnostic_schema, lint_soundness, predicted_instructions, Diagnostic,
    SoundnessInput, StaticBbvBounds,
};
use sampsim_simpoint::{StrategySpec, STRATEGY_NAMES};
use sampsim_util::json::{num, Bound, Shape};
use sampsim_workload::Program;

/// Schema identifier stamped into every plan report.
pub const SCHEMA: &str = "sampsim-plan/v1";

/// Normal-theory 95% quantile used by the half-width bound.
pub const Z95: f64 = 1.96;

/// Cap on the per-slice coefficient of variation of CPI. Measured
/// per-slice CPI dispersion on the synthetic suite stays well below 0.5;
/// the cap doubles that so the bound holds with slack (the oracle test
/// enforces it empirically).
pub const CPI_CV_BOUND: f64 = 1.0;

/// Cap on the per-slice coefficient of variation of cache miss rates.
/// Miss rates are far burstier than CPI (a phase can miss 100× another),
/// so the cap is proportionally wider.
pub const MISS_RATE_CV_BOUND: f64 = 6.0;

/// The per-metric relative 95% confidence half-width bounds, percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CiBounds {
    /// Cycles per instruction.
    pub cpi: f64,
    /// L1 instruction cache miss rate.
    pub l1i: f64,
    /// L1 data cache miss rate.
    pub l1d: f64,
    /// Unified L2 miss rate.
    pub l2: f64,
    /// Unified L3 (LLC) miss rate.
    pub l3: f64,
}

impl CiBounds {
    /// The bounds as `(metric name, bound)` pairs, in schema order.
    pub fn named(&self) -> [(&'static str, f64); 5] {
        [
            ("cpi", self.cpi),
            ("l1i", self.l1i),
            ("l1d", self.l1d),
            ("l2", self.l2),
            ("l3", self.l3),
        ]
    }
}

/// The statically predicted cost and precision of one strategy on one
/// benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    /// Benchmark / program name.
    pub bench: String,
    /// Slices the schedule proves the profile will divide into.
    pub slices: u64,
    /// Slice length in instructions.
    pub slice_size: u64,
    /// Strategy registry name.
    pub strategy: String,
    /// Whole-program instruction count (the cost of truth).
    pub whole_instructions: u64,
    /// Regions the strategy will select.
    pub regions: usize,
    /// Effective samples contributing to each estimate.
    pub samples: usize,
    /// Independent replicates the strategy natively produces.
    pub replicates: usize,
    /// Predicted instructions replayed (regions + warmup windows).
    pub predicted_instructions: u64,
    /// Speedup bound versus simulating the whole program
    /// (`whole / predicted`; below 1.0 means sampling is slower than
    /// truth, which is exactly what `SA145` reports).
    pub speedup_bound: f64,
    /// Static bound on any single selection draw's weight
    /// (`f64::INFINITY` renders as `null`: no parameter-level guarantee).
    pub max_weight_bound: f64,
    /// Conservative per-metric CI half-width bounds, percent.
    pub ci_bound_pct: CiBounds,
    /// The SA14x statistical-soundness findings for this configuration.
    pub soundness: Vec<Diagnostic>,
}

/// One plan-vs-observation inconsistency found by
/// [`check_against_compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct PlanViolation {
    /// Strategy whose observation escaped its plan.
    pub strategy: String,
    /// Metric name (`cpi`, `l1i`, ...).
    pub metric: &'static str,
    /// Observed relative error, percent.
    pub observed_pct: f64,
    /// The plan's predicted bound, percent.
    pub bound_pct: f64,
}

/// The conservative relative half-width bound, in percent. `regions` is
/// the per-replicate coverage (see the module docs for why replicates
/// are deliberately not credited).
fn ci_bound_pct(cv_cap: f64, regions: usize, slices: u64) -> f64 {
    let n_eff = (regions.max(1)) as f64;
    let total = slices as f64;
    if regions as u64 >= slices || slices <= 1 {
        // A census has no sampling error at all.
        return 0.0;
    }
    let fpc = ((total - n_eff) / (total - 1.0)).sqrt();
    Z95 * cv_cap * fpc / n_eff.sqrt() * 100.0
}

/// Builds the static plan for `strategy` (defaulting to the config's own
/// strategy when `None`) on `program` under `config`.
///
/// # Errors
///
/// Returns [`CoreError::Config`] when the configuration fails the
/// *structural* half of the lint pass (zero slice size, broken SimPoint
/// options, malformed program...). SA14x soundness findings never abort
/// the planner — quantifying exactly those configurations is what the
/// plan is for — they are embedded in [`PlanReport::soundness`] instead.
pub fn plan_strategy(
    program: &Program,
    config: &PinPointsConfig,
    strategy: Option<&StrategySpec>,
) -> Result<PlanReport, CoreError> {
    let mut config = config.clone();
    if let Some(spec) = strategy {
        config.strategy = spec.clone();
    }
    let pipeline = crate::pipeline::Pipeline::new(config.clone());
    let report = pipeline.preflight(program);
    let structural: Vec<Diagnostic> = report
        .errors()
        .into_iter()
        .filter(|d| !d.rule.code().starts_with("SA14"))
        .collect();
    if !structural.is_empty() {
        return Err(CoreError::Config(structural));
    }

    // The slice structure, proven from the schedule alone.
    let bounds = StaticBbvBounds::derive(program, config.slice_size);
    let slices = bounds.num_slices() as u64;
    let whole_instructions = program.total_insts();
    let plan = config.strategy.predict(&config.simpoint, slices);
    let cost = predicted_instructions(
        plan.regions,
        config.slice_size,
        config.warmup_slices,
        slices,
    );
    let soundness = lint_soundness(&SoundnessInput {
        strategy: &config.strategy,
        simpoint: &config.simpoint,
        slice_size: config.slice_size,
        warmup_slices: config.warmup_slices,
        num_slices: slices,
        total_insts: whole_instructions,
        materialized_budget_bytes: sampsim_analyze::DEFAULT_MATERIALIZED_BUDGET_BYTES,
    });

    Ok(PlanReport {
        bench: program.name().to_string(),
        slices,
        slice_size: config.slice_size,
        strategy: config.strategy.name().to_string(),
        whole_instructions,
        regions: plan.regions,
        samples: plan.samples,
        replicates: plan.replicates,
        predicted_instructions: cost,
        speedup_bound: whole_instructions as f64 / (cost as f64).max(1.0),
        max_weight_bound: plan.max_weight_bound,
        ci_bound_pct: CiBounds {
            cpi: ci_bound_pct(CPI_CV_BOUND, plan.regions, slices),
            l1i: ci_bound_pct(MISS_RATE_CV_BOUND, plan.regions, slices),
            l1d: ci_bound_pct(MISS_RATE_CV_BOUND, plan.regions, slices),
            l2: ci_bound_pct(MISS_RATE_CV_BOUND, plan.regions, slices),
            l3: ci_bound_pct(MISS_RATE_CV_BOUND, plan.regions, slices),
        },
        soundness: soundness.into_diagnostics(),
    })
}

impl PlanReport {
    /// Renders the single-line `sampsim-plan/v1` JSON document (no
    /// trailing newline), in the shape [`schema`] declares. Floats go
    /// through [`num`]. Every field is statically derived, so the bytes
    /// never depend on `--jobs`.
    pub fn to_json(&self) -> String {
        let ci: Vec<String> = self
            .ci_bound_pct
            .named()
            .iter()
            .map(|(name, bound)| format!("\"{name}\":{}", num(*bound)))
            .collect();
        let soundness: Vec<String> = self.soundness.iter().map(diagnostic_json).collect();
        format!(
            "{{\"schema\":\"{}\",\"bench\":\"{}\",\"slices\":{},\"slice_size\":{},\
             \"strategy\":\"{}\",\"whole_instructions\":{},\"regions\":{},\"samples\":{},\
             \"replicates\":{},\"predicted_instructions\":{},\"speedup_bound\":{},\
             \"max_weight_bound\":{},\"ci_bound_pct\":{{{}}},\"soundness\":[{}]}}",
            SCHEMA,
            self.bench,
            self.slices,
            self.slice_size,
            self.strategy,
            self.whole_instructions,
            self.regions,
            self.samples,
            self.replicates,
            self.predicted_instructions,
            num(self.speedup_bound),
            num(self.max_weight_bound),
            ci.join(","),
            soundness.join(",")
        )
    }
}

/// The `sampsim-plan/v1` document [`PlanReport::to_json`] renders; a
/// `null` `max_weight_bound` means no static guarantee.
pub const fn schema() -> &'static Shape {
    const COUNT: Shape = Shape::Num(Bound::AtLeast(1.0));
    const BOUND: Shape = Shape::Num(Bound::AtLeast(0.0));
    const POSITIVE: Shape = Shape::Num(Bound::Above(0.0));
    const SHAPE: Shape = Shape::Object(&[
        ("schema", Shape::OneOf(&[SCHEMA])),
        ("bench", Shape::Text),
        ("slices", COUNT),
        ("slice_size", COUNT),
        ("strategy", Shape::OneOf(STRATEGY_NAMES)),
        ("whole_instructions", BOUND),
        ("regions", COUNT),
        ("samples", COUNT),
        ("replicates", COUNT),
        ("predicted_instructions", BOUND),
        ("speedup_bound", BOUND),
        ("max_weight_bound", Shape::Nullable(&POSITIVE)),
        (
            "ci_bound_pct",
            Shape::Object(&[
                ("cpi", BOUND),
                ("l1i", BOUND),
                ("l1d", BOUND),
                ("l2", BOUND),
                ("l3", BOUND),
            ]),
        ),
        ("soundness", Shape::Array(diagnostic_schema(), 0, None)),
    ]);
    &SHAPE
}

/// Validates a plan report against [`schema`].
///
/// # Errors
///
/// Returns a description of the first violation, by its path.
pub fn validate_report(text: &str) -> Result<(), String> {
    schema().parse(text).map(drop)
}

/// Truth values (in percent / absolute CPI) below this threshold exempt
/// the metric from the oracle: relative error is numerically meaningless
/// against a near-zero denominator (a miss rate of 0.001% observed as
/// 0.002% is a 100% "error" on noise).
pub const ORACLE_TRUTH_FLOOR: f64 = 0.05;

/// The plan-vs-compare consistency check: every observed relative error
/// in `compare` must fall within the corresponding plan's predicted CI
/// bound. Metrics whose truth value is below [`ORACLE_TRUTH_FLOOR`] are
/// skipped (relative error is undefined near zero). Returns every
/// violation found; an empty vector means the static model held.
pub fn check_against_compare(
    plans: &[PlanReport],
    compare: &crate::compare::CompareReport,
) -> Vec<PlanViolation> {
    let mut violations = Vec::new();
    let truth_mr = compare.truth.miss_rates;
    for row in &compare.strategies {
        let Some(plan) = plans.iter().find(|p| p.strategy == row.strategy) else {
            continue;
        };
        let truth_cpi = compare.truth.cpi.unwrap_or(0.0);
        let mut checks: Vec<(&'static str, f64, f64, f64)> =
            vec![("cpi", row.cpi.error_pct, plan.ci_bound_pct.cpi, truth_cpi)];
        if let Some(mr) = truth_mr {
            checks.push((
                "l1i",
                row.miss_rates.l1i.error_pct,
                plan.ci_bound_pct.l1i,
                mr.l1i,
            ));
            checks.push((
                "l1d",
                row.miss_rates.l1d.error_pct,
                plan.ci_bound_pct.l1d,
                mr.l1d,
            ));
            checks.push((
                "l2",
                row.miss_rates.l2.error_pct,
                plan.ci_bound_pct.l2,
                mr.l2,
            ));
            checks.push((
                "l3",
                row.miss_rates.l3.error_pct,
                plan.ci_bound_pct.l3,
                mr.l3,
            ));
        }
        for (metric, observed, bound, truth) in checks {
            if truth < ORACLE_TRUTH_FLOOR {
                continue;
            }
            if observed > bound {
                violations.push(PlanViolation {
                    strategy: row.strategy.clone(),
                    metric,
                    observed_pct: observed,
                    bound_pct: bound,
                });
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_simpoint::SimPointOptions;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("plan-test", 13)
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
    fn plans_cover_the_registry_and_validate() {
        for spec in StrategySpec::registry() {
            let plan = plan_strategy(&program(), &config(), Some(&spec)).unwrap();
            assert_eq!(plan.strategy, spec.name());
            assert_eq!(plan.slices, 120);
            assert!(plan.regions >= 1);
            assert!(plan.predicted_instructions > 0);
            // On this tiny fixture stratified2p's 30-sample default costs
            // more than the whole run — which is exactly what SA145 is
            // for, so the plan must say so rather than flatter it.
            assert!(plan.speedup_bound > 0.0, "{}: {plan:?}", spec.name());
            if plan.speedup_bound <= 1.0 {
                assert!(
                    plan.soundness.iter().any(|d| d.rule.code() == "SA145"),
                    "{}: sub-1.0 speedup without SA145: {plan:?}",
                    spec.name()
                );
            }
            for (metric, bound) in plan.ci_bound_pct.named() {
                assert!(bound > 0.0, "{}: {metric} bound is {bound}", spec.name());
            }
            validate_report(&plan.to_json()).unwrap();
        }
    }

    #[test]
    fn plan_embeds_soundness_findings() {
        // rss:replicates=1 is the SA144 trigger; the plan must report it
        // rather than refuse to plan.
        let spec = StrategySpec::parse_spec("rss:replicates=1").unwrap();
        let plan = plan_strategy(&program(), &config(), Some(&spec)).unwrap();
        assert!(
            plan.soundness.iter().any(|d| d.rule.code() == "SA144"),
            "{:?}",
            plan.soundness
        );
        let json = plan.to_json();
        assert!(json.contains("\"SA144\""), "{json}");
        validate_report(&json).unwrap();
        // Structural errors still abort: slice_size 0 cannot be planned.
        let mut broken = config();
        broken.slice_size = 0;
        assert!(matches!(
            plan_strategy(&program(), &broken, None),
            Err(CoreError::Config(_))
        ));
    }

    #[test]
    fn census_plans_have_zero_ci_bounds_and_no_speedup() {
        // MaxK 500 over 120 slices: a census. The CI bound collapses to 0
        // and SA141 appears in the embedded soundness findings.
        let mut cfg = config();
        cfg.simpoint.max_k = 500;
        let plan = plan_strategy(&program(), &cfg, None).unwrap();
        assert_eq!(plan.regions as u64, plan.slices);
        for (metric, bound) in plan.ci_bound_pct.named() {
            assert_eq!(bound, 0.0, "{metric}");
        }
        assert!(plan.soundness.iter().any(|d| d.rule.code() == "SA141"));
    }

    #[test]
    fn ci_bound_is_monotone_non_increasing_in_samples() {
        let mut prev = f64::INFINITY;
        for samples in 1..=240 {
            let b = ci_bound_pct(CPI_CV_BOUND, samples, 240);
            assert!(b <= prev, "samples {samples}: {b} > {prev}");
            assert!(b >= 0.0);
            prev = b;
        }
        assert_eq!(ci_bound_pct(CPI_CV_BOUND, 240, 240), 0.0);
    }

    #[test]
    fn validator_rejects_drift() {
        let plan = plan_strategy(&program(), &config(), None).unwrap();
        let json = plan.to_json();
        validate_report(&json).unwrap();
        let unknown = json.replace("\"strategy\":\"simpoint\"", "\"strategy\":\"frobnicate\"");
        assert!(validate_report(&unknown)
            .unwrap_err()
            .contains("frobnicate"));
        let wrong = json.replace(SCHEMA, "sampsim-plan/v0");
        assert!(validate_report(&wrong).unwrap_err().contains("schema"));
        let negative = json.replace("\"samples\":6", "\"samples\":0");
        assert!(validate_report(&negative).unwrap_err().contains("samples"));
        assert!(validate_report("nonsense").is_err());
    }

    #[test]
    fn check_against_compare_flags_escapes() {
        let plans: Vec<PlanReport> = StrategySpec::registry()
            .iter()
            .map(|s| plan_strategy(&program(), &config(), Some(s)).unwrap())
            .collect();
        let compare =
            crate::compare::compare_strategies(&program(), &config(), 2, sampsim_exec::SERIAL)
                .unwrap();
        // The honest plans hold on this workload...
        let violations = check_against_compare(&plans, &compare);
        assert!(violations.is_empty(), "{violations:?}");
        // ...and doctored (too-narrow) bounds are caught.
        let doctored: Vec<PlanReport> = plans
            .iter()
            .map(|p| {
                let mut d = p.clone();
                d.ci_bound_pct = CiBounds {
                    cpi: p.ci_bound_pct.cpi / 1e6,
                    l1i: p.ci_bound_pct.l1i / 1e6,
                    l1d: p.ci_bound_pct.l1d / 1e6,
                    l2: p.ci_bound_pct.l2 / 1e6,
                    l3: p.ci_bound_pct.l3 / 1e6,
                };
                d
            })
            .collect();
        let violations = check_against_compare(&doctored, &compare);
        assert!(!violations.is_empty());
    }
}
