//! Statistical-soundness lints (`SA140`–`SA145`): does the configured
//! strategy's selection, derived from parameters and the slice count
//! alone, plausibly support the estimates the pipeline will report?
//!
//! The pass runs [`StrategySpec::predict`] — the same static model behind
//! `sampsim plan` — and checks the predicted shape against normal-theory
//! sample-size requirements, weight-concentration bounds and the
//! simulated-instruction budget. Everything here is closed-form: no
//! profiling, clustering or replay happens, so the checks are cheap
//! enough to run at every front door (CLI lint, `Pipeline::run`
//! preflight, serve request validation).
//!
//! A selection that covers every slice (a *census*) reproduces the
//! whole-program numbers exactly, so the sample-size and
//! weight-concentration rules (`SA140`, `SA143`) are suppressed when the
//! predicted region count reaches the slice count — there is no sampling
//! error to bound. `SA141` is the exception: a census *by clustering
//! degeneration* is precisely what it reports.

use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_simpoint::{SimPointOptions, StrategySpec};

/// Minimum effective sample count for normal-theory confidence intervals
/// (the classical CLT rule of thumb behind `SA140`).
pub const CLT_MIN_SAMPLES: usize = 30;

/// A single region's statically-bounded weight share at or above this
/// fraction fires `SA143`: one unrepresentative pick could carry half the
/// estimate.
pub const WEIGHT_CONCENTRATION_BOUND: f64 = 0.5;

/// Default memory budget for the materialized profile (`SA150`): 256 MiB,
/// generous for every shipped benchmark at its default scale but crossed
/// around a million slices.
pub const DEFAULT_MATERIALIZED_BUDGET_BYTES: u64 = 256 << 20;

/// Statically predicted bytes the profile→select stages materialize: one
/// projected row (`8 * dim`
/// bytes) plus BBV bookkeeping (conservatively 128 bytes of counts and
/// headers) per slice: the closed form behind the `SA150` lint.
pub fn materialized_bytes_estimate(num_slices: u64, dim: usize) -> u64 {
    num_slices.saturating_mul(8 * dim as u64 + 128)
}

/// The dependency-neutral view the soundness pass runs over: the strategy
/// choice plus the run shape the workload IR determines statically.
#[derive(Debug, Clone, Copy)]
pub struct SoundnessInput<'a> {
    /// The configured sampling strategy.
    pub strategy: &'a StrategySpec,
    /// SimPoint analysis options (supplies MaxK for the default strategy).
    pub simpoint: &'a SimPointOptions,
    /// Slice length in instructions.
    pub slice_size: u64,
    /// Warmup window in slices.
    pub warmup_slices: u64,
    /// Slice count the run produces (`total_insts.div_ceil(slice_size)`).
    pub num_slices: u64,
    /// Whole-program instruction count.
    pub total_insts: u64,
    /// Memory budget for the materialized profile (`SA150`); use
    /// [`DEFAULT_MATERIALIZED_BUDGET_BYTES`] unless the caller knows its
    /// deployment better.
    pub materialized_budget_bytes: u64,
}

/// The statically predicted replay cost of a plan, in instructions:
/// every selected region replays its own slice plus at most
/// `warmup_slices` predecessor slices (clamped to the run prefix).
/// Shared with the `sampsim plan` cost model so the lint and the report
/// can never disagree.
pub fn predicted_instructions(
    regions: usize,
    slice_size: u64,
    warmup_slices: u64,
    num_slices: u64,
) -> u64 {
    let warmup = warmup_slices.min(num_slices.saturating_sub(1));
    (regions as u64)
        .saturating_mul(slice_size)
        .saturating_mul(1 + warmup)
}

/// Runs the statistical-soundness pass (`SA140`–`SA145`).
pub fn lint_soundness(input: &SoundnessInput<'_>) -> Report {
    let mut report = Report::new();
    let n = input.num_slices;
    if n == 0 || input.slice_size == 0 {
        // Nothing to sample (SA009) or nothing to slice (SA020); those
        // rules own the finding.
        return report;
    }
    let plan = input.strategy.predict(input.simpoint, n);
    let census = plan.regions as u64 >= n || n <= 1;
    let strategy = input.strategy.name();

    // SA140: effective sample count below CLT plausibility.
    if !census && plan.samples < CLT_MIN_SAMPLES {
        report.push(Diagnostic::new(
            Rule::SampleBelowClt,
            Location::config("strategy"),
            format!(
                "{strategy} contributes {} sample(s) per estimate over {n} \
                 slices; normal-theory intervals need >= {CLT_MIN_SAMPLES}",
                plan.samples
            ),
        ));
    }

    // SA141: the clustering strategy cannot compress at all.
    if matches!(input.strategy, StrategySpec::SimPoint) && n > 1 && input.simpoint.max_k as u64 >= n
    {
        report.push(Diagnostic::new(
            Rule::ClusteringDegenerate,
            Location::config("simpoint.max_k"),
            format!(
                "MaxK = {} with only {n} slices: every slice can form its \
                 own cluster and the selection degenerates to a census",
                input.simpoint.max_k
            ),
        ));
    }

    // SA142: a stratum too small for pilot spread estimation.
    if let StrategySpec::Stratified2p(o) = input.strategy {
        if n >= 2 {
            let s = o.strata.clamp(1, n as usize);
            let smallest = n as usize / s;
            if o.pilot < 2 || smallest < 2 {
                report.push(Diagnostic::new(
                    Rule::StratumStarved,
                    Location::config("strategy.stratified2p"),
                    format!(
                        "{s} strata over {n} slices with pilot = {}: the \
                         smallest stratum holds {smallest} slice(s), so \
                         per-stratum spread cannot be estimated and Neyman \
                         allocation degenerates to its proportional fallback",
                        o.pilot
                    ),
                ));
            }
        }
    }

    // SA143: one region's weight can dominate the estimate.
    if !census
        && plan.max_weight_bound.is_finite()
        && plan.max_weight_bound >= WEIGHT_CONCENTRATION_BOUND
    {
        report.push(Diagnostic::new(
            Rule::WeightConcentration,
            Location::config("strategy"),
            format!(
                "{strategy} allows a single region to carry up to {:.0}% of \
                 every estimate (bound {WEIGHT_CONCENTRATION_BOUND})",
                plan.max_weight_bound * 100.0
            ),
        ));
    }

    // SA144: a replicated strategy that cannot produce error bars.
    if let StrategySpec::Rss(o) = input.strategy {
        if o.replicates < 2 {
            report.push(Diagnostic::new(
                Rule::InsufficientReplicates,
                Location::config("strategy.rss.replicates"),
                format!(
                    "replicates = {}; the spread across replicates is the \
                     only source of rss error bars, so every reported CI \
                     half-width would be exactly 0",
                    o.replicates
                ),
            ));
        }
    }

    // SA150: the profile would materialize more than the memory budget. Independent of the strategy: the footprint is a
    // function of the slice count and the projection dimension alone.
    let footprint = materialized_bytes_estimate(n, input.simpoint.dim);
    if input.materialized_budget_bytes > 0 && footprint > input.materialized_budget_bytes {
        report.push(Diagnostic::new(
            Rule::MaterializedFootprint,
            Location::config("slice_size"),
            format!(
                "{n} slices materialize ~{} MiB of BBVs and projected rows \
                 (budget {} MiB)",
                footprint >> 20,
                input.materialized_budget_bytes >> 20
            ),
        ));
    }

    // SA145: replaying the selection costs more than simulating the truth.
    let cost = predicted_instructions(plan.regions, input.slice_size, input.warmup_slices, n);
    if cost > input.total_insts {
        report.push(Diagnostic::new(
            Rule::CostExceedsWhole,
            Location::config("warmup_slices"),
            format!(
                "{} region(s) x {} inst slices with a {}-slice warmup \
                 window replay {cost} instructions, more than the \
                 {}-instruction whole run",
                plan.regions, input.slice_size, input.warmup_slices, input.total_insts
            ),
        ));
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_simpoint::{RssOptions, Stratified2pOptions};

    /// A run shape generous enough that default strategies are clean:
    /// 2000 slices of 10k instructions, 48-slice warmup.
    fn base<'a>(strategy: &'a StrategySpec, simpoint: &'a SimPointOptions) -> SoundnessInput<'a> {
        SoundnessInput {
            strategy,
            simpoint,
            slice_size: 10_000,
            warmup_slices: 48,
            num_slices: 2_000,
            total_insts: 20_000_000,
            materialized_budget_bytes: DEFAULT_MATERIALIZED_BUDGET_BYTES,
        }
    }

    fn fired(input: &SoundnessInput<'_>) -> Vec<Rule> {
        lint_soundness(input)
            .into_diagnostics()
            .iter()
            .map(|d| d.rule)
            .collect()
    }

    #[test]
    fn default_strategies_are_clean_on_a_generous_run() {
        let opts = SimPointOptions::default();
        for spec in StrategySpec::registry() {
            let input = base(&spec, &opts);
            assert_eq!(fired(&input), vec![], "{}", spec.name());
        }
    }

    #[test]
    fn sa140_fires_below_clt_and_clears_at_30() {
        let opts = SimPointOptions {
            max_k: 10,
            ..SimPointOptions::default()
        };
        let spec = StrategySpec::SimPoint;
        let input = base(&spec, &opts);
        assert_eq!(fired(&input), vec![Rule::SampleBelowClt]);
        let opts = SimPointOptions {
            max_k: 30,
            ..SimPointOptions::default()
        };
        let input = base(&spec, &opts);
        assert_eq!(fired(&input), vec![]);
        // rss reaches the CLT count through set_size x replicates.
        let starved = StrategySpec::Rss(RssOptions {
            set_size: 4,
            replicates: 5,
            ..RssOptions::default()
        });
        let defaults = SimPointOptions::default();
        let input = base(&starved, &defaults);
        assert_eq!(fired(&input), vec![Rule::SampleBelowClt]);
    }

    #[test]
    fn sa140_suppressed_when_the_selection_is_a_census() {
        let opts = SimPointOptions {
            max_k: 10,
            ..SimPointOptions::default()
        };
        let spec = StrategySpec::SimPoint;
        let mut input = base(&spec, &opts);
        input.num_slices = 8; // regions = 8 = n: exact reproduction
        input.total_insts = 80_000;
        input.warmup_slices = 0;
        let rules = fired(&input);
        assert!(!rules.contains(&Rule::SampleBelowClt), "{rules:?}");
        assert!(rules.contains(&Rule::ClusteringDegenerate), "{rules:?}");
    }

    #[test]
    fn sa141_needs_the_clustering_strategy_and_a_multi_slice_run() {
        let opts = SimPointOptions {
            max_k: 100,
            ..SimPointOptions::default()
        };
        let spec = StrategySpec::SimPoint;
        let mut input = base(&spec, &opts);
        input.num_slices = 50;
        input.total_insts = 500_000;
        input.warmup_slices = 0;
        assert!(fired(&input).contains(&Rule::ClusteringDegenerate));
        // A single-slice run has nothing to cluster; census is exact.
        input.num_slices = 1;
        input.total_insts = 10_000;
        assert_eq!(fired(&input), vec![]);
        // Other strategies ignore MaxK entirely.
        let other = StrategySpec::parse("stratified2p").unwrap();
        let mut input = base(&other, &opts);
        input.num_slices = 50;
        input.total_insts = 500_000;
        input.warmup_slices = 0;
        assert!(!fired(&input).contains(&Rule::ClusteringDegenerate));
    }

    #[test]
    fn sa142_fires_on_starved_strata_and_pilots() {
        let opts = SimPointOptions::default();
        // 64 strata over 100 slices: smallest stratum has 1 slice.
        let starved = StrategySpec::Stratified2p(Stratified2pOptions {
            strata: 64,
            ..Stratified2pOptions::default()
        });
        let mut input = base(&starved, &opts);
        input.num_slices = 100;
        input.total_insts = 1_000_000;
        input.warmup_slices = 0;
        assert!(fired(&input).contains(&Rule::StratumStarved));
        // A 1-draw pilot cannot estimate spread even in fat strata.
        let pilotless = StrategySpec::Stratified2p(Stratified2pOptions {
            pilot: 1,
            ..Stratified2pOptions::default()
        });
        let input = base(&pilotless, &opts);
        assert!(fired(&input).contains(&Rule::StratumStarved));
        // Defaults on the same run are clean.
        let ok = StrategySpec::parse("stratified2p").unwrap();
        let input = base(&ok, &opts);
        assert_eq!(fired(&input), vec![]);
    }

    #[test]
    fn sa143_fires_when_one_region_can_dominate() {
        let opts = SimPointOptions::default();
        // set_size 2: each region carries weight 1/2.
        let concentrated = StrategySpec::Rss(RssOptions {
            set_size: 2,
            replicates: 20,
            ..RssOptions::default()
        });
        let input = base(&concentrated, &opts);
        assert_eq!(fired(&input), vec![Rule::WeightConcentration]);
        // MaxK = 1: the single point provably carries weight 1.0.
        let k1 = SimPointOptions {
            max_k: 1,
            ..SimPointOptions::default()
        };
        let spec = StrategySpec::SimPoint;
        let input = base(&spec, &k1);
        assert!(fired(&input).contains(&Rule::WeightConcentration));
        // set_size 3 bounds each weight by 1/3 < 0.5: clean of SA143.
        let ok = StrategySpec::Rss(RssOptions {
            set_size: 3,
            replicates: 20,
            ..RssOptions::default()
        });
        let input = base(&ok, &opts);
        assert!(!fired(&input).contains(&Rule::WeightConcentration));
    }

    #[test]
    fn sa144_fires_below_two_replicates() {
        let opts = SimPointOptions::default();
        let single = StrategySpec::Rss(RssOptions {
            set_size: 30,
            replicates: 1,
            ..RssOptions::default()
        });
        let input = base(&single, &opts);
        assert_eq!(fired(&input), vec![Rule::InsufficientReplicates]);
        let ok = StrategySpec::Rss(RssOptions {
            set_size: 30,
            replicates: 2,
            ..RssOptions::default()
        });
        let input = base(&ok, &opts);
        assert_eq!(fired(&input), vec![]);
    }

    #[test]
    fn sa145_fires_when_replay_exceeds_the_whole_run() {
        let opts = SimPointOptions {
            max_k: 10,
            ..SimPointOptions::default()
        };
        let spec = StrategySpec::SimPoint;
        let mut input = base(&spec, &opts);
        // 10 regions x 10k insts x (1 + 48) = 4.9M > 400k whole run.
        input.num_slices = 40;
        input.total_insts = 400_000;
        let rules = fired(&input);
        assert!(rules.contains(&Rule::CostExceedsWhole), "{rules:?}");
        // Dropping the warmup window brings the cost under the run.
        input.warmup_slices = 0;
        assert!(!fired(&input).contains(&Rule::CostExceedsWhole));
        // Exact equality (a census of a 1-slice run) is not "exceeds".
        input.num_slices = 1;
        input.total_insts = 10_000;
        input.warmup_slices = 3;
        assert_eq!(fired(&input), vec![]);
    }

    #[test]
    fn sa150_fires_past_the_materialized_budget() {
        let opts = SimPointOptions::default();
        let spec = StrategySpec::SimPoint;
        // 2M slices x (8*15 + 128) bytes ≈ 473 MiB > 256 MiB default.
        let mut input = base(&spec, &opts);
        input.num_slices = 2_000_000;
        input.total_insts = 20_000_000_000;
        let rules = fired(&input);
        assert!(rules.contains(&Rule::MaterializedFootprint), "{rules:?}");
        // The same run under a raised budget is clean of SA150.
        input.materialized_budget_bytes = 1 << 30;
        let rules = fired(&input);
        assert!(!rules.contains(&Rule::MaterializedFootprint), "{rules:?}");
        // A zero budget disables the check entirely.
        input.materialized_budget_bytes = 0;
        let rules = fired(&input);
        assert!(!rules.contains(&Rule::MaterializedFootprint), "{rules:?}");
        // The estimate itself is the shared closed form.
        assert_eq!(materialized_bytes_estimate(1_000, 15), 1_000 * 248);
        // The default budget admits a full 1M-slice run and fires just
        // past ~1.08M slices at dim 15.
        assert!(materialized_bytes_estimate(1_100_000, 15) > DEFAULT_MATERIALIZED_BUDGET_BYTES);
        assert!(materialized_bytes_estimate(1_000_000, 15) < DEFAULT_MATERIALIZED_BUDGET_BYTES);
    }

    #[test]
    fn zero_shapes_defer_to_their_owning_rules() {
        let opts = SimPointOptions::default();
        let spec = StrategySpec::SimPoint;
        let mut input = base(&spec, &opts);
        input.num_slices = 0;
        assert_eq!(fired(&input), vec![]);
        let mut input = base(&spec, &opts);
        input.slice_size = 0;
        assert_eq!(fired(&input), vec![]);
    }
}
