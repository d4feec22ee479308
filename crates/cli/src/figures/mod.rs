//! `sampsim figure <name>`: regenerates one table, figure or ablation of
//! the paper's evaluation (DESIGN.md §4 and §5 index them).
//!
//! Every exhibit measures through one [`Study`], whose configuration the
//! pipeline flags set as they do for `run`; an exhibit refuses (exit 2,
//! before any simulation) a flag it sweeps, pins or never reads, through
//! the check that refuses a flag the command never reads. Exhibits
//! share an on-disk memo (`--artifacts DIR`, default `./artifacts`), the
//! serve disk tier (`TieredCache`, no memory tier): one `<key>.bin` entry
//! per benchmark result and per whole walk, content-keyed, so a stale one
//! is never read; an empty directory forces a recompute. Suite figures fan
//! the benchmarks out over `--jobs`, the others pass it to every stage. A
//! `[bench]` operand restricts suite figures to matching benchmarks.

use crate::args::Args;
use crate::commands::{pipeline_config, CmdResult, UsageError};
use sampsim_cache::configs;
use sampsim_core::bench_result::{BenchResult, StudyConfig};
use sampsim_core::experiments::{Bench, Study};
use sampsim_core::metrics::{aggregate_weighted, AggregatedMetrics};
use sampsim_core::stage_cache::ProfileStage;
use sampsim_core::{Machine, PinPointsConfig, WarmupMode};
use sampsim_exec::Jobs;
use sampsim_serve::cache::TieredCache;
use sampsim_simpoint::{SimPointsResult, StrategySpec};
use sampsim_spec2017::BenchmarkId;
use sampsim_util::table::{fmt_f, Table};

/// One regenerable exhibit: its `sampsim figure` name, a one-line summary
/// for the index, the pipeline flags it refuses, and the function that
/// prints it to stdout.
type Figure = (
    &'static str,
    &'static str,
    &'static [&'static str],
    fn(&FigureArgs) -> CmdResult,
);

/// Declares one module per exhibit (`<name>.rs`, exporting `render`) and
/// the [`FIGURES`] registry over them, so a name is always its module.
macro_rules! figures {
    ($($name:ident [$($refused:literal),*]: $about:literal,)*) => {
        $(mod $name;)*

        /// Every exhibit, paper order first, then the ablations.
        const FIGURES: &[Figure] =
            &[$((stringify!($name), $about, &[$($refused),*], $name::render)),*];
    };
}

// The bracketed flags are refused: the exhibit sweeps or pins them, or its
// output never depends on them (README "Regenerating the paper" says why).
figures! {
    table2 []: "Table II: simulation points per benchmark, measured vs paper",
    fig3a ["--maxk", "--strategy"]: "Fig 3(a): MaxK sensitivity, 623.xalancbmk_s",
    fig3b ["--slice"]: "Fig 3(b): slice-size sensitivity, 623.xalancbmk_s",
    fig4 ["--maxk", "--strategy"]: "Fig 4: intra-cluster variance vs available clusters",
    fig5 []: "Fig 5: instruction count and time reductions per run kind",
    fig6 []: "Fig 6: simulation-point weights with the 90% boundary",
    fig7 []: "Fig 7: instruction distributions, whole vs sampled",
    fig8 []: "Fig 8: L1D/L2/L3 miss rates per run kind (+ warmup)",
    fig9 []: "Fig 9: error and execution time vs percentile kept",
    fig10 []: "Fig 10: L3 accesses per run kind",
    fig12 []: "Fig 12: CPI, native vs Sniper on simulation points",
    baseline_sampling []: "SimPoint vs periodic and random selection at equal budgets",
    smarts_compare []: "SimPoint vs SMARTS-style systematic sampling",
    ablation_warmup []: "warmup-length sweep and self-replay mitigation",
    ablation_clustering ["--maxk", "--strategy"]: "projection dimensionality and k-means initialization",
    ablation_hierarchy []: "L2 design rankings under sampling",
    ablation_vli ["--strategy"]: "variable-length intervals vs fixed-size slices",
    ablation_core_models []: "one set of simulation points, three machines",
    cpi_stacks []: "CPI stacks, whole run vs weighted simulation points",
    methodology_costs []: "native vs logging vs clustering vs replay cost",
    suite_overview ["--slice", "--maxk", "--strategy"]: "whole-run characteristics of every benchmark",
    calibrate ["--strategy"]: "simulation-point counts under varying BIC thresholds",
}

/// What a figure reads from the command line.
struct FigureArgs {
    /// The study the pipeline flags and `--scale` describe.
    study: Study,
    /// The `--artifacts` memo.
    memo: TieredCache,
    /// Benchmark-name substring filter.
    filter: Option<String>,
    /// Workers: the benchmark fan-out of suite figures, every stage of
    /// the others.
    jobs: Jobs,
}

impl FigureArgs {
    /// The figure study: the paper's configuration with the pipeline
    /// flags applied by [`pipeline_config`], and the Table I hierarchy
    /// profiled alongside, as every benchmark result needs. The second
    /// operand is the benchmark filter.
    fn new(args: &Args, memo: TieredCache) -> Result<Self, UsageError> {
        let config = StudyConfig {
            pinpoints: PinPointsConfig {
                profile_cache: Some(configs::allcache_table1()),
                ..pipeline_config(args)?
            },
            ..StudyConfig::default()
        };
        Ok(Self {
            study: Study::new(args.scale).with_config(config),
            memo,
            filter: args.operand(1).map(str::to_string),
            jobs: args.jobs,
        })
    }

    /// The handle one non-suite exhibit measures `id` through.
    fn bench(&self, id: BenchmarkId) -> Bench<'_> {
        self.study.bench(id, self.jobs, &self.memo)
    }

    /// How the configured strategy is named in tables: "SimPoint", the
    /// paper's method, or the strategy's registry name.
    fn selector(&self) -> &'static str {
        match self.study.config().pinpoints.strategy {
            StrategySpec::SimPoint => "SimPoint",
            ref other => other.name(),
        }
    }

    /// The benchmarks selected by the filter (all when unset).
    fn benchmarks(&self) -> Vec<BenchmarkId> {
        BenchmarkId::ALL
            .iter()
            .copied()
            .filter(|id| match &self.filter {
                Some(f) => id.name().contains(f.as_str()),
                None => true,
            })
            .collect()
    }

    /// Loads or computes results for the selected benchmarks in Table II
    /// order through the `--artifacts` memo; identical for every `--jobs`.
    fn results(&self) -> Result<Vec<BenchResult>, Box<dyn std::error::Error>> {
        Ok(self
            .study
            .results(&self.benchmarks(), self.jobs, &self.memo)?)
    }
}

/// The Table I hierarchy as a functional machine: the profile cache of
/// the paper's whole runs and cold replays.
fn table1() -> Machine {
    Machine::Functional(configs::allcache_table1())
}

/// Replays `selection`'s pinballs from `profile` cold on the Table I
/// hierarchy: (points, weighted aggregate).
fn cold_regional(
    bench: &Bench<'_>,
    profile: &ProfileStage,
    selection: &SimPointsResult,
) -> Result<(usize, AggregatedMetrics), Box<dyn std::error::Error>> {
    let regionals = bench.regionals(profile, selection);
    let replayed = bench.replay(&regionals, table1(), WarmupMode::None)?;
    Ok((regionals.len(), aggregate_weighted(&replayed)))
}

/// The Fig. 3 table: the whole run, then one row per swept value, each
/// with its point count, instruction mix and Table I miss rates.
fn sweep_table(
    title: String,
    whole: &AggregatedMetrics,
    rows: &[(String, usize, AggregatedMetrics)],
) -> Table {
    let mut table = Table::new([
        "Config", "Points", "NO_MEM%", "MEM_R%", "MEM_W%", "MEM_RW%", "L1D mr%", "L2 mr%", "L3 mr%",
    ]);
    table.title(title);
    let full = ("Full Run".to_string(), None, whole);
    let sampled = rows
        .iter()
        .map(|(label, points, agg)| (label.clone(), Some(*points), agg));
    for (label, points, agg) in std::iter::once(full).chain(sampled) {
        let mr = agg.miss_rates.expect("cache stats");
        table.row(vec![
            label,
            points.map_or_else(|| "-".into(), |p| p.to_string()),
            fmt_f(agg.mix_pct[0], 2),
            fmt_f(agg.mix_pct[1], 2),
            fmt_f(agg.mix_pct[2], 2),
            fmt_f(agg.mix_pct[3], 2),
            fmt_f(mr.l1d, 3),
            fmt_f(mr.l2, 3),
            fmt_f(mr.l3, 3),
        ]);
    }
    table
}

/// `sampsim figure [name] [bench]`: renders the named exhibit, or lists
/// them all when no name is given. A refused pipeline flag is a usage
/// error, reported before any simulation.
pub fn figure(args: &Args) -> CmdResult {
    let Some(name) = args.operand(0) else {
        let mut table = Table::new(["Figure", "Shows"]);
        for (name, about, ..) in FIGURES {
            table.row(vec![name.to_string(), about.to_string()]);
        }
        table.print();
        return Ok(());
    };
    let (_, _, refuses, render) = FIGURES.iter().find(|f| f.0 == name).ok_or_else(|| {
        let names: Vec<_> = FIGURES.iter().map(|f| f.0).collect();
        UsageError(format!(
            "unknown figure: {name} (one of: {})",
            names.join(", ")
        ))
    })?;
    args.refuse_unread(
        &format!("figure {name}"),
        |flag| !refuses.contains(&flag),
        "the exhibit sweeps or pins it, or never reads it",
    )
    .map_err(UsageError)?;
    let artifacts = args.artifacts.as_deref().unwrap_or("artifacts");
    let memo = TieredCache::new(0, Some(artifacts.as_ref()))
        .map_err(|e| format!("--artifacts {artifacts}: {e}"))?;
    render(&FigureArgs::new(args, memo)?)
}

/// Geometric-mean helper for suite-level factors.
fn geo_mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0u32;
    for v in values {
        if v > 0.0 {
            log_sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (log_sum / f64::from(n)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(argv: &str) -> FigureArgs {
        let (command, args) =
            crate::args::parse(argv.split_whitespace().map(String::from)).unwrap();
        assert_eq!(command.name, "figure", "{argv}");
        let memo = TieredCache::new(0, None).unwrap();
        FigureArgs::new(&args, memo).unwrap()
    }

    #[test]
    fn strategy_flag_flows_into_the_study_config() {
        let default = args("figure table2 --scale 0.5");
        let config = default.study.config();
        assert_eq!(config.pinpoints.strategy, StrategySpec::SimPoint);
        assert_eq!(
            config.pinpoints.slice_size, 5_000,
            "the default slice, scaled"
        );
        assert_eq!(config.pinpoints.simpoint.max_k, 35);
        assert_eq!(default.selector(), "SimPoint");
        let rss = args("figure table2 --scale 0.5 --strategy rss");
        assert_eq!(rss.study.config().pinpoints.strategy.name(), "rss");
        assert_eq!(rss.selector(), "rss");
        let flags = args("figure table2 --scale 0.5 --slice 40 --maxk 6");
        let config = flags.study.config();
        assert_eq!(config.pinpoints.slice_size, 40, "--slice is taken as given");
        assert_eq!(config.pinpoints.simpoint.max_k, 6);
        assert_eq!(
            config.pinpoints.profile_cache,
            Some(configs::allcache_table1())
        );
    }

    #[test]
    fn substring_filter_matches_many() {
        assert_eq!(args("figure table2").benchmarks().len(), 29);
        let xz = args("figure table2 xz").benchmarks();
        assert_eq!(xz.len(), 2); // 557.xz_r and 657.xz_s
        let mcf = args("figure table2 mcf_r").benchmarks();
        assert_eq!(mcf, [BenchmarkId::McfR]);
    }

    #[test]
    fn geo_mean_basic() {
        assert!((geo_mean([4.0, 16.0]) - 8.0).abs() < 1e-12);
        assert_eq!(geo_mean(std::iter::empty::<f64>()), 0.0);
        assert!(
            (geo_mean([2.0, 0.0, 8.0]) - 4.0).abs() < 1e-12,
            "zeros skipped"
        );
    }
}
