//! `sampsim figure <name>`: regenerates one table, figure or ablation of
//! the paper's evaluation (DESIGN.md §4 and §5 index them).
//!
//! Suite figures share an on-disk memo (`--artifacts DIR`, default
//! `./artifacts`): the first one to run pays the simulation cost for the
//! suite, later ones reload in milliseconds. The memo is the serve disk
//! tier (`TieredCache`, no memory tier): one `<key>.bin` entry per
//! benchmark result, keyed by benchmark, configuration, scale and program
//! digest, so a stale one is never read; an empty directory forces a
//! recompute. A `[bench]` operand restricts suite figures to the
//! benchmarks whose name contains it.

use crate::args::Options;
use crate::commands::{validated_strategy, CmdResult, UsageError};
use sampsim_core::bench_result::{BenchResult, StudyConfig};
use sampsim_core::experiments::Study;
use sampsim_exec::Jobs;
use sampsim_serve::cache::TieredCache;
use sampsim_simpoint::StrategySpec;
use sampsim_spec2017::BenchmarkId;
use sampsim_util::scale::Scale;
use sampsim_util::table::Table;

/// One regenerable exhibit: its `sampsim figure` name, a one-line summary
/// for the index, and the function that prints it to stdout.
type Figure = (&'static str, &'static str, fn(&FigureArgs) -> CmdResult);

/// Declares one module per exhibit (`<name>.rs`, exporting `render`) and
/// the [`FIGURES`] registry over them, so a name is always its module.
macro_rules! figures {
    ($($name:ident: $about:literal,)*) => {
        $(mod $name;)*

        /// Every exhibit, paper order first, then the ablations.
        const FIGURES: &[Figure] = &[$((stringify!($name), $about, $name::render)),*];
    };
}

figures! {
    table2: "Table II: simulation points per benchmark, measured vs paper",
    fig3a: "Fig 3(a): MaxK sensitivity, 623.xalancbmk_s",
    fig3b: "Fig 3(b): slice-size sensitivity, 623.xalancbmk_s",
    fig4: "Fig 4: intra-cluster variance vs available clusters",
    fig5: "Fig 5: instruction count and time reductions per run kind",
    fig6: "Fig 6: simulation-point weights with the 90% boundary",
    fig7: "Fig 7: instruction distributions, whole vs sampled",
    fig8: "Fig 8: L1D/L2/L3 miss rates per run kind (+ warmup)",
    fig9: "Fig 9: error and execution time vs percentile kept",
    fig10: "Fig 10: L3 accesses per run kind",
    fig12: "Fig 12: CPI, native vs Sniper on simulation points",
    baseline_sampling: "SimPoint vs periodic and random selection at equal budgets",
    smarts_compare: "SimPoint vs SMARTS-style systematic sampling",
    ablation_warmup: "warmup-length sweep and self-replay mitigation",
    ablation_clustering: "projection dimensionality and k-means initialization",
    ablation_hierarchy: "L2 design rankings under sampling",
    ablation_vli: "variable-length intervals vs fixed-size slices",
    ablation_core_models: "one set of simulation points, three machines",
    cpi_stacks: "CPI stacks, whole run vs weighted simulation points",
    methodology_costs: "native vs logging vs clustering vs replay cost",
    suite_overview: "whole-run characteristics of every benchmark",
    calibrate: "simulation-point counts under varying BIC thresholds",
}

/// What a figure reads from the command line.
#[derive(Debug)]
struct FigureArgs {
    /// Workload scale.
    scale: Scale,
    /// Memo directory.
    artifacts: String,
    /// Benchmark-name substring filter.
    filter: Option<String>,
    /// Worker threads for the benchmark fan-out.
    jobs: Jobs,
    /// Region-selection strategy (`StrategySpec::SimPoint` by default).
    strategy: StrategySpec,
}

impl FigureArgs {
    /// Builds the study described by the flags. A non-default
    /// `--strategy` selects every benchmark's regions (and enters the memo
    /// keys, which hash the full configuration).
    fn study(&self) -> Study {
        let mut study = Study::new(self.scale);
        if self.strategy != StrategySpec::default() {
            let mut config = StudyConfig::default();
            config.pinpoints.strategy = self.strategy.clone();
            study = study.with_config(config);
        }
        study
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
        let memo = TieredCache::new(0, Some(self.artifacts.as_ref()))
            .map_err(|e| format!("--artifacts {}: {e}", self.artifacts))?;
        Ok(self.study().results(&self.benchmarks(), self.jobs, &memo)?)
    }
}

/// `sampsim figure [name] [bench]`: renders the named exhibit, or lists
/// them all when no name is given.
pub fn figure(
    name: Option<&str>,
    bench: Option<&str>,
    artifacts: &str,
    options: &Options,
) -> CmdResult {
    let Some(name) = name else {
        let mut table = Table::new(["Figure", "Shows"]);
        for (name, about, _) in FIGURES {
            table.row(vec![name.to_string(), about.to_string()]);
        }
        table.print();
        return Ok(());
    };
    let (_, _, render) = FIGURES.iter().find(|f| f.0 == name).ok_or_else(|| {
        let names: Vec<_> = FIGURES.iter().map(|f| f.0).collect();
        UsageError(format!(
            "unknown figure: {name} (one of: {})",
            names.join(", ")
        ))
    })?;
    let args = FigureArgs {
        scale: options.scale,
        artifacts: artifacts.to_string(),
        filter: bench.map(str::to_string),
        jobs: options.jobs,
        strategy: validated_strategy(options)?.unwrap_or_default(),
    };
    render(&args)
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

    fn args(filter: Option<&str>, strategy: StrategySpec) -> FigureArgs {
        FigureArgs {
            scale: Scale::TEST,
            artifacts: String::new(),
            filter: filter.map(str::to_string),
            jobs: Jobs::Auto,
            strategy,
        }
    }

    #[test]
    fn strategy_flag_flows_into_the_study_config() {
        let study = args(None, StrategySpec::default()).study();
        assert_eq!(study.config().pinpoints.strategy, StrategySpec::SimPoint);
        let rss = StrategySpec::parse("rss").unwrap();
        let study = args(None, rss).study();
        assert_eq!(study.config().pinpoints.strategy.name(), "rss");
    }

    #[test]
    fn substring_filter_matches_many() {
        assert_eq!(args(None, StrategySpec::default()).benchmarks().len(), 29);
        let xz = args(Some("xz"), StrategySpec::default()).benchmarks();
        assert_eq!(xz.len(), 2); // 557.xz_r and 657.xz_s
        let mcf = args(Some("mcf_r"), StrategySpec::default()).benchmarks();
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
