//! Baseline comparison: SimPoint selection vs periodic (SMARTS-style) and
//! uniform-random slice sampling at the same point budget.
//!
//! Not a paper exhibit — an ablation supporting the paper's premise that
//! *clustered* selection is what makes few points representative.

use sampsim_bench::{unwrap_or_die, Cli};
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::experiments::baseline_aggregate;
use sampsim_core::metrics::AggregatedMetrics;
use sampsim_core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim_simpoint::baselines;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::table::{fmt_f, Table};

fn mix_err(a: &AggregatedMetrics, b: &AggregatedMetrics) -> f64 {
    a.mix_pct
        .iter()
        .zip(&b.mix_pct)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

fn main() {
    let cli = Cli::parse();
    let ids = [
        BenchmarkId::McfR,
        BenchmarkId::XalancbmkS,
        BenchmarkId::DeepsjengS,
        BenchmarkId::BwavesR,
        BenchmarkId::XzS,
    ];
    let config = StudyConfig::default();
    let mut table = Table::new(vec![
        "Benchmark".into(),
        "Points".into(),
        "SimPoint mix err".into(),
        "Periodic mix err".into(),
        "Random mix err".into(),
        "SimPoint L3 err".into(),
        "Periodic L3 err".into(),
        "Random L3 err".into(),
    ]);
    table.title("Ablation: SimPoint vs baseline samplers (equal point budget; errors in pp)");
    for id in ids {
        // Find the SimPoint budget and points first.
        let scaled = config.scaled(cli.scale);
        let program = benchmark(id).scaled(cli.scale).build();
        let mut pp: PinPointsConfig = scaled.pinpoints.clone();
        pp.profile_cache = None;
        let pipeline = Pipeline::new(pp);
        let result = unwrap_or_die(pipeline.run(&program, &RunOptions::default()));
        let budget = result.regional.len();
        let num_slices = result.num_slices;

        let (simpoint, whole) = unwrap_or_die(baseline_aggregate(
            id,
            cli.scale,
            &config,
            &result.simpoints.points,
        ));
        let (periodic, _) = unwrap_or_die(baseline_aggregate(
            id,
            cli.scale,
            &config,
            &baselines::periodic(num_slices, budget),
        ));
        let (random, _) = unwrap_or_die(baseline_aggregate(
            id,
            cli.scale,
            &config,
            &baselines::uniform_random(num_slices, budget, 0xBA5E),
        ));
        let l3 = |agg: &AggregatedMetrics| agg.miss_rates.expect("cache stats").l3;
        let whole_l3 = l3(&whole);
        table.row(vec![
            id.name().to_string(),
            budget.to_string(),
            fmt_f(mix_err(&simpoint, &whole), 3),
            fmt_f(mix_err(&periodic, &whole), 3),
            fmt_f(mix_err(&random, &whole), 3),
            fmt_f((l3(&simpoint) - whole_l3).abs(), 2),
            fmt_f((l3(&periodic) - whole_l3).abs(), 2),
            fmt_f((l3(&random) - whole_l3).abs(), 2),
        ]);
    }
    table.print();
    println!(
        "\n(periodic/random points get uniform weights; SimPoint weights come from clustering)"
    );
}
