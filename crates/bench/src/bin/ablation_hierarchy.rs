//! Ablation: does sampling preserve design *rankings*?
//!
//! The paper's warning (§IV-D) is that injudicious SimPoint configurations
//! can lead memory-hierarchy exploration astray. This ablation evaluates
//! four L2 design alternatives (LRU/FIFO/random replacement and a next-line
//! prefetcher) under the whole run, cold regions, and warmed regions, and
//! checks whether each sampled run ranks the designs the same way the
//! whole run does.

use sampsim_bench::{unwrap_or_die, Cli};
use sampsim_cache::{configs, HierarchyConfig, ReplacementPolicy};
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::metrics::aggregate_weighted;
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::{Pipeline, RunOptions};
use sampsim_exec::SERIAL;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::table::{fmt_f, Table};

fn designs() -> Vec<(&'static str, HierarchyConfig)> {
    let base = configs::i7_table3();
    let with_policy = |p| HierarchyConfig {
        l2: base.l2.with_policy(p),
        ..base
    };
    vec![
        ("L2 LRU", base),
        ("L2 FIFO", with_policy(ReplacementPolicy::Fifo)),
        ("L2 random", with_policy(ReplacementPolicy::Random)),
        (
            "L2 LRU + prefetch",
            HierarchyConfig {
                next_line_prefetch: true,
                ..base
            },
        ),
    ]
}

fn ranking(scores: &[(&'static str, f64)]) -> Vec<&'static str> {
    let mut sorted = scores.to_vec();
    sorted.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    sorted.into_iter().map(|(n, _)| n).collect()
}

fn main() {
    let cli = Cli::parse();
    let id = BenchmarkId::XzS;
    let config = StudyConfig::default().scaled(cli.scale);
    let program = benchmark(id).scaled(cli.scale).build();
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = None;
    let result = unwrap_or_die(Pipeline::new(pp).run(&program, &RunOptions::default()));

    let mut table = Table::new(vec![
        "Design".into(),
        "Whole L2 miss%".into(),
        "Cold regions".into(),
        "Warm regions".into(),
    ]);
    table.title(format!(
        "Ablation: L2 design ranking under sampling, {}",
        id.name()
    ));
    let mut whole_scores = Vec::new();
    let mut cold_scores = Vec::new();
    let mut warm_scores = Vec::new();
    for (label, cfg) in designs() {
        let whole = runs::run_whole_functional(&program, cfg);
        let whole_l2 = whole
            .cache
            .as_ref()
            .expect("cache stats")
            .l2
            .miss_rate_pct();
        let cold = aggregate_weighted(&unwrap_or_die(runs::run_regions_functional_jobs(
            &program,
            &result.regional,
            cfg,
            WarmupMode::None,
            SERIAL,
        )))
        .miss_rates
        .expect("cache stats")
        .l2;
        let warm = aggregate_weighted(&unwrap_or_die(runs::run_regions_functional_jobs(
            &program,
            &result.regional,
            cfg,
            WarmupMode::Checkpointed,
            SERIAL,
        )))
        .miss_rates
        .expect("cache stats")
        .l2;
        whole_scores.push((label, whole_l2));
        cold_scores.push((label, cold));
        warm_scores.push((label, warm));
        table.row(vec![
            label.to_string(),
            fmt_f(whole_l2, 2),
            fmt_f(cold, 2),
            fmt_f(warm, 2),
        ]);
    }
    table.print();
    let whole_rank = ranking(&whole_scores);
    let cold_rank = ranking(&cold_scores);
    let warm_rank = ranking(&warm_scores);
    println!("\nranking (best L2 miss rate first):");
    println!("  whole run:    {whole_rank:?}");
    println!(
        "  cold regions: {cold_rank:?}  {}",
        if cold_rank == whole_rank {
            "(matches)"
        } else {
            "(DISAGREES!)"
        }
    );
    println!(
        "  warm regions: {warm_rank:?}  {}",
        if warm_rank == whole_rank {
            "(matches)"
        } else {
            "(DISAGREES!)"
        }
    );
    println!("\n(the paper's cautionary point: conclusions drawn from cold simulation");
    println!(" points can invert design rankings; warming restores them)");
}
