//! Memory-hierarchy exploration with simulation points — the paper's
//! cautionary tale (§IV-D).
//!
//! Replaying simulation points with cold caches inflates LLC miss rates so
//! badly that a design study comparing two L3 sizes can rank them
//! incorrectly. Checkpointed cache warmup restores the whole-run
//! conclusion. Run with:
//!
//! ```text
//! cargo run --release --example memory_hierarchy_study
//! ```

use sampsim::cache::{configs, CacheConfig, HierarchyConfig};
use sampsim::core::metrics::aggregate_weighted;
use sampsim::core::runs::{run_regions_functional_jobs, run_whole_functional, WarmupMode};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::SERIAL;
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::util::scale::Scale;

fn with_l3(base: HierarchyConfig, l3_bytes: u64) -> HierarchyConfig {
    HierarchyConfig {
        l3: CacheConfig::new(l3_bytes, 1, 32, 36),
        ..base
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::new(0.1);
    let spec = benchmark(BenchmarkId::McfS).scaled(scale);
    let program = spec.build();
    let config = PinPointsConfig {
        slice_size: scale.apply(10_000),
        ..PinPointsConfig::default()
    };
    let pipeline = Pipeline::new(config).run(&program, &RunOptions::default())?;
    println!(
        "{}: {} simulation points over {} slices\n",
        spec.name(),
        pipeline.regional.len(),
        pipeline.num_slices
    );

    // Candidate designs: a 4 MB vs a 16 MB LLC.
    let designs = [
        ("L3 = 4MB", with_l3(configs::allcache_table1(), 4 << 20)),
        ("L3 = 16MB", with_l3(configs::allcache_table1(), 16 << 20)),
    ];
    println!(
        "{:<12} {:>12} {:>16} {:>16}",
        "design", "whole L3%", "cold regions L3%", "warm regions L3%"
    );
    let mut rows = Vec::new();
    for (label, cfg) in designs {
        let whole = run_whole_functional(&program, cfg);
        let cold = aggregate_weighted(&run_regions_functional_jobs(
            &program,
            &pipeline.regional,
            cfg,
            WarmupMode::None,
            SERIAL,
        )?);
        let warm = aggregate_weighted(&run_regions_functional_jobs(
            &program,
            &pipeline.regional,
            cfg,
            WarmupMode::Checkpointed,
            SERIAL,
        )?);
        let whole_l3 = whole
            .cache
            .as_ref()
            .expect("cache stats")
            .l3
            .miss_rate_pct();
        let cold_l3 = cold.miss_rates.expect("cache stats").l3;
        let warm_l3 = warm.miss_rates.expect("cache stats").l3;
        println!("{label:<12} {whole_l3:>12.2} {cold_l3:>16.2} {warm_l3:>16.2}");
        rows.push((label, whole_l3, cold_l3, warm_l3));
    }

    let whole_gain = rows[0].1 - rows[1].1;
    let cold_gain = rows[0].2 - rows[1].2;
    let warm_gain = rows[0].3 - rows[1].3;
    println!("\nL3 miss-rate improvement from 4MB -> 16MB:");
    println!("  whole run:        {whole_gain:+.2} pp  (ground truth)");
    println!("  cold regions:     {cold_gain:+.2} pp");
    println!("  warmed regions:   {warm_gain:+.2} pp");
    println!(
        "\ncold-start bias overstates every miss rate; relative design deltas shift by {:+.2} pp.",
        cold_gain - whole_gain
    );
    println!("Use warmup (or longer slices) before drawing memory-hierarchy conclusions.");
    Ok(())
}
