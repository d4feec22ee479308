//! Quickstart: find simulation points for one benchmark and check how well
//! they represent the whole run.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sampsim::cache::configs;
use sampsim::core::metrics::{aggregate_weighted, whole_as_aggregate};
use sampsim::core::runs::{run_regions_functional_jobs, run_whole_functional, WarmupMode};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::SERIAL;
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::util::scale::Scale;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the synthetic stand-in for 505.mcf_r at 1/10 scale so the
    //    example finishes in seconds.
    let scale = Scale::new(0.1);
    let spec = benchmark(BenchmarkId::McfR).scaled(scale);
    let program = spec.build();
    println!(
        "{}: {} instructions, {} phases",
        spec.name(),
        program.total_insts(),
        program.phases().len()
    );

    // 2. Run the PinPoints pipeline: one profiling pass, SimPoint
    //    clustering, regional checkpoints.
    let config = PinPointsConfig {
        slice_size: scale.apply(10_000),
        ..PinPointsConfig::default()
    };
    let result = Pipeline::new(config).run(&program, &RunOptions::default())?;
    println!(
        "pipeline: {} slices -> {} simulation points (k = {})",
        result.num_slices,
        result.regional.len(),
        result.simpoints.k
    );
    for pb in result.regional.iter().take(5) {
        println!(
            "  point @ slice {:>5}, weight {:>5.2}%",
            pb.slice_index,
            pb.weight * 100.0
        );
    }
    if result.regional.len() > 5 {
        println!("  ... and {} more", result.regional.len() - 5);
    }

    // 3. Compare the sampled run against the whole run on the instruction
    //    mix and cache miss rates (Table I hierarchy).
    let whole = run_whole_functional(&program, configs::allcache_table1());
    let regions = run_regions_functional_jobs(
        &program,
        &result.regional,
        configs::allcache_table1(),
        WarmupMode::None,
        SERIAL,
    )?;
    let sampled = aggregate_weighted(&regions);
    let reference = whole_as_aggregate(&whole);
    println!("\nmetric                 whole      sampled");
    for (i, label) in ["NO_MEM%", "MEM_R%", "MEM_W%", "MEM_RW%"]
        .iter()
        .enumerate()
    {
        println!(
            "{label:<20} {:>8.2} {:>12.2}",
            reference.mix_pct[i], sampled.mix_pct[i]
        );
    }
    let wmr = reference.miss_rates.expect("whole cache stats");
    let smr = sampled.miss_rates.expect("sampled cache stats");
    println!("{:<20} {:>8.2} {:>12.2}", "L1D miss%", wmr.l1d, smr.l1d);
    println!("{:<20} {:>8.2} {:>12.2}", "L3 miss%", wmr.l3, smr.l3);
    println!(
        "\nsampled {} of {} instructions ({:.0}x reduction)",
        sampled.total_instructions,
        whole.instructions,
        whole.instructions as f64 / sampled.total_instructions as f64
    );
    Ok(())
}
