//! CPI validation: native hardware vs Sniper on simulation points
//! (the paper's Fig. 12 experiment for a single benchmark).
//!
//! ```text
//! cargo run --release --example cpi_validation
//! ```

use sampsim::cache::configs;
use sampsim::core::metrics::aggregate_weighted;
use sampsim::core::runs::{run_regions_timing_jobs, run_whole_timing, WarmupMode};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::SERIAL;
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::uarch::{run_native, CoreConfig, NativeConfig};
use sampsim::util::scale::Scale;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let scale = Scale::new(0.1);
    let spec = benchmark(BenchmarkId::XzS).scaled(scale);
    let program = spec.build();

    // Simulation points.
    let config = PinPointsConfig {
        slice_size: scale.apply(10_000),
        ..PinPointsConfig::default()
    };
    let pipeline = Pipeline::new(config).run(&program, &RunOptions::default())?;

    // "Native hardware": whole program on the modelled i7-3770 with perf
    // counters (three runs to show run-to-run nondeterminism).
    println!("{} on the Table III machine:\n", spec.name());
    let native_cfg = NativeConfig::default();
    let mut native_cpis = Vec::new();
    for run in 0..3u64 {
        let perf = run_native(&program, configs::i7_table3(), &native_cfg, run);
        println!(
            "  native run {}: {} instructions, {} cycles, CPI {:.4}",
            run + 1,
            perf.instructions,
            perf.cpu_cycles,
            perf.cpi()
        );
        native_cpis.push(perf.cpi());
    }
    let native_cpi = native_cpis.iter().sum::<f64>() / native_cpis.len() as f64;

    // Sniper on the whole program (no sampling, no noise) for reference.
    let whole = run_whole_timing(&program, CoreConfig::table3(), configs::i7_table3());
    let whole_cpi = whole.timing.as_ref().expect("timing stats").cpi();

    // Sniper on the simulation points, weighted.
    let regions = run_regions_timing_jobs(
        &program,
        &pipeline.regional,
        CoreConfig::table3(),
        configs::i7_table3(),
        WarmupMode::Checkpointed,
        SERIAL,
    )?;
    let sampled = aggregate_weighted(&regions);
    let sampled_cpi = sampled.cpi.expect("timing stats");

    println!("\n  native CPI (mean of runs): {native_cpi:.4}");
    println!("  Sniper whole-program CPI:  {whole_cpi:.4}");
    println!(
        "  Sniper on {} simulation points: {sampled_cpi:.4}",
        pipeline.regional.len()
    );
    println!(
        "  sampling error vs native:  {:.2}%",
        100.0 * (sampled_cpi - native_cpi).abs() / native_cpi
    );
    if let Some(stack) = sampled.cpi_stack {
        println!("\n  sampled CPI stack: base {:.3}, branch {:.3}, ifetch {:.3}, L2 {:.3}, L3 {:.3}, mem {:.3}",
            stack.base, stack.branch, stack.ifetch, stack.l2, stack.l3, stack.mem);
    }
    Ok(())
}
