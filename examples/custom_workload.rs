//! Authoring a custom workload and sampling it.
//!
//! Shows the full public API surface: describing phases with the builder,
//! checkpointing/replaying by hand with pinballs, attaching your own
//! Pintool, and comparing SimPoint selection against periodic and random
//! baselines.
//!
//! ```text
//! cargo run --release --example custom_workload
//! ```

use sampsim::cache::configs;
use sampsim::core::metrics::{aggregate_weighted, whole_as_aggregate};
use sampsim::core::runs::{run_regions_functional_jobs, run_whole_functional, WarmupMode};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::SERIAL;
use sampsim::pin::{engine, Pintool};
use sampsim::pinball::Logger;
use sampsim::simpoint::baselines;
use sampsim::workload::spec::{InterleaveSpec, Mix, PhaseSpec, StreamGen, WorkloadSpec};
use sampsim::workload::{Executor, Retired};

/// A custom Pintool: tracks the hottest basic block.
#[derive(Default)]
struct HottestBlock {
    counts: std::collections::HashMap<u32, u64>,
}

impl Pintool for HottestBlock {
    fn on_inst(&mut self, inst: &Retired) {
        *self.counts.entry(inst.block).or_default() += 1;
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe a three-phase workload: a cache-friendly compute kernel,
    //    a streaming sweep, and a pointer-chasing traversal.
    let spec = WorkloadSpec::builder("my-workload", 2024)
        .total_insts(3_000_000)
        .phase(PhaseSpec {
            weight: 0.5,
            mix: Mix::new(0.25, 0.08, 0.01),
            n_blocks: 9,
            block_len: (8, 14),
            streams: vec![StreamGen::streaming(64 << 10)],
            branch_entropy: 0.1,
            block_skew: 0.7,
        })
        .phase(PhaseSpec {
            weight: 0.3,
            mix: Mix::new(0.42, 0.18, 0.02),
            n_blocks: 5,
            block_len: (10, 16),
            streams: vec![StreamGen::streaming(24 << 20)],
            branch_entropy: 0.05,
            block_skew: 0.5,
        })
        .phase(PhaseSpec {
            weight: 0.2,
            mix: Mix::new(0.45, 0.1, 0.01),
            n_blocks: 7,
            block_len: (4, 8),
            streams: vec![StreamGen::chase(8 << 20)],
            branch_entropy: 0.5,
            block_skew: 0.4,
        })
        .interleave(InterleaveSpec {
            mean_segment: 60_000,
            jitter: 0.4,
            align: 0,
        })
        .build();
    let program = spec.build();
    println!(
        "built '{}': {} blocks, {} streams, {} instructions",
        program.name(),
        program.blocks().len(),
        program.num_streams(),
        program.total_insts()
    );

    // 2. Drive a custom Pintool over the first million instructions.
    let mut exec = Executor::new(&program);
    let mut hot = HottestBlock::default();
    engine::run_one(&mut exec, 1_000_000, &mut hot);
    let (&block, &count) = hot
        .counts
        .iter()
        .max_by_key(|&(_, c)| c)
        .expect("non-empty");
    println!("hottest block in the first 1M instructions: block {block} ({count} instructions)");

    // 3. Checkpoint by hand: capture slice starts, replay slice 100.
    let starts = Logger::new(&program).slice_starts(10_000);
    let mut replay = Executor::with_cursor(&program, starts[100].clone());
    assert_eq!(replay.retired(), 1_000_000);
    let first = replay.next_inst().expect("program continues");
    println!(
        "replay of slice 100 starts at pc {:#x} in block {}",
        first.pc, first.block
    );

    // 4. SimPoint vs baseline samplers, same point budget.
    let config = PinPointsConfig {
        slice_size: 10_000,
        ..PinPointsConfig::default()
    };
    let pipeline = Pipeline::new(config.clone()).run(&program, &RunOptions::default())?;
    let budget = pipeline.regional.len();
    let num_slices = pipeline.num_slices;
    let whole = run_whole_functional(&program, configs::allcache_table1());
    let reference = whole_as_aggregate(&whole);

    let pipe = Pipeline::new(config);
    let (_bbvs, starts, _m) = pipe.profile_jobs(&program, SERIAL);
    let report = |label: &str, points: Vec<sampsim::simpoint::SimPoint>| {
        let fake = sampsim::simpoint::SimPointsResult {
            k: points.len(),
            slice_size: 10_000,
            assignments: vec![],
            points,
            bic_scores: vec![],
            avg_variance: 0.0,
        };
        let regional = pipe.regionals_for(&program, &fake, &starts);
        let metrics = run_regions_functional_jobs(
            &program,
            &regional,
            configs::allcache_table1(),
            WarmupMode::None,
            SERIAL,
        )
        .expect("replay");
        let agg = aggregate_weighted(&metrics);
        let mix_err: f64 = agg
            .mix_pct
            .iter()
            .zip(&reference.mix_pct)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        println!("  {label:<22} mix error {mix_err:>6.3} pp");
    };
    println!("\nsampling with {budget} points (vs whole run):");
    report("SimPoint", pipeline.simpoints.points.clone());
    report("periodic baseline", baselines::periodic(num_slices, budget));
    report(
        "random baseline",
        baselines::uniform_random(num_slices, budget, 7),
    );
    Ok(())
}
