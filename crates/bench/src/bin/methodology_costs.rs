//! Methodology cost accounting (paper §II-B / §III).
//!
//! The paper reports that PinPlay logging runs 100–200× slower than native
//! execution (checkpointing bwaves_s took over a month), while replay of
//! regional pinballs is the cheap, repeatable part. This exhibit measures
//! the analogous costs in sampsim: raw execution, the profiling/logging
//! pass (BBVs + slice checkpoints + tools), clustering, and regional
//! replay.

use sampsim_bench::Cli;
use sampsim_cache::configs;
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::pipeline::Pipeline;
use sampsim_core::runs::{self, WarmupMode};
use sampsim_exec::SERIAL;
use sampsim_simpoint::SimPointStrategy;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::table::{fmt_f, fmt_x, Table};
use sampsim_workload::Executor;
use std::time::Instant;

fn main() {
    let cli = Cli::parse();
    let id = BenchmarkId::GccR;
    let config = StudyConfig::default().scaled(cli.scale);
    let program = benchmark(id).scaled(cli.scale).build();
    let insts = program.total_insts() as f64;

    // 1. "Native" execution: the bare executor.
    let t = Instant::now();
    let mut exec = Executor::new(&program);
    let mut checksum = 0u64;
    while let Some(i) = exec.next_inst() {
        checksum ^= i.addr;
    }
    let native = t.elapsed().as_secs_f64();
    std::hint::black_box(checksum);

    // 2. Logging pass: BBVs + slice checkpoints + ldstmix + allcache.
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = Some(configs::allcache_table1());
    let pipeline = Pipeline::new(pp.clone());
    let t = Instant::now();
    let (bbvs, starts, _metrics) = pipeline.profile_jobs(&program, SERIAL);
    let logging = t.elapsed().as_secs_f64();

    // 3. Clustering.
    let t = Instant::now();
    let simpoints = SimPointStrategy::new(pp.simpoint)
        .analyze(&bbvs, pp.slice_size, SERIAL)
        .expect("non-empty profile");
    let clustering = t.elapsed().as_secs_f64();
    let regional = pipeline.regionals_for(&program, &simpoints, &starts);

    // 4. Regional replay (all points, with warmup).
    let t = Instant::now();
    let metrics = runs::run_regions_functional_jobs(
        &program,
        &regional,
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
        SERIAL,
    )
    .expect("replay");
    let replay = t.elapsed().as_secs_f64();
    let replayed: u64 = metrics.iter().map(|(m, _)| m.instructions).sum();

    let mut table = Table::new(vec![
        "Phase".into(),
        "Seconds".into(),
        "Minst/s".into(),
        "vs native".into(),
    ]);
    table.title(format!(
        "Methodology costs, {} ({} instructions)",
        id.name(),
        program.total_insts()
    ));
    table.row(vec![
        "native execution".into(),
        fmt_f(native, 3),
        fmt_f(insts / native / 1e6, 1),
        "1.0x".into(),
    ]);
    table.row(vec![
        "logging (checkpoint+BBV+tools)".into(),
        fmt_f(logging, 3),
        fmt_f(insts / logging / 1e6, 1),
        fmt_x(logging / native),
    ]);
    table.row(vec![
        "clustering (SimPoint)".into(),
        fmt_f(clustering, 3),
        "-".into(),
        fmt_x(clustering / native),
    ]);
    table.row(vec![
        format!("regional replay ({} pts)", regional.len()),
        fmt_f(replay, 3),
        fmt_f(replayed as f64 / replay / 1e6, 1),
        fmt_x(replay / native),
    ]);
    table.print();
    println!(
        "\none-time cost (logging+clustering) {:.2}s; each subsequent experiment replays",
        logging + clustering,
    );
    println!(
        "1/{:.0} of the instructions in 1/{:.0} of the whole-run-with-tools time",
        insts / replayed as f64,
        logging / replay,
    );
    println!("\n(paper: PinPlay logging is 100-200x slower than native — checkpointing");
    println!(" bwaves_s took over a month — while regional replay is the cheap,");
    println!(" infinitely repeatable artifact)");
}
