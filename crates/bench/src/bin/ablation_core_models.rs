//! Ablation: does sampling accuracy depend on the core model?
//!
//! Runs one benchmark's whole execution and its (warmed) simulation points
//! through three machines — a scalar in-order core, the paper's Table III
//! i7-3770, and an aggressive 8-wide core — and reports the sampled-CPI
//! error for each. Sampling is microarchitecture-independent by design
//! (BBVs never look at the machine); this checks the claim holds in
//! practice across the design space.

use sampsim_bench::{unwrap_or_die, Cli};
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::metrics::aggregate_weighted;
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::{Pipeline, RunOptions};
use sampsim_exec::SERIAL;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_uarch::CoreConfig;
use sampsim_util::table::{fmt_f, fmt_pct, Table};

fn main() {
    let cli = Cli::parse();
    let id = BenchmarkId::LeelaR;
    let config = StudyConfig::default().scaled(cli.scale);
    let program = benchmark(id).scaled(cli.scale).build();
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = None;
    let result = unwrap_or_die(Pipeline::new(pp).run(&program, &RunOptions::default()));

    let mut table = Table::new(vec![
        "Core model".into(),
        "Whole CPI".into(),
        "Sampled CPI".into(),
        "Error".into(),
    ]);
    table.title(format!(
        "Ablation: one set of simulation points, three machines ({})",
        id.name()
    ));
    for (label, core) in [
        ("in-order scalar", CoreConfig::in_order()),
        ("i7-3770 (Table III)", CoreConfig::table3()),
        ("8-wide aggressive", CoreConfig::wide()),
    ] {
        let whole = runs::run_whole_timing(&program, core, config.timing_hierarchy);
        let whole_cpi = whole.timing.as_ref().expect("timing stats").cpi();
        let regions = unwrap_or_die(runs::run_regions_timing_jobs(
            &program,
            &result.regional,
            core,
            config.timing_hierarchy,
            WarmupMode::Checkpointed,
            SERIAL,
        ));
        let sampled = aggregate_weighted(&regions).cpi.expect("timing stats");
        table.row(vec![
            label.to_string(),
            fmt_f(whole_cpi, 3),
            fmt_f(sampled, 3),
            fmt_pct(100.0 * (sampled - whole_cpi).abs() / whole_cpi),
        ]);
    }
    table.print();
    println!("\n(the same BBV-derived points serve every machine — phase selection is");
    println!(" ISA- and microarchitecture-independent, as the SimPoint papers argue)");
}
