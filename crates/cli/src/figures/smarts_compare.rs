//! SimPoint vs SMARTS-style systematic sampling under matched instruction
//! budgets.
//!
//! SMARTS measures many tiny units spread systematically across the run
//! and reports a CLT confidence interval; SimPoint replays few clustered
//! representatives. This ablation compares their instruction-mix and CPI
//! estimates against the whole run on one benchmark.

use super::FigureArgs;
use crate::commands::CmdResult;
use sampsim_core::bench_result::StudyConfig;
use sampsim_core::metrics::aggregate_weighted;
use sampsim_core::runs::{self, WarmupMode};
use sampsim_core::{Pipeline, RunOptions};
use sampsim_exec::SERIAL;
use sampsim_pin::engine;
use sampsim_pin::tools::LdStMix;
use sampsim_simpoint::smarts;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_uarch::Sniper;
use sampsim_util::table::{fmt_f, Table};
use sampsim_workload::Executor;

pub(super) fn render(args: &FigureArgs) -> CmdResult {
    let id = BenchmarkId::X264R;
    let config = StudyConfig::default().scaled(args.scale);
    let program = benchmark(id).scaled(args.scale).build();

    // Whole-run references.
    let whole_func = runs::run_whole_functional(
        &program,
        config.pinpoints.profile_cache.expect("cache configured"),
    );
    let whole_timing = runs::run_whole_timing(&program, config.core, config.timing_hierarchy);
    let whole_read_pct = whole_func.mix.distribution_pct()[1];
    let whole_cpi = whole_timing.timing.as_ref().expect("timing stats").cpi();

    // SimPoint side.
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = None;
    let pipeline_result = Pipeline::new(pp.clone()).run(&program, &RunOptions::default())?;
    let sp_regions = runs::run_regions_timing_jobs(
        &program,
        &pipeline_result.regional,
        config.core,
        config.timing_hierarchy,
        WarmupMode::Checkpointed,
        SERIAL,
    )?;
    let sp_agg = aggregate_weighted(&sp_regions);
    let sp_budget: u64 = pipeline_result.regional.len() as u64 * pp.slice_size;

    // SMARTS side: the same measured-instruction budget split into units
    // of 1/10 slice, systematically spread, with SMARTS' defining
    // ingredient — continuous functional warming of caches and predictors
    // between the detailed units (the expensive part the SimFlex/CoolSim
    // line of work tries to cheapen).
    let unit = (pp.slice_size / 10).max(100);
    let n_units = (sp_budget / unit) as usize;
    let total_units = program.total_insts() / unit;
    let picks = smarts::systematic_indices(total_units, n_units);
    let mut read_samples = Vec::with_capacity(picks.len());
    let mut cpi_samples = Vec::with_capacity(picks.len());
    let mut exec = Executor::new(&program);
    let mut tools = (
        LdStMix::new(),
        Sniper::new(config.core, config.timing_hierarchy),
    );
    for &u in &picks {
        let target = u * unit;
        if exec.retired() > target {
            continue; // overlapping strata at tiny scales
        }
        // Functional warming up to the unit.
        tools.1.set_warming(true);
        let to_warm = target - exec.retired();
        engine::run_one(&mut exec, to_warm, &mut tools.1);
        tools.1.set_warming(false);
        // Detailed measurement of the unit.
        tools.1.reset_stats();
        tools.0 = LdStMix::new();
        engine::run_one(&mut exec, unit, &mut tools);
        let stats = tools.1.stats();
        if stats.instructions > 0 {
            cpi_samples.push(stats.cpi());
            read_samples.push(tools.0.counts().distribution_pct()[1]);
        }
    }
    let read_est = smarts::estimate(&read_samples, 0.95);
    let cpi_est = smarts::estimate(&cpi_samples, 0.95);

    let mut table = Table::new(["Method", "Budget (insts)", "MEM_R %", "CPI", "CPI err%"]);
    table.title(format!(
        "SimPoint vs SMARTS-style systematic sampling, {} (whole MEM_R {:.2}%, CPI {:.3})",
        id.name(),
        whole_read_pct,
        whole_cpi
    ));
    table.row(vec![
        format!("SimPoint ({} pts)", pipeline_result.regional.len()),
        sp_budget.to_string(),
        fmt_f(sp_agg.mix_pct[1], 2),
        fmt_f(sp_agg.cpi.expect("timing stats"), 3),
        fmt_f(
            100.0 * (sp_agg.cpi.unwrap() - whole_cpi).abs() / whole_cpi,
            2,
        ),
    ]);
    table.row(vec![
        format!("SMARTS ({} units)", cpi_samples.len()),
        (cpi_samples.len() as u64 * unit).to_string(),
        format!("{:.2}±{:.2}", read_est.mean, read_est.half_width),
        format!("{:.3}±{:.3}", cpi_est.mean, cpi_est.half_width),
        fmt_f(100.0 * (cpi_est.mean - whole_cpi).abs() / whole_cpi, 2),
    ]);
    table.print();
    println!(
        "\nSMARTS 95% CI covers the whole-run CPI: {}",
        if cpi_est.covers(whole_cpi) {
            "yes"
        } else {
            "no"
        }
    );
    println!(
        "units for 5% relative error at 95% (from measured CoV {:.2}): {}",
        cpi_est.stddev / cpi_est.mean,
        smarts::required_units(cpi_est.stddev / cpi_est.mean, 0.95, 0.05)
    );
    println!("\n(note: SMARTS' accuracy rides on continuous functional warming between units,");
    println!(" which costs a full functional pass — the constraint SimFlex/CoolSim attack)");
    Ok(())
}
