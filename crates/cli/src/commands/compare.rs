//! `sampsim compare` — the cross-strategy efficacy study.

use super::{build, create_report_file, pipeline_config, validate_file, validating, CmdResult};
use crate::args::Args;
use sampsim_core::compare::{self, DEFAULT_REPLICATES, SCHEMA};
use sampsim_serve::service::find_benchmark;
use sampsim_simpoint::STRATEGY_NAMES;
use sampsim_util::stats::with_commas;
use std::io::Write;

/// `sampsim compare <bench> [--reps N] [-o FILE]`, or
/// `sampsim compare --validate FILE`.
///
/// Runs every registered sampling strategy against whole-program truth
/// and prints one deterministic `sampsim-compare/v1` JSON line to stdout
/// (and, with `-o`, to `FILE`) — byte-identical for every `--jobs` value.
/// With `--validate`, checks an existing report against the schema and
/// the strategy registry instead of running anything; schema violations
/// and registry drift are usage-class failures (exit 2).
pub fn compare(args: &Args) -> CmdResult {
    if let Some(path) = validating(args, "compare")? {
        return validate_file(path, SCHEMA, compare::validate_report);
    }
    let spec = find_benchmark(args.required("compare needs a benchmark (or --validate <FILE>)")?)?;
    let program = build(&spec, args);
    let config = pipeline_config(args)?;
    let reps = args.reps.unwrap_or(DEFAULT_REPLICATES);
    eprintln!(
        "comparing {} strategies on {} ({} instructions, {} replicates each)...",
        STRATEGY_NAMES.len(),
        spec.name(),
        with_commas(program.total_insts()),
        reps
    );
    let mut sink = args.out.as_deref().map(create_report_file).transpose()?;
    let report = compare::compare_strategies(&program, &config, reps, args.jobs)?;
    let document = report.to_json();
    println!("{document}");
    if let Some(file) = &mut sink {
        writeln!(file, "{document}")?;
    }
    Ok(())
}
