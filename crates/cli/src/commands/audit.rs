//! `sampsim audit` — the static-vs-dynamic oracle.
//!
//! Derives per-slice block-frequency bounds from each benchmark's
//! schedule *without executing it*, then differentially checks either
//!
//! * a freshly profiled dynamic run (BBVs + slice-start cursors) against
//!   those bounds (`SA120`–`SA125`), or
//! * shipped `.art` audit summaries (and any `.pb` pinballs) in
//!   `--artifacts DIR` against a fresh derivation (`SA047`, `SA124`),
//!   with `--update` rewriting the summaries.
//!
//! A clean execution can never fire the dynamic checks, so any finding
//! is an executor bug or artifact corruption — not a style complaint.

use crate::args::{LintFormat, Options};
use sampsim_analyze::{
    audit_bbvs_static, audit_cursors, diagnose_unreadable_artifact, render_human,
    render_json_lines, AuditSummary, Diagnostic, Location, Report, Rule, StaticBbvBounds,
};
use sampsim_core::pipeline::Pipeline;
use sampsim_spec2017::BenchmarkSpec;
use sampsim_util::stats::with_commas;
use std::path::Path;

/// Runs the audit and returns the process exit code (same convention as
/// `sampsim lint`: 0 clean, 1 findings, 2 usage errors).
pub fn audit(
    bench: Option<&str>,
    format: LintFormat,
    deny_warnings: bool,
    artifacts: Option<&str>,
    update: bool,
    options: &Options,
) -> Result<u8, Box<dyn std::error::Error>> {
    let specs: Vec<BenchmarkSpec> = match bench {
        Some(pattern) => vec![super::find_benchmark(pattern)?],
        None => sampsim_spec2017::suite(),
    };
    let config = super::pipeline_config(options)?;
    if config.slice_size == 0 {
        return Err(Box::new(super::UsageError(
            "audit needs a positive --slice".into(),
        )));
    }

    if update {
        let dir = artifacts.expect("parser enforces --artifacts with --update");
        return write_summaries(Path::new(dir), &specs, config.slice_size, options);
    }

    let report = match artifacts {
        Some(dir) => check_artifact_dir(Path::new(dir), &specs, config.slice_size, options)?,
        None => dynamic_differential(&specs, &config, options)?,
    };

    match format {
        LintFormat::Human => {
            print!("{}", render_human(&report));
            if report.is_empty() {
                println!("no findings");
            }
        }
        LintFormat::Json => print!("{}", render_json_lines(&report)),
    }
    Ok(report.exit_code(deny_warnings))
}

/// Profiles each benchmark and checks the dynamic BBVs and slice-start
/// cursors against the statically derived bounds.
fn dynamic_differential(
    specs: &[BenchmarkSpec],
    config: &sampsim_core::pipeline::PinPointsConfig,
    options: &Options,
) -> Result<Report, Box<dyn std::error::Error>> {
    let mut report = Report::new();
    for spec in specs {
        let program = spec.scaled(options.scale).build();
        let bounds = StaticBbvBounds::derive(&program, config.slice_size);
        eprintln!(
            "auditing {} ({} instructions, {} slices)...",
            spec.name(),
            with_commas(program.total_insts()),
            bounds.num_slices()
        );
        let (bbvs, cursors, _) =
            Pipeline::new(config.clone()).profile_jobs(&program, sampsim_exec::SERIAL);
        report.merge(audit_bbvs_static(&program, &bounds, &bbvs));
        report.merge(audit_cursors(&program, config.slice_size, &cursors));
    }
    Ok(report)
}

/// Checks `DIR/<bench>.art` for every selected benchmark against a fresh
/// build + derivation, plus any `.pb` pinballs in the directory.
fn check_artifact_dir(
    dir: &Path,
    specs: &[BenchmarkSpec],
    slice_size: u64,
    options: &Options,
) -> Result<Report, Box<dyn std::error::Error>> {
    let mut report = Report::new();
    for spec in specs {
        let path = dir.join(format!("{}.art", spec.name()));
        let shown = path.display().to_string();
        let bytes = match std::fs::read(&path) {
            Ok(b) => b,
            Err(e) => {
                report.push(Diagnostic::new(
                    Rule::ArtifactUnreadable,
                    Location::artifact(&shown),
                    format!("cannot read audit artifact: {e}"),
                ));
                continue;
            }
        };
        let summary = match AuditSummary::from_bytes(&bytes) {
            Ok(s) => s,
            Err(e) => {
                report.push(diagnose_unreadable_artifact(&shown, &e));
                continue;
            }
        };
        let program = spec.scaled(options.scale).build();
        let bounds = StaticBbvBounds::derive(&program, slice_size);
        report.merge(summary.check(&shown, &program, options.scale.factor(), &bounds));
    }
    report.merge(super::lint::audit_artifact_dir(dir, options)?);
    Ok(report)
}

/// `--update`: (re)writes `DIR/<bench>.art` for every selected benchmark.
fn write_summaries(
    dir: &Path,
    specs: &[BenchmarkSpec],
    slice_size: u64,
    options: &Options,
) -> Result<u8, Box<dyn std::error::Error>> {
    std::fs::create_dir_all(dir)?;
    for spec in specs {
        let program = spec.scaled(options.scale).build();
        let bounds = StaticBbvBounds::derive(&program, slice_size);
        let summary = AuditSummary::capture(&program, options.scale.factor(), &bounds);
        let path = dir.join(format!("{}.art", spec.name()));
        std::fs::write(&path, summary.to_bytes())?;
    }
    println!(
        "wrote {} audit summaries to {} (scale {}, slice {})",
        specs.len(),
        dir.display(),
        options.scale.factor(),
        slice_size
    );
    Ok(0)
}
