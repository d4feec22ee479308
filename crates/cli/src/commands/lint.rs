//! `sampsim lint` — static checks over workloads, the pipeline
//! configuration and (optionally) saved pinball artifacts.

use crate::args::{Args, LintFormat};
use sampsim_analyze::{
    audit_regions, lint_memory, lint_program, lint_soundness, render_human, render_json_lines,
    Report, Rule, SoundnessInput,
};
use sampsim_cache::configs;
use sampsim_pinball::store;
use sampsim_spec2017::BenchmarkSpec;
use std::path::Path;

/// Runs the lint pass and returns the process exit code (0 clean, 1 when
/// errors — or, with `--deny-warnings`, warnings — were reported).
pub fn lint(args: &Args) -> Result<u8, Box<dyn std::error::Error>> {
    // `--explain` answers from the rule registry alone — no benchmarks
    // are built, no lint pass runs, so it refuses every other flag.
    if let Some(id) = &args.explain {
        super::only_mode(args, "lint", "--explain")?;
        explain(id)?;
        return Ok(0);
    }
    let specs: Vec<BenchmarkSpec> = match args.operand(0) {
        Some(pattern) => vec![super::find_benchmark(pattern)?],
        None => sampsim_spec2017::suite(),
    };
    let config = super::pipeline_config(args)?;
    let mut report = Report::new();

    // The configuration itself, once (run-length independent rules).
    report.merge(config.lint(None));

    for spec in &specs {
        let program = spec.scaled(args.scale).build();
        report.merge(lint_program(&program));
        // Memory abstract interpretation against the paper's `allcache`
        // hierarchy (the geometry every profile runs against).
        report.merge(lint_memory(&program, &configs::allcache_table1()));
        // Run-length proportionality rules (SA022/SA028) depend on the
        // program; keep only those here so config-wide findings are not
        // repeated once per benchmark.
        if config.slice_size > 0 {
            let expected = program.total_insts().div_ceil(config.slice_size);
            let proportional: Report = config
                .lint(Some(expected))
                .into_diagnostics()
                .into_iter()
                .filter(|d| matches!(d.rule, Rule::MaxKExceedsSlices | Rule::ExcessiveWarmup))
                .map(|mut d| {
                    d.message = format!("{} ({})", d.message, spec.name());
                    d
                })
                .collect();
            report.merge(proportional);
            // Statistical-soundness rules (SA140–SA145) are likewise
            // per-benchmark: they depend on the slice count and the
            // whole-run instruction mass.
            let soundness: Report = lint_soundness(&SoundnessInput {
                strategy: &config.strategy,
                simpoint: &config.simpoint,
                slice_size: config.slice_size,
                warmup_slices: config.warmup_slices,
                num_slices: expected,
                total_insts: program.total_insts(),
                materialized_budget_bytes: sampsim_analyze::DEFAULT_MATERIALIZED_BUDGET_BYTES,
            })
            .into_diagnostics()
            .into_iter()
            .map(|mut d| {
                d.message = format!("{} ({})", d.message, spec.name());
                d
            })
            .collect();
            report.merge(soundness);
        }
    }

    if let Some(dir) = &args.artifacts {
        report.merge(audit_artifact_dir(Path::new(dir), args)?);
    }

    match args.format {
        LintFormat::Human => {
            print!("{}", render_human(&report));
            if report.is_empty() {
                println!("no findings");
            }
        }
        LintFormat::Json => print!("{}", render_json_lines(&report)),
    }
    Ok(report.exit_code(args.deny_warnings))
}

/// `sampsim lint --explain <SA-id>` — prints the rule's one-paragraph
/// description from the single source of truth (the `sampsim-analyze`
/// rule registry). An unknown id is a usage-class failure (exit 2).
fn explain(id: &str) -> Result<(), super::UsageError> {
    let rule = Rule::from_code(id).ok_or_else(|| {
        super::UsageError(format!(
            "unknown lint rule '{id}' (rules run from SA001; see docs/lint-rules.md)"
        ))
    })?;
    println!("{}", rule.explain());
    Ok(())
}

/// Audits every regional-pinball file (`*.pb`, excluding `*.whole.pb`) in
/// `dir` against the benchmark named inside it. Shared with `sampsim
/// audit --artifacts`.
pub(super) fn audit_artifact_dir(
    dir: &Path,
    args: &Args,
) -> Result<Report, Box<dyn std::error::Error>> {
    let mut report = Report::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.extension().is_some_and(|e| e == "pb") && !p.to_string_lossy().ends_with(".whole.pb")
        })
        .collect();
    paths.sort();
    for path in paths {
        let regions = store::load_regions(&path)?;
        let Some(first) = regions.first() else {
            continue;
        };
        let spec = super::find_benchmark(&first.program_name)?;
        let program = spec.scaled(args.scale).build();
        report.merge(audit_regions(
            &regions,
            &program,
            &path.display().to_string(),
        ));
    }
    Ok(report)
}
