//! `sampsim perf` — run (or validate) the kernel microbenchmark harness.

use crate::args::Args;

use super::{validate_file, validating, CmdResult};
use sampsim_perf::{compare_reports, run_kernels, validate_report, PerfOptions, SCHEMA};
use sampsim_util::scale::Scale;

/// `sampsim perf [--quick] [-o FILE] [--baseline FILE]`,
/// or `sampsim perf --validate FILE` to only schema-check an existing
/// report (a violation, or any other flag beside it, exits 2).
///
/// The report JSON goes to stdout and, with `-o`, to `FILE`; progress
/// lines go to stderr. Every freshly produced report is validated before
/// it is written, so a green exit also certifies the schema. With
/// `--baseline`, the fresh report is additionally gated against the given
/// report's size-normalized rates (>10% slower on any shared metric
/// fails) — the regression check `scripts/check.sh` runs against the
/// committed `BENCH_kernels.json`.
pub fn perf(args: &Args) -> CmdResult {
    if let Some(path) = validating(args, "perf")? {
        return validate_file(path, SCHEMA, validate_report);
    }
    let perf_options = PerfOptions {
        quick: args.quick,
        // BBV regeneration executes `scale * full_insts` instructions but
        // keeps the full-scale slice count, so the clustering input is
        // full-size either way (see docs/performance.md).
        scale: Scale::new(0.01),
        jobs: args.jobs,
    };
    eprintln!(
        "timing kernels ({} mode)...",
        if args.quick { "quick" } else { "full" }
    );
    let report = run_kernels(&perf_options, |line| eprintln!("  {line}"))?;
    let text = report.to_json();
    validate_report(&text).map_err(|e| format!("generated report failed validation: {e}"))?;
    if let Some(path) = &args.baseline {
        let base_text = std::fs::read_to_string(path)?;
        let compared = compare_reports(&text, &base_text).map_err(|e| format!("{path}: {e}"))?;
        for line in compared {
            eprintln!("  baseline: {line}");
        }
    }
    print!("{text}");
    if let Some(path) = &args.out {
        std::fs::write(path, &text)?;
        eprintln!("wrote {path}");
    }
    Ok(())
}
