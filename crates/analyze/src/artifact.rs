//! Artifact audits (`SA040`, `SA041`, `SA047`–`SA049`): post-hoc
//! validity of regional pinballs.
//!
//! These are the checks the PinPoints-release methodology applies before
//! publishing simulation points: weights must cover the run exactly once,
//! every region must start on its slice inside the run, and checkpoints
//! must belong to the program they claim to represent.

use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_pinball::RegionalPinball;
use sampsim_workload::Program;

/// Tolerance on the unit-weight invariant. Weights are ratios of small
/// integers, so drift beyond this indicates real corruption rather than
/// floating-point rounding.
pub const WEIGHT_SUM_TOLERANCE: f64 = 1e-6;

/// Audits regional pinballs against the program they were captured from.
pub fn audit_regions(regions: &[RegionalPinball], program: &Program, label: &str) -> Report {
    let mut report = Report::new();
    let loc = |detail: String| Location::artifact(format!("{label}: {detail}"));

    // SA041: each weight in (0, 1]; SA040: together they cover the run.
    let mut total = 0.0;
    for (i, pb) in regions.iter().enumerate() {
        let w = pb.weight;
        total += w;
        if !w.is_finite() || w <= 0.0 || w > 1.0 {
            report.push(Diagnostic::new(
                Rule::BadWeight,
                loc(format!("region {i}")),
                format!("region {i} has weight {w}, outside (0, 1]"),
            ));
        }
    }
    if !regions.is_empty() && (total - 1.0).abs() > WEIGHT_SUM_TOLERANCE {
        report.push(Diagnostic::new(
            Rule::WeightSumDrift,
            Location::artifact(label),
            format!("region weights sum to {total}, expected 1.0"),
        ));
    }

    for pb in regions {
        let region = format!("region at slice {}", pb.slice_index);
        // SA047: provenance.
        if pb.program_digest != program.digest() {
            report.push(Diagnostic::new(
                Rule::DigestMismatch,
                loc(region.clone()),
                format!(
                    "pinball digest {:#018x} does not match program \
                     `{}` ({:#018x})",
                    pb.program_digest,
                    program.name(),
                    program.digest()
                ),
            ));
        }
        // SA048: slice alignment and range.
        let expected_start = pb.slice_index.saturating_mul(pb.length);
        if pb.length == 0 || pb.start.retired != expected_start {
            report.push(Diagnostic::new(
                Rule::MisalignedRegion,
                loc(region.clone()),
                format!(
                    "region starts at instruction {} but slice {} x length {} \
                     = {expected_start}",
                    pb.start.retired, pb.slice_index, pb.length
                ),
            ));
        } else if pb.start.retired >= program.total_insts() {
            report.push(Diagnostic::new(
                Rule::MisalignedRegion,
                loc(region),
                format!(
                    "region starts at instruction {} beyond the program end \
                     ({})",
                    pb.start.retired,
                    program.total_insts()
                ),
            ));
        }
    }

    // SA049: duplicate slices.
    let mut slices: Vec<u64> = regions.iter().map(|pb| pb.slice_index).collect();
    slices.sort_unstable();
    for w in slices.windows(2) {
        if w[0] == w[1] {
            report.push(Diagnostic::new(
                Rule::DuplicatePoints,
                loc(format!("region at slice {}", w[0])),
                format!("two regions checkpoint the same slice {}", w[0]),
            ));
        }
    }
    report
}
