//! Workload IR lints (`SA001`–`SA014`): structural validity of basic
//! blocks, phases and the schedule, plus the schedule's one recurrence
//! fact (`SA110`).
//!
//! [`lint_program`] checks a fully built [`Program`];
//! [`lint_program_parts`] runs the same rules over loose parts, which lets
//! callers (and tests) validate IR that `Program::new` itself rejects with
//! a typed [`IrError`]. [`diagnose_ir_error`] maps each constructor
//! rejection onto the lint rule that detects the same condition, so the
//! two validation paths speak one diagnostic language.

use crate::diag::{Diagnostic, Location, Report, Rule};
use sampsim_workload::{BasicBlock, InstKind, IrError, Phase, Program, Schedule};

/// Lints a built program.
pub fn lint_program(program: &Program) -> Report {
    lint_program_parts(
        program.name(),
        program.blocks(),
        program.phases(),
        program.schedule(),
    )
}

/// Lints loose program parts (the same rules as [`lint_program`]).
pub fn lint_program_parts(
    name: &str,
    blocks: &[BasicBlock],
    phases: &[Phase],
    schedule: &Schedule,
) -> Report {
    let mut report = Report::new();
    let loc = |item: String| Location::workload_item(name, item);

    // SA010/SA013: empty blocks, non-branch terminators.
    for (b, block) in blocks.iter().enumerate() {
        match block.insts.last() {
            None => report.push(Diagnostic::new(
                Rule::EmptyBlock,
                loc(format!("block {b}")),
                format!("block {b} contains no instructions"),
            )),
            Some(last) if !matches!(last.kind, InstKind::Branch { .. }) => {
                report.push(Diagnostic::new(
                    Rule::MissingTerminalBranch,
                    loc(format!("block {b}")),
                    format!(
                        "block {b} at {:#x} ends in {:?}, not a branch",
                        block.pc, last.kind
                    ),
                ));
            }
            Some(_) => {}
        }
    }

    let mut expected_stream_base = 0u32;
    for (p, phase) in phases.iter().enumerate() {
        // SA004: empty phases.
        if phase.blocks.is_empty() {
            report.push(Diagnostic::new(
                Rule::EmptyPhase,
                loc(format!("phase {p}")),
                format!("phase {p} owns no basic blocks"),
            ));
        }

        // SA001: dangling block references.
        for &b in &phase.blocks {
            if (b as usize) >= blocks.len() {
                report.push(Diagnostic::new(
                    Rule::DanglingBlockRef,
                    loc(format!("phase {p}")),
                    format!(
                        "phase {p} references block {b}, but the program has \
                         {} block(s)",
                        blocks.len()
                    ),
                ));
            }
        }

        // SA005: the block-selection probability row.
        if phase.block_weights.len() != phase.blocks.len() {
            report.push(Diagnostic::new(
                Rule::BadBlockWeights,
                loc(format!("phase {p}")),
                format!(
                    "phase {p} has {} block(s) but {} weight(s)",
                    phase.blocks.len(),
                    phase.block_weights.len()
                ),
            ));
        } else if !phase.blocks.is_empty() {
            let bad = phase
                .block_weights
                .iter()
                .any(|w| !w.is_finite() || *w <= 0.0);
            let total: f64 = phase.block_weights.iter().sum();
            if bad || !(total.is_finite() && total > 0.0) {
                report.push(Diagnostic::new(
                    Rule::BadBlockWeights,
                    loc(format!("phase {p}")),
                    format!(
                        "phase {p} selection weights {:?} do not normalize to \
                         a probability row summing to 1.0",
                        phase.block_weights
                    ),
                ));
            }
        }

        // SA006: selection noise.
        if !(0.0..=1.0).contains(&phase.selection_noise) || phase.selection_noise.is_nan() {
            report.push(Diagnostic::new(
                Rule::BadSelectionNoise,
                loc(format!("phase {p}")),
                format!(
                    "phase {p} selection_noise is {}, outside [0, 1]",
                    phase.selection_noise
                ),
            ));
        }

        // SA007: dangling stream references from memory instructions.
        for &b in &phase.blocks {
            let Some(block) = blocks.get(b as usize) else {
                continue; // already reported as SA001
            };
            for inst in &block.insts {
                if let Some(s) = inst.stream() {
                    if (s as usize) >= phase.streams.len() {
                        report.push(Diagnostic::new(
                            Rule::DanglingStreamRef,
                            loc(format!("phase {p}, block {b}")),
                            format!(
                                "instruction references stream {s}, but phase \
                                 {p} owns {} stream(s)",
                                phase.streams.len()
                            ),
                        ));
                    }
                }
            }
        }

        // SA011: densely packed stream bases.
        if phase.stream_base != expected_stream_base {
            report.push(Diagnostic::new(
                Rule::StreamBaseMismatch,
                loc(format!("phase {p}")),
                format!(
                    "phase {p} stream_base is {}, expected {} (running stream \
                     count)",
                    phase.stream_base, expected_stream_base
                ),
            ));
        }
        expected_stream_base = expected_stream_base.saturating_add(phase.streams.len() as u32);

        // SA012: zero-size regions.
        for (s, stream) in phase.streams.iter().enumerate() {
            if stream.region.size == 0 {
                report.push(Diagnostic::new(
                    Rule::ZeroSizeRegion,
                    loc(format!("phase {p}, stream {s}")),
                    format!(
                        "stream {s} of phase {p} covers a zero-size region at \
                         {:#x}",
                        stream.region.base
                    ),
                ));
            }
        }
    }

    // SA008: overlapping stream working sets (across all phases).
    let mut regions: Vec<(u64, u64, usize, usize)> = phases
        .iter()
        .enumerate()
        .flat_map(|(p, phase)| {
            phase
                .streams
                .iter()
                .enumerate()
                .filter(|(_, s)| s.region.size > 0)
                .map(move |(s, stream)| (stream.region.base, stream.region.size, p, s))
        })
        .collect();
    regions.sort_unstable();
    for w in regions.windows(2) {
        let (a_base, a_size, a_p, a_s) = w[0];
        let (b_base, _, b_p, b_s) = w[1];
        if a_base.saturating_add(a_size) > b_base {
            report.push(Diagnostic::new(
                Rule::OverlappingStreamRegions,
                loc(format!("phase {a_p}, stream {a_s}")),
                format!(
                    "region [{a_base:#x}, +{a_size:#x}) of phase {a_p} stream \
                     {a_s} overlaps region at {b_base:#x} of phase {b_p} \
                     stream {b_s}"
                ),
            ));
        }
    }

    // SA014: zero-length segments. `Schedule::new` rejects these, so this
    // only fires on schedules decoded from hostile or corrupt input.
    for (i, seg) in schedule.segments().iter().enumerate() {
        if seg.insts == 0 {
            report.push(Diagnostic::new(
                Rule::ZeroLengthSegment,
                loc(format!("schedule segment {i}")),
                format!("segment {i} retires zero instructions"),
            ));
        }
    }

    // SA002: dangling phase references from the schedule.
    for (i, seg) in schedule.segments().iter().enumerate() {
        if (seg.phase as usize) >= phases.len() {
            report.push(Diagnostic::new(
                Rule::DanglingPhaseRef,
                loc(format!("schedule segment {i}")),
                format!(
                    "segment {i} references phase {}, but the program has {} \
                     phase(s)",
                    seg.phase,
                    phases.len()
                ),
            ));
        }
    }

    // SA003: unreachable phases. The per-phase segment counts also
    // decide SA110 below.
    let mut segments = vec![0u64; phases.len()];
    for seg in schedule.segments() {
        if let Some(count) = segments.get_mut(seg.phase as usize) {
            *count += 1;
        }
    }
    for (p, &count) in segments.iter().enumerate() {
        if count == 0 {
            report.push(Diagnostic::new(
                Rule::UnreachablePhase,
                loc(format!("phase {p}")),
                format!("phase {p} never appears in the schedule"),
            ));
        }
    }

    // SA009: empty schedule.
    if schedule.is_empty() || schedule.total_insts() == 0 {
        report.push(Diagnostic::new(
            Rule::EmptySchedule,
            loc("schedule".into()),
            "the schedule contains no instructions".to_string(),
        ));
    }

    // SA110: phases of a multi-phase program that own exactly one
    // schedule segment, folded into one note per workload.
    if phases.len() > 1 {
        let once: Vec<String> = segments
            .iter()
            .enumerate()
            .filter(|&(_, &count)| count == 1)
            .map(|(p, _)| p.to_string())
            .collect();
        if !once.is_empty() {
            let message = if once.len() == 1 {
                format!(
                    "phase {} owns exactly one schedule segment and never recurs",
                    once[0]
                )
            } else {
                format!(
                    "{} of {} phases own exactly one schedule segment and \
                     never recur: {}",
                    once.len(),
                    phases.len(),
                    once.join(", ")
                )
            };
            report.push(Diagnostic::new(
                Rule::NonRecurrentPhase,
                loc("schedule".into()),
                message,
            ));
        }
    }

    report
}

/// Maps a typed IR construction error onto the lint rule that detects the
/// same condition, producing a [`Diagnostic`] in the shared format.
///
/// This is the bridge between the two validation paths: constructors
/// reject malformed IR with an [`IrError`], lints re-detect the same
/// defects on loose parts; both now surface identically.
pub fn diagnose_ir_error(name: &str, err: &IrError) -> Diagnostic {
    let rule = match err {
        IrError::EmptyBlock { .. } => Rule::EmptyBlock,
        IrError::MissingTerminalBranch { .. } => Rule::MissingTerminalBranch,
        IrError::EmptyPhase => Rule::EmptyPhase,
        IrError::BadBlockWeights { .. } => Rule::BadBlockWeights,
        IrError::BadSelectionNoise { .. } => Rule::BadSelectionNoise,
        IrError::ZeroSizeRegion { .. } => Rule::ZeroSizeRegion,
        IrError::ZeroLengthSegment { .. } => Rule::ZeroLengthSegment,
        IrError::DanglingPhaseRef { .. } => Rule::DanglingPhaseRef,
        IrError::DanglingBlockRef { .. } => Rule::DanglingBlockRef,
        IrError::StreamBaseMismatch { .. } => Rule::StreamBaseMismatch,
        IrError::DanglingStreamRef { .. } => Rule::DanglingStreamRef,
    };
    let item = match err {
        IrError::EmptyBlock { pc } | IrError::MissingTerminalBranch { pc } => {
            format!("block at {pc:#x}")
        }
        IrError::ZeroSizeRegion { base } => format!("region at {base:#x}"),
        IrError::ZeroLengthSegment { segment } | IrError::DanglingPhaseRef { segment, .. } => {
            format!("schedule segment {segment}")
        }
        IrError::DanglingBlockRef { phase, .. }
        | IrError::StreamBaseMismatch { phase, .. }
        | IrError::DanglingStreamRef { phase, .. } => format!("phase {phase}"),
        IrError::EmptyPhase
        | IrError::BadBlockWeights { .. }
        | IrError::BadSelectionNoise { .. } => String::new(),
    };
    let location = if item.is_empty() {
        Location::workload(name)
    } else {
        Location::workload_item(name, item)
    };
    Diagnostic::new(rule, location, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
    use sampsim_workload::Segment;

    #[test]
    fn built_workload_is_clean() {
        let program = WorkloadSpec::builder("clean", 5)
            .total_insts(100_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build();
        let report = lint_program(&program);
        assert!(report.is_empty(), "{:?}", report.diagnostics());
    }

    #[test]
    fn ir_errors_map_to_matching_rules() {
        let cases = [
            (IrError::EmptyBlock { pc: 0x40 }, Rule::EmptyBlock),
            (
                IrError::MissingTerminalBranch { pc: 0x40 },
                Rule::MissingTerminalBranch,
            ),
            (IrError::EmptyPhase, Rule::EmptyPhase),
            (
                IrError::BadBlockWeights {
                    blocks: 2,
                    weights: 1,
                },
                Rule::BadBlockWeights,
            ),
            (
                IrError::BadSelectionNoise { noise: 2.0 },
                Rule::BadSelectionNoise,
            ),
            (IrError::ZeroSizeRegion { base: 8 }, Rule::ZeroSizeRegion),
            (
                IrError::ZeroLengthSegment { segment: 3 },
                Rule::ZeroLengthSegment,
            ),
            (
                IrError::DanglingPhaseRef {
                    segment: 0,
                    phase: 9,
                    num_phases: 1,
                },
                Rule::DanglingPhaseRef,
            ),
            (
                IrError::DanglingBlockRef {
                    phase: 0,
                    block: 9,
                    num_blocks: 1,
                },
                Rule::DanglingBlockRef,
            ),
            (
                IrError::StreamBaseMismatch {
                    phase: 1,
                    actual: 0,
                    expected: 2,
                },
                Rule::StreamBaseMismatch,
            ),
            (
                IrError::DanglingStreamRef {
                    phase: 0,
                    block: 0,
                    stream: 4,
                    num_streams: 1,
                },
                Rule::DanglingStreamRef,
            ),
        ];
        for (err, rule) in cases {
            let d = diagnose_ir_error("w", &err);
            assert_eq!(d.rule, rule, "{err}");
            assert_eq!(d.message, err.to_string());
        }
    }

    fn sched(phases: &[u32]) -> Schedule {
        Schedule::new(
            phases
                .iter()
                .map(|&p| Segment {
                    phase: p,
                    insts: 100,
                })
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn non_recurrent_phase_noted() {
        let program = WorkloadSpec::builder("w", 7)
            .total_insts(100_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .build()
            .build();
        let (blocks, phases) = (program.blocks(), program.phases());
        let lint =
            |n: usize, order: &[u32]| lint_program_parts("w", blocks, &phases[..n], &sched(order));

        let r = lint(3, &[0, 1, 0, 2, 0]);
        assert!(r.fired(Rule::NonRecurrentPhase));
        assert_eq!(
            r.diagnostics().len(),
            1,
            "phases 1 and 2 fold into one note"
        );
        assert!(
            r.diagnostics()[0].message.contains("1, 2"),
            "{:?}",
            r.diagnostics()[0].message
        );
        assert!(lint(2, &[0, 1, 0, 1]).is_empty());
        assert!(lint(1, &[0]).is_empty(), "single-phase programs are exempt");

        // The note comes last, after the schedule's structural findings.
        let r = lint(4, &[0, 1, 0, 2, 0]);
        let rules: Vec<Rule> = r.diagnostics().iter().map(|d| d.rule).collect();
        assert_eq!(rules, [Rule::UnreachablePhase, Rule::NonRecurrentPhase]);
    }
}
