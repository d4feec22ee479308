//! Per-rule fixtures: every `SA0xx` rule has one triggering fixture and
//! one clean counterpart, plus a golden test of the JSON renderer shape.

use sampsim_analyze::{
    audit_bbvs_static, audit_cursors, audit_regions, diagnose_ir_error,
    diagnose_unreadable_artifact, lint_hierarchy, lint_memory, lint_program, lint_program_parts,
    lint_sampling_config, lint_simpoint_options, render_json_lines, AuditSummary, Diagnostic,
    Location, Report, Rule, SamplingConfig, Severity, StaticBbvBounds,
};
use sampsim_cache::{configs, HierarchyConfig};
use sampsim_pinball::RegionalPinball;
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::SimPointOptions;
use sampsim_workload::spec::{PhaseSpec, WorkloadSpec};
use sampsim_workload::{
    AddressPattern, BasicBlock, Cursor, InstKind, MemRegion, Phase, Program, Schedule, Segment,
    StaticInst, StreamSpec,
};

// ---------------------------------------------------------------- helpers

fn alu_block(pc: u64) -> BasicBlock {
    BasicBlock {
        insts: vec![
            StaticInst {
                kind: InstKind::Alu,
            },
            StaticInst {
                kind: InstKind::Alu,
            },
            StaticInst {
                kind: InstKind::Branch { bias: 32_768 },
            },
        ],
        pc,
    }
}

fn mem_block(pc: u64, stream: u16) -> BasicBlock {
    BasicBlock {
        insts: vec![
            StaticInst {
                kind: InstKind::Load { stream },
            },
            StaticInst {
                kind: InstKind::Branch { bias: 32_768 },
            },
        ],
        pc,
    }
}

fn stream(base: u64, size: u64) -> StreamSpec {
    StreamSpec {
        region: MemRegion { base, size },
        pattern: AddressPattern::Stride { stride: 64 },
    }
}

fn phase(blocks: Vec<u32>) -> Phase {
    let weights = vec![1.0; blocks.len()];
    Phase {
        blocks,
        block_weights: weights,
        streams: Vec::new(),
        stream_base: 0,
        selection_noise: 0.1,
    }
}

fn schedule(phases: &[u32]) -> Schedule {
    Schedule::new(
        phases
            .iter()
            .map(|&p| Segment {
                phase: p,
                insts: 1_000,
            })
            .collect(),
    )
    .unwrap()
}

/// A minimal structurally valid (blocks, phases, schedule) triple.
fn clean_parts() -> (Vec<BasicBlock>, Vec<Phase>, Schedule) {
    (
        vec![alu_block(0x1000)],
        vec![phase(vec![0])],
        schedule(&[0]),
    )
}

fn lint_parts(blocks: &[BasicBlock], phases: &[Phase], sched: &Schedule) -> Report {
    lint_program_parts("fixture", blocks, phases, sched)
}

fn built_program() -> Program {
    WorkloadSpec::builder("audit-fixture", 7)
        .total_insts(100_000)
        .phase(PhaseSpec::balanced(1.0))
        .build()
        .build()
}

fn region(program: &Program, slice_index: u64, length: u64, weight: f64) -> RegionalPinball {
    let mut cursor = Cursor::start(program);
    cursor.retired = slice_index * length;
    RegionalPinball::new(
        program,
        slice_index,
        cursor,
        length,
        weight,
        slice_index as u32,
    )
}

// ---------------------------------------------------------- workload rules

#[test]
fn clean_parts_have_no_findings() {
    let (blocks, phases, sched) = clean_parts();
    let report = lint_parts(&blocks, &phases, &sched);
    assert!(report.is_empty(), "{:?}", report.diagnostics());
}

#[test]
fn sa001_dangling_block_ref() {
    let (blocks, mut phases, sched) = clean_parts();
    phases[0].blocks = vec![0, 7];
    phases[0].block_weights = vec![1.0, 1.0];
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::DanglingBlockRef));
}

#[test]
fn sa002_dangling_phase_ref() {
    let (blocks, phases, _) = clean_parts();
    let sched = schedule(&[0, 3]);
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::DanglingPhaseRef));
}

#[test]
fn sa003_unreachable_phase() {
    let (blocks, mut phases, sched) = clean_parts();
    phases.push(phase(vec![0])); // phase 1 never scheduled
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::UnreachablePhase));
}

#[test]
fn sa004_empty_phase() {
    let (blocks, mut phases, sched) = clean_parts();
    phases[0].blocks.clear();
    phases[0].block_weights.clear();
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::EmptyPhase));
}

#[test]
fn sa005_bad_block_weights() {
    let (blocks, mut phases, sched) = clean_parts();
    phases[0].block_weights = vec![1.0, 2.0]; // length mismatch
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::BadBlockWeights));
    phases[0].block_weights = vec![-1.0]; // non-positive
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::BadBlockWeights));
    phases[0].block_weights = vec![f64::NAN];
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::BadBlockWeights));
}

#[test]
fn sa006_bad_selection_noise() {
    let (blocks, mut phases, sched) = clean_parts();
    phases[0].selection_noise = 1.5;
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::BadSelectionNoise));
}

#[test]
fn sa007_dangling_stream_ref() {
    let (_, mut phases, sched) = clean_parts();
    let blocks = vec![mem_block(0x1000, 2)]; // stream 2 of 1
    phases[0].streams = vec![stream(0x1_0000, 4096)];
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::DanglingStreamRef));
    // Clean counterpart: stream 0 exists.
    let blocks = vec![mem_block(0x1000, 0)];
    assert!(lint_parts(&blocks, &phases, &sched).is_empty());
}

#[test]
fn sa008_overlapping_stream_regions() {
    let (_, mut phases, sched) = clean_parts();
    let blocks = vec![mem_block(0x1000, 0)];
    phases[0].streams = vec![stream(0x1_0000, 4096), stream(0x1_0800, 4096)];
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::OverlappingStreamRegions));
    // Adjacent-but-disjoint regions are fine.
    phases[0].streams = vec![stream(0x1_0000, 4096), stream(0x1_1000, 4096)];
    assert!(!lint_parts(&blocks, &phases, &sched).fired(Rule::OverlappingStreamRegions));
}

#[test]
fn sa009_empty_schedule() {
    let (blocks, mut phases, _) = clean_parts();
    let sched = Schedule::new(Vec::new()).unwrap();
    phases[0].blocks = vec![0];
    let report = lint_parts(&blocks, &phases, &sched);
    assert!(report.fired(Rule::EmptySchedule));
}

#[test]
fn sa010_empty_block() {
    let (mut blocks, phases, sched) = clean_parts();
    blocks.push(BasicBlock {
        insts: Vec::new(),
        pc: 0x2000,
    });
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::EmptyBlock));
}

#[test]
fn sa011_stream_base_mismatch() {
    let (_, mut phases, _) = clean_parts();
    let blocks = vec![mem_block(0x1000, 0)];
    let sched = schedule(&[0, 1]);
    phases[0].streams = vec![stream(0x1_0000, 4096)];
    let mut second = phase(vec![0]);
    second.stream_base = 5; // should be 1 (phase 0 owns one stream)
    phases.push(second);
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::StreamBaseMismatch));
    phases[1].stream_base = 1;
    assert!(!lint_parts(&blocks, &phases, &sched).fired(Rule::StreamBaseMismatch));
}

#[test]
fn sa012_zero_size_region() {
    let (_, mut phases, sched) = clean_parts();
    let blocks = vec![mem_block(0x1000, 0)];
    phases[0].streams = vec![stream(0x1_0000, 0)];
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::ZeroSizeRegion));
}

#[test]
fn built_suite_program_is_clean() {
    assert!(lint_program(&built_program()).is_empty());
}

#[test]
fn sa013_missing_terminal_branch() {
    let (mut blocks, phases, sched) = clean_parts();
    blocks[0].insts.push(StaticInst {
        kind: InstKind::Alu,
    }); // branch no longer last
    assert!(lint_parts(&blocks, &phases, &sched).fired(Rule::MissingTerminalBranch));
    let (blocks, phases, sched) = clean_parts();
    assert!(!lint_parts(&blocks, &phases, &sched).fired(Rule::MissingTerminalBranch));
}

#[test]
fn sa014_zero_length_segment() {
    // `Schedule::new` rejects the segment at construction; the typed error
    // maps onto the same rule the defensive lint check carries.
    let err = Schedule::new(vec![Segment { phase: 0, insts: 0 }]).unwrap_err();
    let diag = diagnose_ir_error("fixture", &err);
    assert_eq!(diag.rule, Rule::ZeroLengthSegment);
    assert!(Schedule::new(vec![Segment { phase: 0, insts: 1 }]).is_ok());
}

// ------------------------------------------------------------ config rules

fn config_with<'a>(simpoint: &'a SimPointOptions) -> SamplingConfig<'a> {
    SamplingConfig {
        slice_size: 10_000,
        warmup_slices: 48,
        simpoint,
        profile_cache: None,
        expected_slices: Some(1_000),
    }
}

#[test]
fn default_config_is_clean() {
    let options = SimPointOptions::default();
    assert!(lint_sampling_config(&config_with(&options)).is_empty());
}

#[test]
fn sa020_zero_slice_size() {
    let options = SimPointOptions::default();
    let mut config = config_with(&options);
    config.slice_size = 0;
    assert!(lint_sampling_config(&config).fired(Rule::ZeroSliceSize));
}

#[test]
fn sa021_bad_max_k() {
    let options = SimPointOptions {
        max_k: 0,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::BadMaxK));
}

#[test]
fn sa022_max_k_exceeds_slices() {
    let options = SimPointOptions::default();
    let mut config = config_with(&options);
    config.expected_slices = Some(10); // MaxK 35 >= 10 slices
    assert!(lint_sampling_config(&config).fired(Rule::MaxKExceedsSlices));
}

#[test]
fn sa023_bad_projection_dim() {
    let options = SimPointOptions {
        dim: 0,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::BadProjectionDim));
}

#[test]
fn sa024_zero_init() {
    let options = SimPointOptions {
        n_init: 0,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::ZeroInit));
}

#[test]
fn sa025_zero_max_iter() {
    let options = SimPointOptions {
        max_iter: 0,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::ZeroMaxIter));
}

#[test]
fn sa026_bad_bic_threshold() {
    let options = SimPointOptions {
        bic_threshold: 1.5,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::BadBicThreshold));
}

#[test]
fn sa027_zero_sample_size() {
    let options = SimPointOptions {
        sample_size: 0,
        ..Default::default()
    };
    assert!(lint_simpoint_options(&options).fired(Rule::ZeroSampleSize));
}

#[test]
fn sa028_excessive_warmup() {
    let options = SimPointOptions::default();
    let mut config = config_with(&options);
    config.warmup_slices = 1_000; // covers the whole 1000-slice run
    assert!(lint_sampling_config(&config).fired(Rule::ExcessiveWarmup));
}

// ------------------------------------------------------- hierarchy rules

fn hierarchy() -> HierarchyConfig {
    configs::allcache_table1()
}

#[test]
fn paper_hierarchies_are_clean() {
    for h in [configs::allcache_table1(), configs::i7_table3()] {
        assert!(lint_hierarchy(&h, "cache").is_empty());
    }
}

#[test]
fn sa030_line_not_pow2() {
    let mut h = hierarchy();
    h.l1d.line_bytes = 48;
    assert!(lint_hierarchy(&h, "cache").fired(Rule::LineNotPow2));
}

#[test]
fn sa031_bad_cache_geometry() {
    let mut h = hierarchy();
    h.l2.ways = 0;
    assert!(lint_hierarchy(&h, "cache").fired(Rule::BadCacheGeometry));
    let mut h = hierarchy();
    h.l3.size_bytes += 1; // no longer a multiple of ways * line
    assert!(lint_hierarchy(&h, "cache").fired(Rule::BadCacheGeometry));
}

#[test]
fn sa032_latency_inversion() {
    let mut h = hierarchy();
    h.l2.latency = h.l3.latency + 10;
    assert!(lint_hierarchy(&h, "cache").fired(Rule::LatencyInversion));
}

#[test]
fn sa033_line_size_mismatch() {
    let mut h = hierarchy();
    h.l1d.line_bytes = 128;
    h.l1d.size_bytes = 32 * 1024; // keep the geometry valid: 32K/8/128 = 32 sets
    assert!(lint_hierarchy(&h, "cache").fired(Rule::LineSizeMismatch));
}

// ------------------------------------------------------- artifact rules

#[test]
fn valid_artifacts_are_clean() {
    let program = built_program();
    let regions = vec![region(&program, 2, 1_000, 1.0)];
    assert!(audit_regions(&regions, &program, "fixture").is_empty());
}

#[test]
fn sa040_weight_sum_drift() {
    let program = built_program();
    let regions = vec![
        region(&program, 2, 1_000, 0.5),
        region(&program, 3, 1_000, 0.25),
    ]; // sums to 0.75
    let report = audit_regions(&regions, &program, "fixture");
    assert!(report.fired(Rule::WeightSumDrift));
    assert!(!report.fired(Rule::BadWeight), "{:?}", report.diagnostics());
}

#[test]
fn sa041_bad_weight() {
    let program = built_program();
    let regions = vec![
        region(&program, 2, 1_000, -0.5),
        region(&program, 3, 1_000, 1.5),
    ]; // sums to 1.0
    let report = audit_regions(&regions, &program, "fixture");
    let rules: Vec<Rule> = report.diagnostics().iter().map(|d| d.rule).collect();
    assert_eq!(rules, [Rule::BadWeight, Rule::BadWeight]);
}

#[test]
fn sa047_digest_mismatch() {
    let program = built_program();
    let mut pb = region(&program, 2, 1_000, 1.0);
    pb.program_digest ^= 0xBAD;
    assert!(audit_regions(&[pb], &program, "fixture").fired(Rule::DigestMismatch));
}

#[test]
fn sa048_misaligned_region() {
    let program = built_program();
    let mut pb = region(&program, 2, 1_000, 1.0);
    pb.start.retired = 2_500; // not slice-aligned
    assert!(audit_regions(&[pb], &program, "fixture").fired(Rule::MisalignedRegion));
    // Beyond the program end.
    let mut pb = region(&program, 2, 1_000, 1.0);
    pb.slice_index = 200; // 200 * 1000 > 100 000 total
    pb.start.retired = 200_000;
    assert!(audit_regions(&[pb], &program, "fixture").fired(Rule::MisalignedRegion));
}

#[test]
fn sa049_duplicate_points() {
    let program = built_program();
    let regions = vec![
        region(&program, 2, 1_000, 0.5),
        region(&program, 2, 1_000, 0.5),
    ];
    assert!(audit_regions(&regions, &program, "fixture").fired(Rule::DuplicatePoints));
}

// ----------------------------------------- memory abstract interpretation

/// A structurally valid program with one memory phase whose single stream
/// uses `pattern` over a `size`-byte region.
fn stream_program(pattern: AddressPattern, size: u64) -> Program {
    let blocks = vec![mem_block(0x1000, 0)];
    let mut p = phase(vec![0]);
    p.streams = vec![StreamSpec {
        region: MemRegion {
            base: 0x1_0000,
            size,
        },
        pattern,
    }];
    Program::new("mem-fixture", blocks, vec![p], schedule(&[0]), 13).unwrap()
}

fn stride_program(stride: u64, size: u64) -> Program {
    stream_program(AddressPattern::Stride { stride }, size)
}

#[test]
fn sa100_set_aliasing_stride() {
    // allcache L1D: 32 KiB / 32-way / 32 B lines = 32 sets, 1 KiB set
    // span. A 1 KiB stride over 64 KiB lands 64 lines in ONE set.
    let h = hierarchy();
    assert!(lint_memory(&stride_program(1024, 64 * 1024), &h).fired(Rule::SetAliasingStride));
    // 64 B strides rotate through all sets: clean.
    assert!(!lint_memory(&stride_program(64, 64 * 1024), &h).fired(Rule::SetAliasingStride));
    // Same stride over 32 KiB: 32 resident lines fit the 32 ways.
    assert!(!lint_memory(&stride_program(1024, 32 * 1024), &h).fired(Rule::SetAliasingStride));
}

#[test]
fn sa101_degenerate_stride() {
    let h = hierarchy();
    assert!(lint_memory(&stride_program(0, 4096), &h).fired(Rule::DegenerateStride));
    assert!(lint_memory(&stride_program(4096, 4096), &h).fired(Rule::DegenerateStride));
    assert!(!lint_memory(&stride_program(64, 4096), &h).fired(Rule::DegenerateStride));
}

#[test]
fn sa102_dead_stream() {
    // The phase owns a stream, but its only block is pure ALU: no
    // instruction can ever reference the stream.
    let mut p = phase(vec![0]);
    p.streams = vec![stream(0x1_0000, 4096)];
    let dead = Program::new(
        "mem-fixture",
        vec![alu_block(0x1000)],
        vec![p],
        schedule(&[0]),
        13,
    )
    .unwrap();
    assert!(lint_memory(&dead, &hierarchy()).fired(Rule::DeadStream));
    // The mem-block program references stream 0: clean.
    assert!(!lint_memory(&stride_program(64, 4096), &hierarchy()).fired(Rule::DeadStream));
}

#[test]
fn sa103_code_footprint_exceeds_l1i() {
    // Two blocks 40 KiB apart span more code than the 32 KiB L1I.
    let blocks = vec![alu_block(0x1000), alu_block(0x1000 + 40 * 1024)];
    let p = Program::new(
        "mem-fixture",
        blocks,
        vec![phase(vec![0, 1])],
        schedule(&[0]),
        13,
    )
    .unwrap();
    let report = lint_memory(&p, &hierarchy());
    assert!(report.fired(Rule::CodeFootprintExceedsL1I));
    // The finding is informational, not a deny-warnings failure.
    assert_eq!(report.exit_code(true), 0);
    // Adjacent blocks: clean.
    let blocks = vec![alu_block(0x1000), alu_block(0x2000)];
    let p = Program::new(
        "mem-fixture",
        blocks,
        vec![phase(vec![0, 1])],
        schedule(&[0]),
        13,
    )
    .unwrap();
    assert!(!lint_memory(&p, &hierarchy()).fired(Rule::CodeFootprintExceedsL1I));
}

// ----------------------------------------------------- phase recurrence

#[test]
fn sa110_non_recurrent_phase() {
    // Phases 1 and 2 each run exactly once: SimPoint cannot tell their
    // one-shot slices from recurring behavior.
    let (blocks, _, _) = clean_parts();
    let phases = vec![phase(vec![0]), phase(vec![0]), phase(vec![0])];
    let report = lint_parts(&blocks, &phases, &schedule(&[0, 1, 0, 2, 0]));
    assert!(report.fired(Rule::NonRecurrentPhase));
    // Both phases fold into one per-workload note naming each.
    assert_eq!(report.diagnostics().len(), 1, "{:?}", report.diagnostics());
    assert!(report.diagnostics()[0].message.contains("1, 2"));
    // Every phase recurs: clean.
    assert!(lint_parts(&blocks, &phases[..2], &schedule(&[0, 1, 0, 1])).is_empty());
    // A single-phase program is exempt (nothing to confuse).
    assert!(lint_parts(&blocks, &phases[..1], &schedule(&[0])).is_empty());
}

// ------------------------------------------- static-vs-dynamic oracle

/// A clean dynamic profile for `stride_program(64, 4096)`: each slice
/// retires exactly its granted instructions in the phase's only block.
fn clean_bbvs(program: &Program, bounds: &StaticBbvBounds) -> Vec<Bbv> {
    let block = program.phases()[0].blocks[0];
    (0..bounds.num_slices())
        .map(|i| Bbv::from_counts(vec![(block, bounds.slice_total(i) as u32)]))
        .collect()
}

#[test]
fn sa120_bbv_block_outside_slice() {
    let p = stride_program(64, 4096);
    let bounds = StaticBbvBounds::derive(&p, 100);
    let mut bbvs = clean_bbvs(&p, &bounds);
    assert!(audit_bbvs_static(&p, &bounds, &bbvs).is_empty());
    // Replace slice 3's count with one in a block no scheduled phase owns.
    bbvs[3] = Bbv::from_counts(vec![(999, bounds.slice_total(3) as u32)]);
    assert!(audit_bbvs_static(&p, &bounds, &bbvs).fired(Rule::BbvBlockOutsideSlice));
}

#[test]
fn sa121_bbv_count_exceeds_bound() {
    let p = stride_program(64, 4096);
    let bounds = StaticBbvBounds::derive(&p, 100);
    let block = p.phases()[0].blocks[0];
    let mut bbvs = clean_bbvs(&p, &bounds);
    // Keep another block under-counted so the total still matches: only
    // the per-block cap is violated.
    bbvs[2] = Bbv::from_counts(vec![(block, bounds.slice_total(2) as u32 + 500)]);
    let report = audit_bbvs_static(&p, &bounds, &bbvs);
    assert!(report.fired(Rule::BbvCountExceedsBound));
}

#[test]
fn sa122_bbv_total_mismatch() {
    let p = stride_program(64, 4096);
    let bounds = StaticBbvBounds::derive(&p, 100);
    let block = p.phases()[0].blocks[0];
    let mut bbvs = clean_bbvs(&p, &bounds);
    bbvs[1] = Bbv::from_counts(vec![(block, 7)]); // slice grants 100
    assert!(audit_bbvs_static(&p, &bounds, &bbvs).fired(Rule::BbvTotalMismatch));
    // Wrong slice count is the same rule at the profile level.
    let short = clean_bbvs(&p, &bounds)[..3].to_vec();
    assert!(audit_bbvs_static(&p, &bounds, &short).fired(Rule::BbvTotalMismatch));
    assert!(audit_bbvs_static(&p, &bounds, &clean_bbvs(&p, &bounds)).is_empty());
}

#[test]
fn sa123_cursor_schedule_mismatch() {
    let p = stride_program(64, 4096);
    let clean = vec![Cursor::start(&p)];
    assert!(audit_cursors(&p, 100, &clean).is_empty());
    // A slice-0 cursor claiming retired instructions contradicts the
    // schedule.
    let mut bad = Cursor::start(&p);
    bad.retired = 123;
    assert!(audit_cursors(&p, 100, &[bad]).fired(Rule::CursorScheduleMismatch));
    // Cursor carrying the wrong number of stream states.
    let mut bad = Cursor::start(&p);
    bad.streams.push(0);
    assert!(audit_cursors(&p, 100, &[bad]).fired(Rule::CursorScheduleMismatch));
}

#[test]
fn sa125_stream_state_outside_domain() {
    let p = stride_program(64, 4096);
    // Position 13 is not a multiple of gcd(64, 4096): unreachable.
    let mut bad = Cursor::start(&p);
    bad.streams[0] = 13;
    assert!(audit_cursors(&p, 100, &[bad]).fired(Rule::StreamStateOutsideDomain));
    // Position past the region: unreachable.
    let mut bad = Cursor::start(&p);
    bad.streams[0] = 4096;
    assert!(audit_cursors(&p, 100, &[bad]).fired(Rule::StreamStateOutsideDomain));
    // A reachable stride position: clean.
    let mut ok = Cursor::start(&p);
    ok.streams[0] = 128;
    assert!(audit_cursors(&p, 100, &[ok]).is_empty());
    // Distribution-sampled streams never advance their position.
    let p = stream_program(AddressPattern::Random, 4096);
    let mut bad = Cursor::start(&p);
    bad.streams[0] = 64;
    assert!(audit_cursors(&p, 100, &[bad]).fired(Rule::StreamStateOutsideDomain));
}

#[test]
fn sa124_artifact_unreadable() {
    let p = stride_program(64, 4096);
    let bounds = StaticBbvBounds::derive(&p, 100);
    let summary = AuditSummary::capture(&p, 1.0, &bounds);
    let bytes = summary.to_bytes();
    // Valid bytes round-trip and check clean.
    assert!(AuditSummary::from_bytes(&bytes).is_ok());
    assert!(summary.check("x.art", &p, 1.0, &bounds).is_empty());
    // Garbage is rejected with a typed decode error that maps to SA124.
    let err = AuditSummary::from_bytes(b"not an artifact").unwrap_err();
    let diag = diagnose_unreadable_artifact("x.art", &err);
    assert_eq!(diag.rule, Rule::ArtifactUnreadable);
    assert_eq!(diag.rule.severity(), Severity::Error);
}

// --------------------------------------------------------------- renderer

#[test]
fn json_renderer_golden_shape() {
    let mut report = Report::new();
    report.push(Diagnostic::new(
        Rule::DanglingBlockRef,
        Location::workload_item("505.mcf_r", "phase 3"),
        "phase 3 references block 9, but the program has 4 block(s)",
    ));
    report.push(Diagnostic::new(
        Rule::ZeroSliceSize,
        Location::config("slice_size"),
        "slice_size is 0",
    ));
    report.push(Diagnostic::new(
        Rule::DigestMismatch,
        Location::artifact("out/505.mcf_r.pb"),
        "digest \"mismatch\"",
    ));
    report.push(Diagnostic::new(
        Rule::DeadStream,
        Location::workload_item("505.mcf_r", "phase 0, stream 1"),
        "stream 1 is never referenced",
    ));
    let lines: Vec<String> = render_json_lines(&report)
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 4);
    assert_eq!(
        lines[0],
        "{\"code\":\"SA001\",\"severity\":\"error\",\
         \"location\":{\"kind\":\"workload\",\"workload\":\"505.mcf_r\",\
         \"item\":\"phase 3\"},\
         \"message\":\"phase 3 references block 9, but the program has 4 block(s)\",\
         \"help\":\"%HELP%\"}"
            .replace("%HELP%", Rule::DanglingBlockRef.help())
    );
    assert_eq!(
        lines[1],
        "{\"code\":\"SA020\",\"severity\":\"error\",\
         \"location\":{\"kind\":\"config\",\"field\":\"slice_size\"},\
         \"message\":\"slice_size is 0\",\"help\":\"%HELP%\"}"
            .replace("%HELP%", Rule::ZeroSliceSize.help())
    );
    // Escaping inside messages survives round-tripping into the line.
    assert!(lines[2].contains("\"message\":\"digest \\\"mismatch\\\"\""));
    assert!(lines[2].contains("\"kind\":\"artifact\",\"path\":\"out/505.mcf_r.pb\""));
    // The SA1xx families render through the same shape, with note
    // severity spelled out.
    assert_eq!(
        lines[3],
        "{\"code\":\"SA102\",\"severity\":\"note\",\
         \"location\":{\"kind\":\"workload\",\"workload\":\"505.mcf_r\",\
         \"item\":\"phase 0, stream 1\"},\
         \"message\":\"stream 1 is never referenced\",\"help\":\"%HELP%\"}"
            .replace("%HELP%", Rule::DeadStream.help())
    );
}

#[test]
fn at_least_eight_distinct_rules_fire_in_this_suite() {
    // Meta-check mirroring the acceptance criterion: count the distinct
    // rules exercised by a representative subset of the fixtures above.
    let mut fired = Vec::new();
    let (blocks, mut phases, sched) = clean_parts();
    phases[0].blocks = vec![0, 7];
    phases[0].block_weights = vec![1.0];
    phases[0].selection_noise = -1.0;
    phases.push(phase(Vec::new()));
    for d in lint_parts(&blocks, &phases, &sched).diagnostics() {
        fired.push(d.rule);
    }
    let options = SimPointOptions {
        max_k: 0,
        dim: 0,
        n_init: 0,
        max_iter: 0,
        bic_threshold: -1.0,
        sample_size: 0,
        ..Default::default()
    };
    for d in lint_simpoint_options(&options).diagnostics() {
        fired.push(d.rule);
    }
    fired.sort_by_key(|r| r.code());
    fired.dedup();
    assert!(
        fired.len() >= 8,
        "only {} distinct rules fired: {fired:?}",
        fired.len()
    );
}
