//! End-to-end integration tests across crates: workload → pin → pinball →
//! simpoint → core, on reduced-scale programs.
//!
//! The expensive artifacts — the pipeline run on the shared program, its
//! whole-run profile and the cold regional replay — are computed once in
//! a [`OnceLock`] fixture and shared by every test, so the file's wall
//! time is one pipeline run rather than one per test.

use std::sync::OnceLock;

use sampsim::cache::configs;
use sampsim::core::metrics::{aggregate_weighted, whole_as_aggregate, RunMetrics};
use sampsim::core::pipeline::PipelineResult;
use sampsim::core::runs::{
    run_region_functional, run_regions_functional_jobs, run_whole_functional, WarmupMode,
};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::SERIAL;
use sampsim::pin::engine;
use sampsim::pin::tools::TraceRecorder;
use sampsim::simpoint::SimPointOptions;
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::util::scale::Scale;
use sampsim::workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};
use sampsim::workload::{Executor, Program};

fn small_program() -> Program {
    WorkloadSpec::builder("integration", 77)
        .total_insts(200_000)
        .phase(PhaseSpec::balanced(1.5))
        .phase(PhaseSpec::compute_bound(1.0))
        .phase(PhaseSpec::pointer_chasing(0.5))
        .interleave(InterleaveSpec {
            mean_segment: 10_000,
            jitter: 0.4,
            align: 1_000,
        })
        .build()
        .build()
}

fn small_config() -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 1_000,
        simpoint: SimPointOptions {
            max_k: 10,
            ..Default::default()
        },
        warmup_slices: 20,
        profile_cache: None,
        ..Default::default()
    }
}

/// Everything the tests share: one program, one pipeline run, one whole
/// profile and one cold regional replay.
struct Fixture {
    program: Program,
    result: PipelineResult,
    whole: RunMetrics,
    cold: Vec<(RunMetrics, f64)>,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let program = small_program();
        let result = Pipeline::new(small_config())
            .run(&program, &RunOptions::default())
            .unwrap();
        let whole = run_whole_functional(&program, configs::allcache_table1());
        let cold = run_regions_functional_jobs(
            &program,
            &result.regional,
            configs::allcache_table1(),
            WarmupMode::None,
            SERIAL,
        )
        .unwrap();
        Fixture {
            program,
            result,
            whole,
            cold,
        }
    })
}

#[test]
fn regional_replay_equals_direct_execution() {
    // The pinball promise: replaying a regional checkpoint reproduces the
    // original instruction stream bit-for-bit.
    let fx = fixture();
    for pb in fx.result.regional.iter().take(4) {
        // Reference: execute from the start and record the region's slice.
        let mut reference = Executor::new(&fx.program);
        reference.skip(pb.slice_index * 1_000);
        let mut want = TraceRecorder::new(1_000);
        engine::run_one(&mut reference, 1_000, &mut want);
        // Replay from the checkpoint.
        let mut replayed = pb.attach(&fx.program).unwrap();
        let mut got = TraceRecorder::new(1_000);
        engine::run_one(&mut replayed, 1_000, &mut got);
        assert_eq!(got.trace(), want.trace(), "slice {}", pb.slice_index);
    }
}

#[test]
fn sampled_mix_tracks_whole_run() {
    let fx = fixture();
    let sampled = aggregate_weighted(&fx.cold);
    let reference = whole_as_aggregate(&fx.whole);
    for (s, w) in sampled.mix_pct.iter().zip(&reference.mix_pct) {
        assert!(
            (s - w).abs() < 3.0,
            "sampled {s:.2} vs whole {w:.2} (distribution error too large)"
        );
    }
}

#[test]
fn cold_regions_inflate_llc_misses_and_warmup_helps() {
    // The paper's §IV-D finding, end to end.
    let fx = fixture();
    let whole_l3 = fx.whole.cache.as_ref().unwrap().l3.miss_rate_pct();
    let cold_l3 = aggregate_weighted(&fx.cold).miss_rates.unwrap().l3;
    let warm = run_regions_functional_jobs(
        &fx.program,
        &fx.result.regional,
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
        SERIAL,
    )
    .unwrap();
    let warm_l3 = aggregate_weighted(&warm).miss_rates.unwrap().l3;
    assert!(
        cold_l3 >= whole_l3 - 1e-9,
        "cold regions must not under-report L3 misses (cold {cold_l3:.2}, whole {whole_l3:.2})"
    );
    assert!(
        (warm_l3 - whole_l3).abs() <= (cold_l3 - whole_l3).abs() + 1e-9,
        "warmup must not increase the L3 error (cold {cold_l3:.2}, warm {warm_l3:.2}, whole {whole_l3:.2})"
    );
}

#[test]
fn weights_sum_to_one_and_match_cluster_sizes() {
    let fx = fixture();
    let total: f64 = fx.result.regional.iter().map(|pb| pb.weight).sum();
    assert!((total - 1.0).abs() < 1e-9);
    // Each weight equals the cluster population divided by slice count.
    let n = fx.result.simpoints.assignments.len() as f64;
    for pb in &fx.result.regional {
        let members = fx
            .result
            .simpoints
            .assignments
            .iter()
            .filter(|&&a| a == pb.cluster)
            .count() as f64;
        assert!((pb.weight - members / n).abs() < 1e-9);
    }
}

#[test]
fn suite_benchmark_end_to_end_at_test_scale() {
    let scale = Scale::new(0.01);
    let spec = benchmark(BenchmarkId::LeelaS).scaled(scale);
    let program = spec.build();
    // Coarser slices than the paper's 10 k-per-unit-scale: the clustering
    // cost grows with the slice count, and ~1.8 k slices keep this test
    // fast while still exercising every pipeline stage on a real suite
    // workload.
    let mut config = PinPointsConfig {
        slice_size: scale.apply(50_000),
        ..PinPointsConfig::default()
    };
    config.simpoint.max_k = 25;
    let result = Pipeline::new(config)
        .run(&program, &RunOptions::default())
        .unwrap();
    assert!(
        result.regional.len() >= 5,
        "found {}",
        result.regional.len()
    );
    // A single region replays fine and reports its slice length.
    let m = run_region_functional(
        &program,
        &result.regional[0],
        configs::allcache_table1(),
        WarmupMode::Checkpointed,
    )
    .unwrap();
    assert_eq!(m.instructions, result.regional[0].length);
}

#[test]
fn invalid_config_is_rejected_before_profiling() {
    use sampsim::analyze::Rule;
    use sampsim::core::CoreError;

    let program = small_program();
    let mut config = small_config();
    config.slice_size = 0; // would previously panic inside profile()
    config.simpoint.dim = 0;
    let err = Pipeline::new(config)
        .run(&program, &RunOptions::default())
        .unwrap_err();
    match err {
        CoreError::Config(diags) => {
            let codes: Vec<&str> = diags.iter().map(|d| d.rule.code()).collect();
            assert!(codes.contains(&Rule::ZeroSliceSize.code()), "{codes:?}");
            assert!(codes.contains(&Rule::BadProjectionDim.code()), "{codes:?}");
        }
        other => panic!("expected CoreError::Config, got {other}"),
    }
}

#[test]
fn deterministic_across_identical_pipelines() {
    // A fresh pipeline run must reproduce the fixture's run exactly.
    let fx = fixture();
    let b = Pipeline::new(small_config())
        .run(&fx.program, &RunOptions::default())
        .unwrap();
    assert_eq!(fx.result.simpoints, b.simpoints);
    assert_eq!(fx.result.regional, b.regional);
    assert_eq!(fx.result.whole_metrics.mix, b.whole_metrics.mix);
}
