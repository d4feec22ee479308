//! Differential harness for the parallel execution layer.
//!
//! The contract under test: for every job count, the parallel profiling
//! pass and the parallel regional replays produce output **bit-identical**
//! to the serial reference — same BBV matrices, same slice checkpoints,
//! same simulation-point selection and weights, same cache miss counts,
//! same aggregated CPI. No tolerances anywhere; floats are compared by
//! their bit patterns. The only field allowed to differ is
//! `wall_seconds`, which measures the host rather than the simulation
//! (`RunMetrics::deterministic_eq` excludes exactly that field).
//!
//! The grid crosses workload seeds and real suite benchmarks with job
//! counts 1, 2, 7 and the machine's available parallelism, so the suite
//! exercises fewer-workers-than-shards, more-workers-than-regions and
//! the two-stage cache walk regardless of the host's core count.

use sampsim::cache::{configs, CacheConfig, HierarchyConfig, HierarchyStats};
use sampsim::core::compare::compare_strategies;
use sampsim::core::metrics::{aggregate_weighted, RunMetrics};
use sampsim::core::runs::{run_regions_functional_jobs, run_regions_timing_jobs, WarmupMode};
use sampsim::core::{PinPointsConfig, Pipeline, RunOptions};
use sampsim::exec::{Jobs, SERIAL};
use sampsim::simpoint::{
    SamplingStrategy, SimPointOptions, SimPointStrategy, StrategyInput, StrategySpec,
};
use sampsim::spec2017::{benchmark, BenchmarkId};
use sampsim::uarch::CoreConfig;
use sampsim::util::scale::Scale;
use sampsim::workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};
use sampsim::workload::Program;

/// The job counts every comparison is repeated for.
fn job_grid() -> Vec<Jobs> {
    vec![
        Jobs::new(1).unwrap(),
        Jobs::new(2).unwrap(),
        Jobs::new(7).unwrap(),
        Jobs::Auto,
    ]
}

/// Synthetic programs with different phase mixes and interleavings, so
/// shard boundaries land in structurally different places per seed.
fn synthetic(seed: u64) -> Program {
    WorkloadSpec::builder("par-diff", seed)
        .total_insts(120_000 + (seed % 3) * 17_000)
        .phase(PhaseSpec::balanced(1.0))
        .phase(PhaseSpec::memory_bound(0.8))
        .phase(PhaseSpec::compute_bound(0.6))
        .interleave(InterleaveSpec {
            mean_segment: 4_000 + (seed % 5) * 700,
            jitter: 0.35,
            align: 0,
        })
        .build()
        .build()
}

fn config(profile_cache: bool) -> PinPointsConfig {
    PinPointsConfig {
        slice_size: 1_000,
        simpoint: SimPointOptions {
            max_k: 8,
            ..Default::default()
        },
        warmup_slices: 5,
        profile_cache: profile_cache.then(configs::allcache_table1),
        strategy: StrategySpec::SimPoint,
    }
}

fn assert_metrics_identical(a: &RunMetrics, b: &RunMetrics, what: &str) {
    assert!(
        a.deterministic_eq(b),
        "{what}: metrics diverge\n serial: {a:?}\n parallel: {b:?}"
    );
}

fn assert_f64_bits(a: f64, b: f64, what: &str) {
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "{what}: {a:?} vs {b:?} differ in bits"
    );
}

/// A hierarchy small enough that L1I misses reach L2 and L3 and meet the
/// data traffic there; Table I's 32 KB L1I misses almost never on these
/// programs.
fn small_hierarchy(next_line_prefetch: bool) -> HierarchyConfig {
    HierarchyConfig {
        l1i: CacheConfig::new(256, 2, 32, 4),
        l1d: CacheConfig::new(512, 4, 32, 4),
        l2: CacheConfig::new(2 << 10, 2, 32, 12),
        l3: CacheConfig::new(8 << 10, 4, 32, 36),
        mem_latency: 220,
        next_line_prefetch,
    }
}

/// Profiling pass: BBV matrix, slice checkpoints and whole-run metrics
/// (mix + cache counters) must be bit-identical for every job count.
/// Returns the serial pass's cache counters.
fn check_profile(
    program: &Program,
    hierarchy: Option<HierarchyConfig>,
    label: &str,
) -> Option<HierarchyStats> {
    let pipeline = Pipeline::new(PinPointsConfig {
        profile_cache: hierarchy,
        ..config(false)
    });
    let (ref_bbvs, ref_starts, ref_metrics) = pipeline.profile_jobs(program, SERIAL);
    assert!(!ref_bbvs.is_empty());
    for jobs in job_grid() {
        let (bbvs, starts, metrics) = pipeline.profile_jobs(program, jobs);
        assert_eq!(bbvs, ref_bbvs, "{label}: BBV matrix (jobs = {jobs})");
        assert_eq!(starts, ref_starts, "{label}: slice cursors (jobs = {jobs})");
        assert_metrics_identical(
            &ref_metrics,
            &metrics,
            &format!("{label}: whole-run profile (jobs = {jobs})"),
        );
    }
    ref_metrics.cache
}

/// Full pipeline: the simulation-point selection (k, assignments, BIC
/// scores, weights) and the regional pinballs must be identical.
fn check_pipeline(program: &Program, profile_cache: bool, label: &str) {
    let pipeline = Pipeline::new(config(profile_cache));
    let reference = pipeline.run(program, &RunOptions::default()).unwrap();
    for jobs in job_grid() {
        let result = pipeline
            .run(
                program,
                &RunOptions {
                    jobs,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(
            result.simpoints, reference.simpoints,
            "{label}: simpoint selection (jobs = {jobs})"
        );
        assert_eq!(
            result.regional, reference.regional,
            "{label}: regional pinballs (jobs = {jobs})"
        );
        assert_eq!(result.whole, reference.whole, "{label}: whole pinball");
        assert_eq!(result.num_slices, reference.num_slices);
        assert_metrics_identical(
            &reference.whole_metrics,
            &result.whole_metrics,
            &format!("{label}: pipeline whole metrics (jobs = {jobs})"),
        );
        for (r, s) in result.regional.iter().zip(&reference.regional) {
            assert_f64_bits(
                r.weight,
                s.weight,
                &format!("{label}: weight (jobs = {jobs})"),
            );
        }
    }
}

/// Functional regional replays: per-region cache miss counts and the
/// weighted aggregate must be bit-identical.
fn check_functional_replay(program: &Program, label: &str) {
    let pipeline = Pipeline::new(config(false));
    let result = pipeline.run(program, &RunOptions::default()).unwrap();
    for warmup in [WarmupMode::None, WarmupMode::Checkpointed] {
        let reference = run_regions_functional_jobs(
            program,
            &result.regional,
            configs::allcache_table1(),
            warmup,
            SERIAL,
        )
        .unwrap();
        for jobs in job_grid() {
            let parallel = run_regions_functional_jobs(
                program,
                &result.regional,
                configs::allcache_table1(),
                warmup,
                jobs,
            )
            .unwrap();
            assert_eq!(parallel.len(), reference.len());
            for (i, ((rm, rw), (pm, pw))) in reference.iter().zip(&parallel).enumerate() {
                let what = format!("{label}: region {i} ({warmup:?}, jobs = {jobs})");
                assert_metrics_identical(rm, pm, &what);
                assert_f64_bits(*rw, *pw, &what);
                assert_eq!(
                    rm.cache.as_ref().unwrap().l3.misses,
                    pm.cache.as_ref().unwrap().l3.misses,
                    "{what}: L3 miss count"
                );
            }
            let ra = aggregate_weighted(&reference);
            let pa = aggregate_weighted(&parallel);
            assert_eq!(ra.total_l3_accesses, pa.total_l3_accesses);
            for (a, b) in ra.mix_pct.iter().zip(&pa.mix_pct) {
                assert_f64_bits(*a, *b, &format!("{label}: aggregate mix (jobs = {jobs})"));
            }
            let (rmr, pmr) = (ra.miss_rates.unwrap(), pa.miss_rates.unwrap());
            for (a, b) in [rmr.l1i, rmr.l1d, rmr.l2, rmr.l3]
                .iter()
                .zip(&[pmr.l1i, pmr.l1d, pmr.l2, pmr.l3])
            {
                assert_f64_bits(*a, *b, &format!("{label}: miss rates (jobs = {jobs})"));
            }
        }
    }
}

/// Timing replays: the weighted CPI — a float reduction, the most
/// order-sensitive output in the system — must be bit-identical.
fn check_timing_replay(program: &Program, label: &str) {
    let pipeline = Pipeline::new(config(false));
    let result = pipeline.run(program, &RunOptions::default()).unwrap();
    let reference = run_regions_timing_jobs(
        program,
        &result.regional,
        CoreConfig::table3(),
        configs::i7_table3(),
        WarmupMode::Checkpointed,
        SERIAL,
    )
    .unwrap();
    let ref_cpi = aggregate_weighted(&reference).cpi.unwrap();
    for jobs in job_grid() {
        let parallel = run_regions_timing_jobs(
            program,
            &result.regional,
            CoreConfig::table3(),
            configs::i7_table3(),
            WarmupMode::Checkpointed,
            jobs,
        )
        .unwrap();
        for (i, ((rm, _), (pm, _))) in reference.iter().zip(&parallel).enumerate() {
            assert_metrics_identical(
                rm,
                pm,
                &format!("{label}: timing region {i} (jobs = {jobs})"),
            );
        }
        let cpi = aggregate_weighted(&parallel).cpi.unwrap();
        assert_f64_bits(
            ref_cpi,
            cpi,
            &format!("{label}: aggregated CPI (jobs = {jobs})"),
        );
    }
}

#[test]
fn profile_is_bit_identical_across_job_counts() {
    for seed in [11, 12, 13] {
        let program = synthetic(seed);
        check_profile(&program, None, &format!("seed {seed}"));
    }
}

#[test]
fn profile_with_cache_task_is_bit_identical() {
    // profile_cache = Some exercises the two-stage walk: the fetch side
    // beside the data side on a reserved worker.
    for seed in [11, 14] {
        let program = synthetic(seed);
        check_profile(
            &program,
            Some(configs::allcache_table1()),
            &format!("seed {seed} (cache)"),
        );
    }
}

#[test]
fn l1i_misses_meet_data_at_l2_and_l3_identically() {
    // The two-stage walk forwards each instruction's L1I miss before its
    // data accesses. With Table I's L1I that order is never tested, so a
    // tiny hierarchy makes fetch misses share L2 and L3 with data, with
    // the next-line prefetcher off and on.
    for id in [BenchmarkId::McfR, BenchmarkId::XzR] {
        let program = benchmark(id).scaled(Scale::new(0.01)).build();
        let [off, on] = [false, true].map(|prefetch| {
            let label = format!("{} (small hierarchy, prefetch {prefetch})", id.name());
            let stats = check_profile(&program, Some(small_hierarchy(prefetch)), &label).unwrap();
            assert!(stats.l1i.misses > 1_000, "{label}: {:?}", stats.l1i);
            stats
        });
        // The prefetcher fires: its fills move the L2's demand misses.
        assert_ne!(off.l2.misses, on.l2.misses, "{}: L2 misses", id.name());
    }
}

#[test]
fn pipeline_results_are_bit_identical_across_job_counts() {
    let program = synthetic(21);
    check_pipeline(&program, true, "seed 21");
}

#[test]
fn functional_replays_are_bit_identical_across_job_counts() {
    let program = synthetic(31);
    check_functional_replay(&program, "seed 31");
}

#[test]
fn timing_replays_and_cpi_are_bit_identical_across_job_counts() {
    let program = synthetic(41);
    check_timing_replay(&program, "seed 41");
}

#[test]
fn suite_benchmarks_are_bit_identical_across_job_counts() {
    // Real suite workloads at a reduced scale: phase interleavings and
    // slice counts the synthetic seeds do not produce (including a
    // non-multiple-of-slice tail).
    for id in [BenchmarkId::McfR, BenchmarkId::XzR] {
        let program = benchmark(id).scaled(Scale::new(0.001)).build();
        check_profile(&program, Some(configs::allcache_table1()), id.name());
        check_pipeline(&program, false, id.name());
    }
}

#[test]
fn kmeans_restarts_are_bit_identical_across_job_counts() {
    // The clustering restarts themselves now fan out over the worker
    // pool: the serial best-of fold and every parallel job count must
    // pick the same winner, bit for bit — including the naive reference
    // kernel, which shares the restart seed schedule.
    use sampsim::simpoint::project::RandomProjection;
    use sampsim::simpoint::reference::kmeans_best_of_reference;
    use sampsim::simpoint::{kmeans_best_of, kmeans_best_of_jobs};

    let program = synthetic(77);
    let pipeline = Pipeline::new(config(false));
    let (bbvs, _, _) = pipeline.profile_jobs(&program, SERIAL);
    let projection = RandomProjection::new(15, 0x51AB_0DD5);
    let data = projection.project_all_normalized(&bbvs);
    let n = bbvs.len();
    for k in [2, 7] {
        let serial = kmeans_best_of(&data, n, 15, k, 60, 9, 5).unwrap();
        let naive = kmeans_best_of_reference(&data, n, 15, k, 60, 9, 5).unwrap();
        assert_eq!(serial.assignments, naive.assignments, "pruned vs naive");
        assert_f64_bits(serial.inertia, naive.inertia, "pruned vs naive inertia");
        for jobs in job_grid() {
            let par = kmeans_best_of_jobs(&data, n, 15, k, 60, 9, 5, jobs).unwrap();
            let what = format!("restarts k={k} (jobs = {jobs})");
            assert_eq!(par.k, serial.k, "{what}: k");
            assert_eq!(par.iterations, serial.iterations, "{what}: iterations");
            assert_eq!(par.assignments, serial.assignments, "{what}: assignments");
            assert_f64_bits(par.inertia, serial.inertia, &format!("{what}: inertia"));
            assert_eq!(par.centroids.len(), serial.centroids.len());
            for (a, b) in par.centroids.iter().zip(&serial.centroids) {
                assert_f64_bits(*a, *b, &format!("{what}: centroid"));
            }
        }
    }
}

#[test]
fn bic_sweep_fan_out_matches_a_per_k_reference_fold() {
    // `analyze` runs every (k, restart) pair of its BIC sweep as one work
    // item, largest k first. The oracle is the serial per-k loop over the
    // naive kernel: `kmeans_best_of_reference` for each k, BIC on its
    // winner, then the chosen k over every slice. Scoring runs on every
    // slice (sample_size above n) and on a seeded subsample (below n).
    use sampsim::simpoint::bic::{bic_score, choose_k};
    use sampsim::simpoint::project::RandomProjection;
    use sampsim::simpoint::reference::kmeans_best_of_reference;
    use sampsim::simpoint::select::select_simpoints;
    use sampsim::util::rng::Xoshiro256StarStar;

    let program = synthetic(77);
    let (bbvs, _, _) = Pipeline::new(config(false)).profile_jobs(&program, SERIAL);
    let n = bbvs.len();
    for sample_size in [8_000, n / 2] {
        let o = SimPointOptions {
            max_k: 10,
            sample_size,
            ..config(false).simpoint
        };
        let data = RandomProjection::new(o.dim, o.seed).project_all_normalized(&bbvs);
        let (score, score_n) = if n > o.sample_size {
            let mut rng = Xoshiro256StarStar::seed_from_u64(o.seed ^ 0x5A5A);
            let mut idx: Vec<usize> = (0..n).collect();
            rng.shuffle(&mut idx);
            idx.truncate(o.sample_size);
            idx.sort_unstable();
            let rows = idx.iter().flat_map(|&i| &data[i * o.dim..(i + 1) * o.dim]);
            (rows.copied().collect::<Vec<f64>>(), o.sample_size)
        } else {
            (data.clone(), n)
        };
        let cluster = |data: &[f64], n: usize, k: usize| {
            let seed = o.seed.wrapping_add(k as u64);
            kmeans_best_of_reference(data, n, o.dim, k, o.max_iter, seed, o.n_init).unwrap()
        };
        let bic: Vec<(usize, f64)> = (1..=o.max_k.min(score_n))
            .map(|k| (k, bic_score(&cluster(&score, score_n, k), o.dim)))
            .collect();
        let k = choose_k(&bic, o.bic_threshold);
        let last = cluster(&data, n, k);
        let points = select_simpoints(&last, &data, o.dim);
        for jobs in job_grid() {
            let what = format!("sample_size {sample_size} of {n} (jobs = {jobs})");
            let got = SimPointStrategy::new(o)
                .analyze(&bbvs, 1_000, jobs)
                .unwrap();
            assert_eq!(got.k, k, "{what}: k");
            assert_eq!(got.bic_scores.len(), bic.len(), "{what}: BIC count");
            for (a, b) in got.bic_scores.iter().zip(&bic) {
                assert_eq!(a.0, b.0, "{what}: BIC k");
                assert_f64_bits(a.1, b.1, &format!("{what}: BIC at k={}", b.0));
            }
            assert_eq!(got.assignments, last.assignments, "{what}: assignments");
            assert_eq!(got.points, points, "{what}: points");
            for (a, b) in got.points.iter().zip(&points) {
                assert_f64_bits(a.weight, b.weight, &format!("{what}: weight"));
            }
        }
    }
}

#[test]
fn simpoint_through_trait_is_bit_identical_to_legacy() {
    // The strategy refactor's zero-drift guarantee: SimPoint dispatched
    // through the `SamplingStrategy` trait must reproduce a direct
    // `SimPointStrategy::analyze` call bit for bit — selection, weights,
    // assignments, BIC scores, and the regional pinballs (cursors,
    // warmup records) derived from them — across seeds × benchmarks ×
    // job counts.
    let suite: Vec<(String, Program)> = [31u64, 32, 33]
        .iter()
        .map(|&seed| (format!("seed {seed}"), synthetic(seed)))
        .chain([BenchmarkId::McfR, BenchmarkId::XzR].iter().map(|&id| {
            (
                id.name().to_string(),
                benchmark(id).scaled(Scale::new(0.001)).build(),
            )
        }))
        .collect();
    for (label, program) in &suite {
        let pipeline = Pipeline::new(config(false));
        let (bbvs, starts, _) = pipeline.profile_jobs(program, SERIAL);
        let opts = config(false).simpoint;
        for jobs in [Jobs::new(1).unwrap(), Jobs::new(2).unwrap(), Jobs::Auto] {
            let direct = SimPointStrategy::new(opts)
                .analyze(&bbvs, 1_000, jobs)
                .unwrap();
            let selection = SimPointStrategy::new(opts)
                .select(
                    &StrategyInput {
                        bbvs: &bbvs,
                        slice_size: 1_000,
                    },
                    jobs,
                )
                .unwrap();
            let (via_trait, replicates) = selection.into_parts(1_000);
            assert_eq!(via_trait, direct, "{label}: selection (jobs = {jobs})");
            assert!(replicates.is_empty(), "{label}: simpoint has no replicates");
            for (a, b) in via_trait.points.iter().zip(&direct.points) {
                assert_f64_bits(a.weight, b.weight, &format!("{label}: weight bits"));
            }
            for (a, b) in via_trait.bic_scores.iter().zip(&direct.bic_scores) {
                assert_eq!(a.0, b.0, "{label}: BIC k");
                assert_f64_bits(a.1, b.1, &format!("{label}: BIC score bits"));
            }
            // Downstream checkpoints (cursors + warmup) match too.
            let regional_trait = pipeline.regionals_for(program, &via_trait, &starts);
            let regional_direct = pipeline.regionals_for(program, &direct, &starts);
            assert_eq!(
                regional_trait, regional_direct,
                "{label}: regional pinballs (jobs = {jobs})"
            );
        }
        // The full pipeline (which now always dispatches through the
        // trait) agrees with the direct analysis run serially.
        let result = pipeline.run(program, &RunOptions::default()).unwrap();
        let direct = SimPointStrategy::new(opts)
            .analyze(&bbvs, 1_000, SERIAL)
            .unwrap();
        assert_eq!(result.simpoints, direct, "{label}: pipeline selection");
        assert!(result.replicates.is_empty());
    }
}

#[test]
fn new_strategies_are_bit_identical_across_job_counts() {
    // stratified2p and rss are jobs-oblivious by construction, but the
    // pipeline around them (sharded profiling, cached stages) is not —
    // the whole run must still be bit-identical for every job count,
    // including the replicate sets rss derives its error bars from.
    for name in ["stratified2p", "rss"] {
        let program = synthetic(51);
        let mut cfg = config(false);
        cfg.strategy = StrategySpec::parse(name).unwrap();
        let pipeline = Pipeline::new(cfg);
        let reference = pipeline.run(&program, &RunOptions::default()).unwrap();
        assert!(!reference.regional.is_empty(), "{name}");
        let weight: f64 = reference.regional.iter().map(|pb| pb.weight).sum();
        assert!((weight - 1.0).abs() < 1e-9, "{name}: weights sum {weight}");
        for jobs in job_grid() {
            let result = pipeline
                .run(
                    &program,
                    &RunOptions {
                        jobs,
                        ..Default::default()
                    },
                )
                .unwrap();
            assert_eq!(
                result.simpoints, reference.simpoints,
                "{name}: selection (jobs = {jobs})"
            );
            assert_eq!(
                result.regional, reference.regional,
                "{name}: regional pinballs (jobs = {jobs})"
            );
            assert_eq!(
                result.replicates, reference.replicates,
                "{name}: replicate sets (jobs = {jobs})"
            );
            for (r, s) in result.regional.iter().zip(&reference.regional) {
                assert_f64_bits(r.weight, s.weight, &format!("{name}: weight bits"));
            }
        }
    }
}

#[test]
fn single_slice_program_profiles_identically() {
    // Degenerate sharding: the whole program fits in one slice, so every
    // job count must collapse to the serial path.
    let program = WorkloadSpec::builder("one-slice", 5)
        .total_insts(900)
        .phase(PhaseSpec::balanced(1.0))
        .build()
        .build();
    check_profile(&program, Some(configs::allcache_table1()), "single slice");
}

#[test]
fn compare_reports_are_bit_identical_across_job_counts() {
    // compare_strategies walks whole-program truth on a reserved worker
    // beside the profile, the selections and the regional replays. At
    // jobs = 2 everything but truth runs on exactly one worker; from 3,
    // with a profiled cache, the profile runs its two-stage walk inside
    // that share.
    for (label, program) in [
        ("synthetic", synthetic(61)),
        (
            "mcf",
            benchmark(BenchmarkId::McfR)
                .scaled(Scale::new(0.002))
                .build(),
        ),
    ] {
        for profile_cache in [false, true] {
            let cfg = config(profile_cache);
            let reference = compare_strategies(&program, &cfg, 2, SERIAL)
                .unwrap()
                .to_json();
            for n in [2, 3, 4] {
                let report = compare_strategies(&program, &cfg, 2, Jobs::new(n).unwrap())
                    .unwrap()
                    .to_json();
                assert_eq!(
                    report, reference,
                    "{label} (profile cache {profile_cache}): compare report (jobs = {n})"
                );
            }
        }
    }
}
