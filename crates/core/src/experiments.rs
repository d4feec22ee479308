//! Table/figure-level experiment drivers.
//!
//! A [`Study`] fixes the configuration, scaled once where the study is
//! built, and hands out one [`Bench`] per benchmark. Every exhibit of
//! `sampsim figure` measures through a `Bench`'s stages: profile,
//! selection through the configured strategy, regional pinballs, whole
//! walks and region replays. Whole walks are memoized in the
//! [`StageCache`] under [`whole_walk_key`], and [`Study::results`]
//! memoizes each benchmark's [`BenchResult`] the same way.
//! [`percentile_sweep`] derives Fig. 9 from those results.

use crate::bench_result::{BenchResult, StudyConfig};
use crate::error::CoreError;
use crate::metrics::RunMetrics;
use crate::pipeline::{PinPointsConfig, Pipeline};
use crate::runs::{self, Machine, WarmupMode};
use crate::stage_cache::{whole_walk_key, ProfileStage, StageCache};
use sampsim_cache::HierarchyConfig;
use sampsim_exec::{Jobs, SERIAL};
use sampsim_pinball::RegionalPinball;
use sampsim_simpoint::SimPointsResult;
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::codec;
use sampsim_util::hash::Fnv64;
use sampsim_util::scale::Scale;
use sampsim_workload::Program;

/// The study configuration at one scale: it hands out the per-benchmark
/// [`Bench`] handles and computes each benchmark's result, memoized
/// through a [`StageCache`].
#[derive(Debug)]
pub struct Study {
    config: StudyConfig,
    scale: Scale,
}

impl Study {
    /// A study at the given scale with the paper's configuration. The
    /// slice size shrinks with the workload, so every scale keeps the
    /// slices-per-program ratio.
    pub fn new(scale: Scale) -> Self {
        let mut config = StudyConfig::default();
        config.pinpoints.slice_size = scale.apply(config.pinpoints.slice_size);
        Self { config, scale }
    }

    /// Replaces the study configuration, taken as given at the study's
    /// scale.
    pub fn with_config(mut self, config: StudyConfig) -> Self {
        self.config = config;
        self
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The workload scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// One benchmark of this study: its program built at the study's
    /// scale, measured over `jobs` workers with whole walks memoized in
    /// `memo`.
    pub fn bench<'a>(&self, id: BenchmarkId, jobs: Jobs, memo: &'a dyn StageCache) -> Bench<'a> {
        Bench {
            id,
            program: benchmark(id).scaled(self.scale).build(),
            config: self.config.clone(),
            jobs,
            memo,
        }
    }

    /// The memo key of one benchmark's result: a domain-tagged FNV-64
    /// over the benchmark, the full configuration, the scale and the
    /// program digest. The digest ties the entry to the exact generated
    /// workload, so a suite re-calibration misses instead of reading a
    /// stale result. Bump the tag when the `BenchResult` encoding or the
    /// meaning of a hashed field changes (v2: the configuration is hashed
    /// at the study's scale; v3: the cache counters lost the TLBs; v4:
    /// their write-back and prefetch counters).
    fn memo_key(&self, bench: &Bench<'_>) -> u64 {
        let mut h = Fnv64::new();
        h.write_str("sampsim/study/bench-result/v4");
        h.write_str(bench.id.name());
        h.write_str(&format!("{:?}", self.config));
        h.write_f64(self.scale.factor());
        h.write_u64(bench.program.digest());
        h.finish()
    }

    /// Loads one benchmark's measurement record from `cache`, or computes
    /// it on one worker (printing progress to stderr) and stores it there.
    /// The entry is the codec-encoded [`BenchResult`]; an entry that does
    /// not decode is a miss, so the result is recomputed and overwritten.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when simulation fails.
    pub fn bench_result(
        &self,
        id: BenchmarkId,
        cache: &dyn StageCache,
    ) -> Result<BenchResult, CoreError> {
        let bench = self.bench(id, SERIAL, cache);
        let key = self.memo_key(&bench);
        if let Some(r) = cache
            .get(key)
            .and_then(|bytes| codec::from_bytes(&bytes).ok())
        {
            return Ok(r);
        }
        eprintln!("[sampsim] computing {} ...", id.name());
        let started = std::time::Instant::now();
        let r = BenchResult::compute(&bench)?;
        eprintln!(
            "[sampsim]   {}: {} slices, {} points, {:.1}s",
            id.name(),
            r.num_slices,
            r.num_points(),
            started.elapsed().as_secs_f64()
        );
        cache.put(key, &codec::to_bytes(&r));
        Ok(r)
    }

    /// Loads or computes results for `ids` through `cache`, fanning the
    /// benchmarks out over `jobs` workers; each benchmark computes on one
    /// worker, so no more than `jobs` are ever busy. Results come back in
    /// `ids` order and each benchmark's simulation is internally
    /// deterministic, so the output is identical for every job count.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed simulation failure (the one a serial
    /// loop would hit first).
    pub fn results(
        &self,
        ids: &[BenchmarkId],
        jobs: Jobs,
        cache: &dyn StageCache,
    ) -> Result<Vec<BenchResult>, CoreError> {
        sampsim_exec::try_parallel_map(jobs, ids, |_, &id| self.bench_result(id, cache))
    }
}

/// One benchmark of a [`Study`]: the built program, the study
/// configuration, a worker count and the memo. Its methods are the
/// stages every exhibit measures with; each gives the same results for
/// every worker count, wall-clock fields aside.
pub struct Bench<'a> {
    id: BenchmarkId,
    program: Program,
    config: StudyConfig,
    jobs: Jobs,
    memo: &'a dyn StageCache,
}

impl<'a> Bench<'a> {
    /// The benchmark.
    pub(crate) fn id(&self) -> BenchmarkId {
        self.id
    }

    /// The program, built at the study's scale.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The study configuration.
    pub fn config(&self) -> &StudyConfig {
        &self.config
    }

    /// The same benchmark, workers and memo under an edited pipeline
    /// configuration: the handle a sweep over slice size, `MaxK` or
    /// warmup measures each row with.
    pub fn with_pinpoints(&self, edit: impl FnOnce(&mut PinPointsConfig)) -> Self {
        let mut config = self.config.clone();
        edit(&mut config.pinpoints);
        Self {
            program: self.program.clone(),
            config,
            ..*self
        }
    }

    fn pipeline(&self) -> Pipeline {
        Pipeline::new(self.config.pinpoints.clone())
    }

    /// The profiling pass at the configured slice size: per-slice BBVs,
    /// slice-start cursors and whole-run metrics, with `cache` simulated
    /// alongside (its counters land in the metrics), or no cache.
    pub fn profile(&self, cache: Option<HierarchyConfig>) -> ProfileStage {
        let pipeline = Pipeline::new(PinPointsConfig {
            profile_cache: cache,
            ..self.config.pinpoints.clone()
        });
        let (bbvs, starts, metrics) = pipeline.profile_jobs(&self.program, self.jobs);
        ProfileStage {
            bbvs,
            starts,
            metrics,
        }
    }

    /// Selects regions from `profile` through the configured strategy
    /// ([`Pipeline::select`]); an `rss` selection yields its first
    /// replicate.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SimPoint`] when the strategy cannot select.
    pub fn select(&self, profile: &ProfileStage) -> Result<SimPointsResult, CoreError> {
        Ok(self.pipeline().select(&profile.bbvs, self.jobs)?.0)
    }

    /// One regional pinball per selected point, with the configured
    /// warmup ([`Pipeline::regionals_for`]).
    pub fn regionals(
        &self,
        profile: &ProfileStage,
        selection: &SimPointsResult,
    ) -> Vec<RegionalPinball> {
        self.pipeline()
            .regionals_for(&self.program, selection, &profile.starts)
    }

    /// The whole walk on `machine`: read from the memo, or walked on one
    /// worker and stored there as codec-encoded [`RunMetrics`]. An entry
    /// that does not decode is a miss, walked again and overwritten.
    pub fn whole(&self, machine: Machine) -> RunMetrics {
        let key = whole_walk_key(&self.program, &machine);
        if let Some(m) = self
            .memo
            .get(key)
            .and_then(|bytes| codec::from_bytes(&bytes).ok())
        {
            return m;
        }
        let m = match machine {
            Machine::Functional(cache) => runs::run_whole_functional(&self.program, cache),
            Machine::Timing(core, cache) => runs::run_whole_timing(&self.program, core, cache),
        };
        self.memo.put(key, &codec::to_bytes(&m));
        m
    }

    /// Replays `regionals` on `machine` over the handle's workers, each
    /// paired with its weight.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Pinball`] when a pinball belongs to another
    /// program.
    pub fn replay(
        &self,
        regionals: &[RegionalPinball],
        machine: Machine,
        warmup: WarmupMode,
    ) -> Result<Vec<(RunMetrics, f64)>, CoreError> {
        let (program, jobs) = (&self.program, self.jobs);
        match machine {
            Machine::Functional(cache) => {
                runs::run_regions_functional_jobs(program, regionals, cache, warmup, jobs)
            }
            Machine::Timing(core, cache) => {
                runs::run_regions_timing_jobs(program, regionals, core, cache, warmup, jobs)
            }
        }
    }
}

/// One row of the Fig. 9 percentile sweep: suite-average errors vs the
/// whole run, plus total simulation time, when only the top-weighted
/// simulation points covering `percentile` are executed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PercentileRow {
    /// Percentile of total weight retained (e.g. 90).
    pub percentile: u32,
    /// Suite-average instruction-mix error (max over categories), in
    /// percentage points.
    pub mix_err_pp: f64,
    /// Suite-average absolute L1D miss-rate error (pp).
    pub l1d_err_pp: f64,
    /// Suite-average absolute L2 miss-rate error (pp).
    pub l2_err_pp: f64,
    /// Suite-average absolute L3 miss-rate error (pp).
    pub l3_err_pp: f64,
    /// Total wall-clock seconds to simulate the retained regions across
    /// the suite.
    pub exec_seconds: f64,
    /// Average number of retained points per benchmark.
    pub avg_points: f64,
}

/// Computes the Fig. 9 sweep from already-computed benchmark results (the
/// reduced runs reuse the cached per-region replays).
///
/// # Panics
///
/// Panics if `results` is empty or a percentile is outside `(0, 100]`.
pub fn percentile_sweep(results: &[BenchResult], percentiles: &[u32]) -> Vec<PercentileRow> {
    assert!(!results.is_empty(), "no benchmark results");
    percentiles
        .iter()
        .map(|&pct| {
            assert!((1..=100).contains(&pct), "percentile out of range");
            let p = f64::from(pct) / 100.0;
            let mut mix_err = 0.0;
            let (mut l1d, mut l2, mut l3) = (0.0, 0.0, 0.0);
            let mut secs = 0.0;
            let mut points = 0usize;
            for r in results {
                let whole = r.whole_aggregate();
                let reduced = r.reduced_aggregate(p);
                let whole_mr = whole.miss_rates.expect("whole cache stats");
                let red_mr = reduced.miss_rates.expect("regional cache stats");
                mix_err += max_abs_diff(&reduced.mix_pct, &whole.mix_pct);
                l1d += (red_mr.l1d - whole_mr.l1d).abs();
                l2 += (red_mr.l2 - whole_mr.l2).abs();
                l3 += (red_mr.l3 - whole_mr.l3).abs();
                secs += reduced.total_wall_seconds;
                points += r.num_points_at(p);
            }
            let n = results.len() as f64;
            PercentileRow {
                percentile: pct,
                mix_err_pp: mix_err / n,
                l1d_err_pp: l1d / n,
                l2_err_pp: l2 / n,
                l3_err_pp: l3 / n,
                exec_seconds: secs,
                avg_points: points as f64 / n,
            }
        })
        .collect()
}

fn max_abs_diff(a: &[f64; 4], b: &[f64; 4]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{aggregate_weighted, whole_as_aggregate, AggregatedMetrics};
    use crate::stage_cache::MemoryStageCache;
    use crate::NoCache;
    use sampsim_cache::configs;
    use sampsim_simpoint::SimPointOptions;

    /// The paper's study at `scale` with a small `MaxK` and Fig. 4 sweep.
    pub(super) fn tiny_study(scale: Scale) -> Study {
        let study = Study::new(scale);
        let mut c = study.config().clone();
        c.pinpoints.simpoint = SimPointOptions {
            max_k: 6,
            sample_size: 1_000,
            ..Default::default()
        };
        c.fig4_ks = vec![2, 4];
        study.with_config(c)
    }

    /// Selects with `bench`'s configuration from `profile` and replays
    /// the points cold on the Table I hierarchy: (points, aggregate).
    pub(super) fn cold_regional(
        bench: &Bench<'_>,
        profile: &ProfileStage,
    ) -> (usize, AggregatedMetrics) {
        let selection = bench.select(profile).unwrap();
        let regionals = bench.regionals(profile, &selection);
        let table1 = Machine::Functional(configs::allcache_table1());
        let replayed = bench.replay(&regionals, table1, WarmupMode::None).unwrap();
        (regionals.len(), aggregate_weighted(&replayed))
    }

    #[test]
    fn study_cache_roundtrip() {
        let study = tiny_study(Scale::new(0.01));
        let id = BenchmarkId::OmnetppS;
        let cache = MemoryStageCache::new();
        let cold = study.bench_result(id, &cache).unwrap();
        // The result and its whole timing walk.
        assert_eq!((cache.hits(), cache.len()), (0, 2));
        let warm = study.bench_result(id, &cache).unwrap();
        assert_eq!(cache.hits(), 1, "the second call must come from the memo");
        assert_eq!(warm, cold);

        // An entry that does not decode is a miss: the result is
        // recomputed and the entry overwritten with one that decodes.
        let key = study.memo_key(&study.bench(id, SERIAL, &cache));
        cache.put(key, b"garbage");
        let again = study.bench_result(id, &cache).unwrap();
        assert!(again.whole.deterministic_eq(&cold.whole));
        let points = |r: &BenchResult| -> Vec<(u64, u64)> {
            r.regions
                .iter()
                .map(|m| (m.slice, m.weight.to_bits()))
                .collect()
        };
        assert_eq!(points(&again), points(&cold));
        let stored = cache.get(key).unwrap();
        assert_eq!(codec::from_bytes::<BenchResult>(&stored).unwrap(), again);
    }

    #[test]
    fn whole_timing_walk_is_shared_through_the_memo() {
        let study = tiny_study(Scale::new(0.01));
        let cache = MemoryStageCache::new();
        let bench = study.bench(BenchmarkId::OmnetppS, SERIAL, &cache);
        let r = BenchResult::compute(&bench).unwrap();
        assert_eq!((cache.hits(), cache.len()), (0, 1));

        // A second request for the Table III walk reads the first one:
        // even its wall time is the stored one.
        let config = study.config();
        let table3 = Machine::Timing(config.core, config.timing_hierarchy);
        assert_eq!(bench.whole(table3), r.whole_timing);
        assert_eq!(cache.hits(), 1, "Table III must be walked once");

        // A garbage entry is walked again and overwritten.
        let key = whole_walk_key(bench.program(), &table3);
        cache.put(key, b"garbage");
        let again = bench.whole(table3);
        assert!(again.deterministic_eq(&r.whole_timing));
        let stored = codec::from_bytes::<RunMetrics>(&cache.get(key).unwrap()).unwrap();
        assert_eq!(stored, again);
    }

    #[test]
    fn maxk_sweep_shapes() {
        let study = tiny_study(Scale::new(0.01));
        let bench = study.bench(BenchmarkId::OmnetppS, SERIAL, &NoCache);
        let profile = bench.profile(Some(configs::allcache_table1()));
        let whole = whole_as_aggregate(&profile.metrics);
        let rows: Vec<_> = [2, 6]
            .iter()
            .map(|&maxk| {
                cold_regional(
                    &bench.with_pinpoints(|pp| pp.simpoint.max_k = maxk),
                    &profile,
                )
            })
            .collect();
        assert!(rows[0].0 <= 2);
        // Larger MaxK should not track the whole run worse on the mix.
        let err = |row: &(usize, AggregatedMetrics)| max_abs_diff(&row.1.mix_pct, &whole.mix_pct);
        assert!(err(&rows[1]) <= err(&rows[0]) + 1.5);
    }

    #[test]
    fn percentile_sweep_monotone_cost() {
        let study = tiny_study(Scale::new(0.01));
        let results = vec![study
            .bench_result(BenchmarkId::OmnetppS, &crate::NoCache)
            .unwrap()];
        let rows = percentile_sweep(&results, &[50, 90, 100]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].avg_points <= rows[2].avg_points);
        // 100th percentile = full regional run: lowest errors typically.
        assert!(rows[2].mix_err_pp <= rows[0].mix_err_pp + 2.0);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::tests::{cold_regional, tiny_study};
    use super::*;
    use crate::metrics::{aggregate_weighted, whole_as_aggregate};
    use crate::NoCache;
    use sampsim_cache::configs;
    use sampsim_simpoint::baselines;

    #[test]
    fn slice_sweep_rows_and_llc_trend() {
        let scale = Scale::new(0.01);
        let study = tiny_study(scale);
        let bench = study.bench(BenchmarkId::OmnetppS, SERIAL, &NoCache);
        let whole = bench.whole(Machine::Functional(configs::allcache_table1()));
        let whole_l3 = whole_as_aggregate(&whole)
            .miss_rates
            .expect("cache stats")
            .l3;
        let l3: Vec<f64> = [5_000, 10_000, 33_333]
            .iter()
            .map(|&slice| {
                let row = bench.with_pinpoints(|pp| pp.slice_size = scale.apply(slice));
                let (_, agg) = cold_regional(&row, &row.profile(None));
                agg.miss_rates.expect("cache stats").l3
            })
            .collect();
        // Every cold sampled run over-reports the L3 miss rate, and the
        // largest slice is closest to the full run (Fig. 3(b) trend).
        for &row in &l3 {
            assert!(row >= whole_l3 - 1e-9);
        }
        let small_err = (l3[0] - whole_l3).abs();
        let large_err = (l3[2] - whole_l3).abs();
        assert!(
            large_err <= small_err + 1e-9,
            "L3 error should shrink with slice size ({small_err:.2} -> {large_err:.2})"
        );
    }

    #[test]
    fn baseline_aggregate_runs_periodic_points() {
        let study = tiny_study(Scale::new(0.01));
        let bench = study.bench(BenchmarkId::OmnetppS, SERIAL, &NoCache);
        let table1 = configs::allcache_table1();
        let profile = bench.profile(Some(table1));
        let periodic = SimPointsResult {
            k: 5,
            slice_size: bench.config().pinpoints.slice_size,
            assignments: vec![],
            points: baselines::periodic(50, 5),
            bic_scores: vec![],
            avg_variance: 0.0,
        };
        let regionals = bench.regionals(&profile, &periodic);
        let sampled = aggregate_weighted(
            &bench
                .replay(&regionals, Machine::Functional(table1), WarmupMode::None)
                .unwrap(),
        );
        let whole = whole_as_aggregate(&profile.metrics);
        assert!(sampled.total_instructions > 0);
        assert!(whole.total_instructions > sampled.total_instructions);
    }
}
