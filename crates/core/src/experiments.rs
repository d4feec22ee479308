//! Table/figure-level experiment drivers.
//!
//! [`Study`] computes (and caches) per-benchmark [`BenchResult`]s; the
//! sweep functions implement the paper's design-space explorations. The
//! benchmark harness (`sampsim-bench`) formats these into the tables and
//! series the paper reports.

use crate::artifacts::ArtifactStore;
use crate::bench_result::{BenchResult, StudyConfig};
use crate::error::CoreError;
use crate::metrics::{aggregate_weighted, AggregatedMetrics, MissRates, RunMetrics};
use crate::pipeline::Pipeline;
use crate::runs::{self, WarmupMode};
use sampsim_cache::configs;
use sampsim_exec::SERIAL;
use sampsim_simpoint::{SimPointOptions, SimPointStrategy};
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::hash::Fnv64;
use sampsim_util::scale::Scale;

/// One row of a MaxK / slice-size sweep (Fig. 3).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The swept parameter value (MaxK, or slice size in instructions).
    pub param: u64,
    /// Number of simulation points chosen.
    pub num_points: usize,
    /// Weighted instruction-mix distribution of the sampled run.
    pub mix_pct: [f64; 4],
    /// Weighted cache miss rates of the sampled run.
    pub miss_rates: MissRates,
}

/// Result of a design-space sweep, with the whole-run reference row.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Benchmark swept.
    pub name: String,
    /// Whole-run reference (mix + miss rates).
    pub whole: AggregatedMetrics,
    /// One row per swept value.
    pub rows: Vec<SweepRow>,
}

/// Computes and caches per-benchmark study results.
#[derive(Debug)]
pub struct Study {
    config: StudyConfig,
    scale: Scale,
    store: Option<ArtifactStore>,
    /// Print progress lines to stderr while computing.
    pub verbose: bool,
}

impl Study {
    /// A study at the given scale with the default (paper) configuration.
    pub fn new(scale: Scale) -> Self {
        Self {
            config: StudyConfig::default(),
            scale,
            store: None,
            verbose: false,
        }
    }

    /// Overrides the study configuration.
    pub fn with_config(mut self, config: StudyConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an on-disk artifact store.
    pub fn with_store(mut self, store: ArtifactStore) -> Self {
        self.store = Some(store);
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

    fn cache_key(&self, id: BenchmarkId) -> String {
        let mut h = Fnv64::new();
        h.write_str(&format!("{:?}", self.config));
        h.write_f64(self.scale.factor());
        // The program digest ties the artifact to the exact generated
        // workload, so suite re-calibrations invalidate stale results.
        h.write_u64(benchmark(id).scaled(self.scale).build().digest());
        format!("{}-{:016x}", id.name(), h.finish())
    }

    /// Computes (or loads) the full measurement record for one benchmark.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError`] when simulation or the artifact store fails.
    pub fn bench_result(&self, id: BenchmarkId) -> Result<BenchResult, CoreError> {
        let compute = || {
            if self.verbose {
                eprintln!("[sampsim] computing {} ...", id.name());
            }
            let started = std::time::Instant::now();
            let r = BenchResult::compute(&benchmark(id), self.scale, &self.config);
            if self.verbose {
                if let Ok(ref r) = r {
                    eprintln!(
                        "[sampsim]   {}: {} slices, {} points, {:.1}s",
                        id.name(),
                        r.num_slices,
                        r.num_points(),
                        started.elapsed().as_secs_f64()
                    );
                }
            }
            r
        };
        match &self.store {
            Some(store) => store.get_or_compute(&self.cache_key(id), compute),
            None => compute(),
        }
    }

    /// Computes (or loads) the whole suite, in Table II order.
    ///
    /// # Errors
    ///
    /// Returns the first failure.
    pub fn suite_results(&self) -> Result<Vec<BenchResult>, CoreError> {
        BenchmarkId::ALL
            .iter()
            .map(|&id| self.bench_result(id))
            .collect()
    }
}

/// Runs the Fig. 3(a) MaxK sweep for one benchmark: profile once, recluster
/// per MaxK, replay the resulting simulation points cold, and compare mix +
/// miss rates against the whole run.
///
/// # Errors
///
/// Returns [`CoreError`] when the pipeline or a replay fails.
pub fn maxk_sweep(
    id: BenchmarkId,
    maxks: &[usize],
    scale: Scale,
    config: &StudyConfig,
) -> Result<SweepResult, CoreError> {
    let config = config.scaled(scale);
    let program = benchmark(id).scaled(scale).build();
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = Some(configs::allcache_table1());
    let pipeline = Pipeline::new(pp.clone());
    let (bbvs, starts, whole) = pipeline.profile_jobs(&program, SERIAL);
    let whole_agg = crate::metrics::whole_as_aggregate(&whole);
    let mut rows = Vec::with_capacity(maxks.len());
    for &maxk in maxks {
        let opts = SimPointOptions {
            max_k: maxk,
            ..pp.simpoint
        };
        let simpoints = SimPointStrategy::new(opts).analyze(&bbvs, pp.slice_size, SERIAL)?;
        let regional = pipeline.regionals_for(&program, &simpoints, &starts);
        let region_metrics = runs::run_regions_functional_jobs(
            &program,
            &regional,
            configs::allcache_table1(),
            WarmupMode::None,
            SERIAL,
        )?;
        let agg = aggregate_weighted(&region_metrics);
        rows.push(SweepRow {
            param: maxk as u64,
            num_points: regional.len(),
            mix_pct: agg.mix_pct,
            miss_rates: agg.miss_rates.expect("cache stats collected"),
        });
    }
    Ok(SweepResult {
        name: id.name().to_string(),
        whole: whole_agg,
        rows,
    })
}

/// Runs the Fig. 3(b) slice-size sweep for one benchmark: re-profile per
/// slice size (BBV granularity changes), cluster at the configured MaxK,
/// replay cold and compare against the whole run.
///
/// # Errors
///
/// Returns [`CoreError`] when the pipeline or a replay fails.
pub fn slice_sweep(
    id: BenchmarkId,
    slice_sizes: &[u64],
    scale: Scale,
    config: &StudyConfig,
) -> Result<SweepResult, CoreError> {
    let config = config.scaled(scale);
    let program = benchmark(id).scaled(scale).build();
    // Whole-run reference measured once (it does not depend on slicing).
    let whole = runs::run_whole_functional(&program, configs::allcache_table1());
    let whole_agg = crate::metrics::whole_as_aggregate(&whole);
    let mut rows = Vec::with_capacity(slice_sizes.len());
    for &slice in slice_sizes {
        let mut pp = config.pinpoints.clone();
        pp.slice_size = slice;
        pp.profile_cache = None;
        let pipeline = Pipeline::new(pp.clone());
        let (bbvs, starts, _metrics) = pipeline.profile_jobs(&program, SERIAL);
        let simpoints = SimPointStrategy::new(pp.simpoint).analyze(&bbvs, slice, SERIAL)?;
        let regional = pipeline.regionals_for(&program, &simpoints, &starts);
        let region_metrics = runs::run_regions_functional_jobs(
            &program,
            &regional,
            configs::allcache_table1(),
            WarmupMode::None,
            SERIAL,
        )?;
        let agg = aggregate_weighted(&region_metrics);
        rows.push(SweepRow {
            param: slice,
            num_points: regional.len(),
            mix_pct: agg.mix_pct,
            miss_rates: agg.miss_rates.expect("cache stats collected"),
        });
    }
    Ok(SweepResult {
        name: id.name().to_string(),
        whole: whole_agg,
        rows,
    })
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

/// Convenience: computes a baseline-sampler aggregate (periodic or random
/// slice selection) for comparison against SimPoint selection on the same
/// program — used by the ablation benches.
///
/// # Errors
///
/// Returns [`CoreError`] when a replay fails.
pub fn baseline_aggregate(
    id: BenchmarkId,
    scale: Scale,
    config: &StudyConfig,
    points: &[sampsim_simpoint::SimPoint],
) -> Result<(AggregatedMetrics, AggregatedMetrics), CoreError> {
    let config = config.scaled(scale);
    let program = benchmark(id).scaled(scale).build();
    let mut pp = config.pinpoints.clone();
    pp.profile_cache = Some(configs::allcache_table1());
    let pipeline = Pipeline::new(pp.clone());
    let (_bbvs, starts, whole) = pipeline.profile_jobs(&program, SERIAL);
    let fake = sampsim_simpoint::SimPointsResult {
        k: points.len(),
        slice_size: pp.slice_size,
        assignments: vec![],
        points: points.to_vec(),
        bic_scores: vec![],
        avg_variance: 0.0,
    };
    let regional = pipeline.regionals_for(&program, &fake, &starts);
    let metrics = runs::run_regions_functional_jobs(
        &program,
        &regional,
        configs::allcache_table1(),
        WarmupMode::None,
        SERIAL,
    )?;
    Ok((
        aggregate_weighted(&metrics),
        crate::metrics::whole_as_aggregate(&whole),
    ))
}

/// Whole-run metrics alone (used by baselines that need the reference
/// without a full study).
pub fn whole_reference(id: BenchmarkId, scale: Scale) -> RunMetrics {
    let program = benchmark(id).scaled(scale).build();
    runs::run_whole_functional(&program, configs::allcache_table1())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> StudyConfig {
        let mut c = StudyConfig::default();
        c.pinpoints.simpoint = SimPointOptions {
            max_k: 6,
            sample_size: 1_000,
            ..Default::default()
        };
        c.fig4_ks = vec![2, 4];
        c
    }

    #[test]
    fn study_cache_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sampsim-study-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = ArtifactStore::open(&dir).unwrap();
        let study = Study::new(Scale::new(0.01))
            .with_config(tiny_config())
            .with_store(store);
        let a = study.bench_result(BenchmarkId::OmnetppS).unwrap();
        let b = study.bench_result(BenchmarkId::OmnetppS).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn maxk_sweep_shapes() {
        let r = maxk_sweep(
            BenchmarkId::OmnetppS,
            &[2, 6],
            Scale::new(0.01),
            &tiny_config(),
        )
        .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert!(r.rows[0].num_points <= 2);
        // Larger MaxK should not track the whole run worse on the mix.
        let err = |row: &SweepRow| max_abs_diff(&row.mix_pct, &r.whole.mix_pct);
        assert!(err(&r.rows[1]) <= err(&r.rows[0]) + 1.5);
    }

    #[test]
    fn percentile_sweep_monotone_cost() {
        let study = Study::new(Scale::new(0.01)).with_config(tiny_config());
        let results = vec![study.bench_result(BenchmarkId::OmnetppS).unwrap()];
        let rows = percentile_sweep(&results, &[50, 90, 100]);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].avg_points <= rows[2].avg_points);
        // 100th percentile = full regional run: lowest errors typically.
        assert!(rows[2].mix_err_pp <= rows[0].mix_err_pp + 2.0);
    }
}

#[cfg(test)]
mod sweep_tests {
    use super::*;
    use sampsim_simpoint::SimPointOptions;

    fn tiny() -> StudyConfig {
        let mut c = StudyConfig::default();
        c.pinpoints.simpoint = SimPointOptions {
            max_k: 6,
            sample_size: 1_000,
            ..Default::default()
        };
        c
    }

    #[test]
    fn slice_sweep_rows_and_llc_trend() {
        let scale = Scale::new(0.01);
        let slices = [scale.apply(5_000), scale.apply(10_000), scale.apply(33_333)];
        let r = slice_sweep(BenchmarkId::OmnetppS, &slices, scale, &tiny()).unwrap();
        assert_eq!(r.rows.len(), 3);
        let whole_l3 = r.whole.miss_rates.expect("cache stats").l3;
        // Every cold sampled run over-reports the L3 miss rate, and the
        // largest slice is closest to the full run (Fig. 3(b) trend).
        for row in &r.rows {
            assert!(row.miss_rates.l3 >= whole_l3 - 1e-9);
        }
        let small_err = (r.rows[0].miss_rates.l3 - whole_l3).abs();
        let large_err = (r.rows[2].miss_rates.l3 - whole_l3).abs();
        assert!(
            large_err <= small_err + 1e-9,
            "L3 error should shrink with slice size ({small_err:.2} -> {large_err:.2})"
        );
    }

    #[test]
    fn baseline_aggregate_runs_periodic_points() {
        let scale = Scale::new(0.01);
        let points = sampsim_simpoint::baselines::periodic(50, 5);
        let (sampled, whole) =
            baseline_aggregate(BenchmarkId::OmnetppS, scale, &tiny(), &points).unwrap();
        assert!(sampled.total_instructions > 0);
        assert!(whole.total_instructions > sampled.total_instructions);
    }
}
