//! The PinPoints pipeline: one profiling pass → simulation points →
//! checkpoints.

use crate::error::CoreError;
use crate::metrics::RunMetrics;
use crate::stage_cache::{profile_stage_key, NoCache, ProfileStage, StageCache};
use crate::two_stage::{self, FetchStage};
use sampsim_analyze::{
    lint_sampling_config, lint_soundness, Report, SamplingConfig, SoundnessInput,
};
use sampsim_cache::{HierarchyConfig, HierarchyStats};
use sampsim_exec::Jobs;
use sampsim_pin::engine::{self, Pintool};
use sampsim_pin::tools::{BbvTool, CacheSim, LdStMix, MixCounts};
use sampsim_pinball::{RegionalPinball, WarmupRecord, WholePinball};
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::{SimPoint, SimPointOptions, SimPointsResult, StrategyInput, StrategySpec};
use sampsim_workload::{Cursor, Executor, Program};
use std::time::Instant;

/// Pipeline configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct PinPointsConfig {
    /// Slice length in instructions (the paper's sweep settles on 30 M,
    /// 1/3000-scaled to 10 000).
    pub slice_size: u64,
    /// SimPoint analysis options (`MaxK`, projection, BIC threshold…).
    pub simpoint: SimPointOptions,
    /// Warmup length recorded into each regional pinball, in slices.
    /// The paper warms for 500 M cycles before each simulation point —
    /// on the order of 1–1.5 B instructions at its CPIs, i.e. ~48 default
    /// slices at the 1/3000 scale.
    pub warmup_slices: u64,
    /// Cache hierarchy profiled during the whole-run pass (Table I), or
    /// `None` to skip cache simulation in the profiling pass.
    pub profile_cache: Option<HierarchyConfig>,
    /// Region-selection strategy. The default (`simpoint`) reproduces the
    /// paper's method via [`SimPointOptions`]; `stratified2p` and `rss`
    /// carry their own parameters. The profiling pass is strategy-agnostic
    /// — stage-cached BBVs are reused across strategies (only
    /// [`crate::stage_cache::response_key`] covers the strategy).
    pub strategy: StrategySpec,
}

impl Default for PinPointsConfig {
    fn default() -> Self {
        Self {
            slice_size: 10_000,
            simpoint: SimPointOptions::default(),
            warmup_slices: 48,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        }
    }
}

impl PinPointsConfig {
    /// Runs the `sampsim-analyze` config lint pass over this
    /// configuration. `expected_slices` (when the target program is known)
    /// enables the run-length proportionality checks (`SA022`, `SA028`).
    pub fn lint(&self, expected_slices: Option<u64>) -> Report {
        lint_sampling_config(&SamplingConfig {
            slice_size: self.slice_size,
            warmup_slices: self.warmup_slices,
            simpoint: &self.simpoint,
            profile_cache: self.profile_cache.as_ref(),
            expected_slices,
        })
    }
}

/// Everything the pipeline produces for one program.
#[derive(Debug, Clone)]
pub struct PipelineResult {
    /// Checkpoint of the complete execution.
    pub whole: WholePinball,
    /// Whole-run metrics collected during the profiling pass (instruction
    /// mix always; cache stats when `profile_cache` was set).
    pub whole_metrics: RunMetrics,
    /// The SimPoint analysis outcome.
    pub simpoints: SimPointsResult,
    /// One checkpoint per simulation point, with weights and warmup
    /// records.
    pub regional: Vec<RegionalPinball>,
    /// Number of slices the execution divided into.
    pub num_slices: u64,
    /// Repeated-subsampling point sets, when the strategy produces them
    /// (`rss` does; single-shot strategies leave this empty). Feed each
    /// set through [`Pipeline::regionals_for`] to turn the spread of
    /// per-replicate estimates into error bars.
    pub replicates: Vec<Vec<SimPoint>>,
}

/// Proof that the full static-analysis preflight ran for one
/// (program, configuration) pair — the analysis-deduplication token
/// shared between serve request validation and the pipeline.
///
/// Only [`Pipeline::preflight_checked`] constructs one; the private `key`
/// binds the report to the exact inputs it was computed from, so a token
/// presented with a different program or configuration is ignored and the
/// preflight re-runs (never-wrong, merely slower).
#[derive(Debug, Clone)]
pub struct Preflight {
    report: Report,
    key: u64,
}

impl Preflight {
    /// The preflight's findings (all severities).
    pub fn report(&self) -> &Report {
        &self.report
    }
}

/// How [`Pipeline::run`] executes: worker count, profiling-stage cache and
/// an optional already-computed preflight. The default is serial, uncached
/// and self-linting.
#[derive(Clone, Copy)]
pub struct RunOptions<'a> {
    /// Workers for the profiling pass and the k-means restarts.
    pub jobs: Jobs,
    /// Memoizes the profiling stage; [`NoCache`] disables caching.
    pub stage_cache: &'a dyn StageCache,
    /// A token from [`Pipeline::preflight_checked`] to skip the second
    /// lint pass; `None` (or a token for other inputs) lints here.
    pub preflight: Option<&'a Preflight>,
}

impl Default for RunOptions<'_> {
    fn default() -> Self {
        Self {
            jobs: sampsim_exec::SERIAL,
            stage_cache: &NoCache,
            preflight: None,
        }
    }
}

/// Runs the PinPoints flow over a program.
#[derive(Debug, Clone)]
pub struct Pipeline {
    config: PinPointsConfig,
}

impl Pipeline {
    /// Creates a pipeline.
    pub fn new(config: PinPointsConfig) -> Self {
        Self { config }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PinPointsConfig {
        &self.config
    }

    /// Executes the profiling pass, clustering and checkpoint creation.
    ///
    /// `options.jobs` shards the profiling pass and the k-means restarts;
    /// the result is bit-identical for every job count (see
    /// `docs/parallelism.md` for the argument and
    /// `tests/parallel_differential.rs` for the proof).
    ///
    /// `options.stage_cache` memoizes the profiling stage (see
    /// [`crate::stage_cache`]). On a hit the whole-program execution is
    /// skipped and the stored BBVs, slice cursors and metrics are reused;
    /// undecodable or mismatched entries fall back to a full recompute, so
    /// a corrupt cache can cost time but never correctness.
    ///
    /// `options.preflight` reuses an already-computed [`Preflight`]: callers
    /// that already ran the full lint pass to validate a request (the serve
    /// daemon) hand the result back instead of paying for a second
    /// identical pass. `None`, or a token minted for a *different* program
    /// or configuration (detected by its key), runs the preflight here — a
    /// stale token can cost time but never skip validation.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Config`] when the configuration fails its lint
    /// pass (error-severity diagnostics only — warnings do not block the
    /// run), or [`CoreError::SimPoint`] when the program is too short to
    /// produce a single slice.
    pub fn run(
        &self,
        program: &Program,
        options: &RunOptions<'_>,
    ) -> Result<PipelineResult, CoreError> {
        let fresh;
        let preflight = match options.preflight {
            Some(token) if token.key == self.preflight_key(program) => token,
            _ => {
                fresh = self.preflight_checked(program);
                &fresh
            }
        };
        if preflight.report.has_errors() {
            return Err(CoreError::Config(preflight.report.errors()));
        }
        let key = profile_stage_key(program, &self.config);
        let cached = options
            .stage_cache
            .get(key)
            .filter(|bytes| ProfileStage::peek_matches(bytes, program, &self.config))
            .and_then(|bytes| ProfileStage::from_bytes(&bytes).ok())
            .filter(|stage| stage.matches(program, &self.config));
        let (bbvs, starts, whole_metrics) = match cached {
            Some(stage) => (stage.bbvs, stage.starts, stage.metrics),
            None => {
                let (bbvs, starts, metrics) = self.profile_jobs(program, options.jobs);
                let stage = ProfileStage {
                    bbvs,
                    starts,
                    metrics,
                };
                options.stage_cache.put(key, &stage.to_bytes());
                (stage.bbvs, stage.starts, stage.metrics)
            }
        };
        let num_slices = bbvs.len() as u64;
        let (simpoints, replicates) = self.select(&bbvs, options.jobs)?;
        let regional = self.regionals_for(program, &simpoints, &starts);

        Ok(PipelineResult {
            whole: WholePinball::capture(program),
            whole_metrics,
            simpoints,
            regional,
            num_slices,
            replicates,
        })
    }

    /// The full static-analysis preflight: configuration lints plus the
    /// program-level passes — IR structure and phase recurrence, and (when
    /// a cache hierarchy is configured) the memory abstract interpretation
    /// against its geometry. [`Pipeline::run`] refuses to execute on
    /// error-severity findings; callers wanting the warnings/notes (CLI
    /// `lint`, the serve daemon) call this directly.
    pub fn preflight(&self, program: &Program) -> sampsim_analyze::Report {
        let expected_slices = (self.config.slice_size > 0)
            .then(|| program.total_insts().div_ceil(self.config.slice_size));
        let mut report = self.config.lint(expected_slices);
        report.merge(sampsim_analyze::lint_program(program));
        if let Some(hierarchy) = &self.config.profile_cache {
            report.merge(sampsim_analyze::lint_memory(program, hierarchy));
        }
        if let Some(num_slices) = expected_slices {
            report.merge(lint_soundness(&SoundnessInput {
                strategy: &self.config.strategy,
                simpoint: &self.config.simpoint,
                slice_size: self.config.slice_size,
                warmup_slices: self.config.warmup_slices,
                num_slices,
                total_insts: program.total_insts(),
                materialized_budget_bytes: sampsim_analyze::DEFAULT_MATERIALIZED_BUDGET_BYTES,
            }));
        }
        report
    }

    /// Runs [`Pipeline::preflight`] and binds the result to this
    /// (program, configuration) pair. The returned token is what
    /// [`RunOptions::preflight`] accepts; it cannot be
    /// constructed any other way, so holding one proves the full lint
    /// pass ran.
    pub fn preflight_checked(&self, program: &Program) -> Preflight {
        Preflight {
            report: self.preflight(program),
            key: self.preflight_key(program),
        }
    }

    /// The identity a [`Preflight`] token is bound to: the stage-cache
    /// response key already covers the program digest, slicing, warmup,
    /// SimPoint options and strategy fingerprint — exactly the inputs the
    /// preflight reads.
    fn preflight_key(&self, program: &Program) -> u64 {
        crate::stage_cache::response_key(program, &self.config)
    }

    /// Selects regions from profiled BBVs through the configured strategy:
    /// the simulation points, plus the repeated-subsampling point sets
    /// when the strategy draws them. The `simpoint` strategy runs
    /// `SimPointStrategy::analyze`, fanning its k-means restarts out over
    /// `jobs`; the differential suite pins this dispatch bit-identical to
    /// calling `analyze` directly.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::SimPoint`] when the strategy cannot select
    /// from `bbvs` (e.g. an empty profile).
    pub fn select(
        &self,
        bbvs: &[Bbv],
        jobs: Jobs,
    ) -> Result<(SimPointsResult, Vec<Vec<SimPoint>>), CoreError> {
        let input = StrategyInput {
            bbvs,
            slice_size: self.config.slice_size,
        };
        let strategy = self.config.strategy.build(&self.config.simpoint);
        Ok(strategy
            .select(&input, jobs)?
            .into_parts(self.config.slice_size))
    }

    /// Derives the regional pinballs for `simpoints`: one checkpoint per
    /// point, with its weight and warmup records. [`Pipeline::run`] calls
    /// this for its own selection; callers re-cluster a stored profile
    /// (e.g. a different `MaxK`) and pass its result here without
    /// re-running the profiling pass. `starts` must come from the same
    /// program and slice size.
    pub fn regionals_for(
        &self,
        program: &Program,
        simpoints: &SimPointsResult,
        starts: &[Cursor],
    ) -> Vec<RegionalPinball> {
        let slice = self.config.slice_size;
        simpoints
            .points
            .iter()
            .map(|p| {
                let idx = p.slice as usize;
                let mut pb = RegionalPinball::new(
                    program,
                    p.slice,
                    starts[idx].clone(),
                    slice,
                    p.weight,
                    p.cluster,
                );
                if self.config.warmup_slices > 0 {
                    let chunks = warmup_chunks(
                        idx,
                        p.cluster,
                        &simpoints.assignments,
                        starts,
                        slice,
                        self.config.warmup_slices,
                    );
                    pb = pb.with_warmup(chunks);
                }
                pb
            })
            .collect()
    }

    /// Runs only the profiling pass — a single whole execution collecting
    /// per-slice BBVs, slice-boundary checkpoints, the `ldstmix` profile
    /// and (when `profile_cache` is set) `allcache` statistics — over
    /// `jobs` workers. The design sweeps re-cluster this profile many ways
    /// without re-executing.
    ///
    /// The pass takes one of three shapes:
    ///
    /// - **One worker:** the serial walk, the reference semantics.
    /// - **A profiled cache:** one executor walk as two stages on two
    ///   workers. The fetch stage runs the executor, the BBV and mix tools
    ///   and the L1I on the caller's worker, and forwards each
    ///   instruction's L1I miss, read and write in program order to the
    ///   data stage, which runs the L1D, L2, L3 and prefetcher on a
    ///   reserved worker ([`sampsim_exec::join`]). Each structure sees the
    ///   serial walk's access sequence, so every counter is the same.
    ///   Workers beyond two stay idle.
    /// - **No cache:** the slice range is split into one contiguous shard
    ///   per worker. A serial prologue fast-forwards an untooled executor
    ///   to capture each shard's resume cursor (checkpoint/resume is
    ///   bit-exact, so a shard observes exactly the instruction stream the
    ///   whole-program walk would have produced); shards then profile their
    ///   slices concurrently and the per-shard BBVs, slice cursors and mix
    ///   counts are stitched back together in slice order.
    ///
    /// Every output except `wall_seconds` is bit-identical to the serial
    /// pass for every job count.
    pub fn profile_jobs(
        &self,
        program: &Program,
        jobs: Jobs,
    ) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        let slice = self.config.slice_size;
        assert!(slice > 0, "slice size must be positive");
        let started = Instant::now();
        // One worker never reaches the two-stage walk: `join` would start
        // its data stage first, waiting on a fetch stage that never runs.
        if jobs.get() <= 1 {
            return self.profile_serial(program, started);
        }
        let Some(config) = self.config.profile_cache else {
            return self.profile_sharded(program, jobs, started);
        };
        let ((walk, fetch), data) = two_stage::run(
            jobs,
            |out| {
                let stage = FetchStage::new(&config, out);
                let (walk, stage) =
                    profile_slices(program, Executor::new(program), slice, u64::MAX, stage);
                (walk, stage.stats())
            },
            move |batches| two_stage::data_stage(&config, batches),
        );
        let mut cache = fetch;
        cache.merge(&data);
        walk.into_profile(Some(cache), started)
    }

    /// The single-threaded profiling pass (the reference semantics every
    /// other shape must reproduce bit-for-bit).
    fn profile_serial(
        &self,
        program: &Program,
        started: Instant,
    ) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        let cache = self.config.profile_cache.map(CacheSim::new);
        let (walk, cache) = profile_slices(
            program,
            Executor::new(program),
            self.config.slice_size,
            u64::MAX,
            cache,
        );
        walk.into_profile(cache.map(|c| c.stats()), started)
    }

    /// The uncached pass sharded by slice range (see
    /// [`Pipeline::profile_jobs`]).
    fn profile_sharded(
        &self,
        program: &Program,
        jobs: Jobs,
        started: Instant,
    ) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        let slice = self.config.slice_size;
        let num_slices = program.total_insts().div_ceil(slice);
        // One shard per worker; below two shards sharding cannot help.
        let num_shards = (jobs.get() as u64).min(num_slices);
        if num_shards <= 1 {
            return self.profile_serial(program, started);
        }

        // Serial prologue: fast-forward (untooled) to each shard start.
        let shards = shard_plan(num_slices, num_shards);
        let mut exec = Executor::new(program);
        let mut tasks: Vec<(Cursor, u64)> = Vec::with_capacity(shards.len());
        for (i, &slices) in shards.iter().enumerate() {
            tasks.push((exec.cursor(), slices));
            if i + 1 < shards.len() {
                exec.skip(slices * slice);
            }
        }
        let outputs = sampsim_exec::parallel_map(jobs, &tasks, |_, (start, slices)| {
            let exec = Executor::with_cursor(program, start.clone());
            profile_slices(program, exec, slice, *slices, ()).0
        });

        // Deterministic reduction: shard outputs are concatenated in
        // slice order (the task list is ordered by shard start).
        let mut whole = Profiled {
            bbvs: Vec::with_capacity(num_slices as usize),
            starts: Vec::with_capacity(num_slices as usize),
            mix: MixCounts::new(),
            instructions: 0,
        };
        for part in outputs {
            whole.bbvs.extend(part.bbvs);
            whole.starts.extend(part.starts);
            whole.mix.merge(&part.mix);
            whole.instructions += part.instructions;
        }
        whole.into_profile(None, started)
    }
}

/// What a profiling walk collects besides its cache counters.
struct Profiled {
    bbvs: Vec<Bbv>,
    starts: Vec<Cursor>,
    mix: MixCounts,
    instructions: u64,
}

impl Profiled {
    /// The profile with its whole-run metrics, timed from `started`.
    fn into_profile(
        self,
        cache: Option<HierarchyStats>,
        started: Instant,
    ) -> (Vec<Bbv>, Vec<Cursor>, RunMetrics) {
        let metrics = RunMetrics {
            instructions: self.instructions,
            mix: self.mix,
            cache,
            timing: None,
            wall_seconds: started.elapsed().as_secs_f64(),
        };
        (self.bbvs, self.starts, metrics)
    }
}

/// Profiles up to `max_slices` slices from `exec`'s position: per-slice
/// BBVs, slice-start cursors, the instruction mix and the instruction
/// count. `cache` sees every instruction after the BBV and mix tools and
/// comes back with the walk.
fn profile_slices<C: Pintool>(
    program: &Program,
    mut exec: Executor<'_>,
    slice: u64,
    max_slices: u64,
    cache: C,
) -> (Profiled, C) {
    let capacity = max_slices.min(program.total_insts().div_ceil(slice)) as usize;
    let mut bbvs = Vec::with_capacity(capacity);
    let mut starts = Vec::with_capacity(capacity);
    let mut tools = (BbvTool::new(program.blocks().len()), LdStMix::new(), cache);
    let instructions =
        engine::run_slices(&mut exec, slice, max_slices, &mut tools, |t, start, _| {
            starts.push(start);
            bbvs.push(Bbv::from_counts(t.0.harvest()));
        });
    let (_, mix, cache) = tools;
    let walk = Profiled {
        bbvs,
        starts,
        mix: *mix.counts(),
        instructions,
    };
    (walk, cache)
}

/// Splits `num_slices` into `num_shards` contiguous, non-empty, nearly
/// equal ranges and returns each range's slice count (the first
/// `num_slices % num_shards` shards take one extra slice).
fn shard_plan(num_slices: u64, num_shards: u64) -> Vec<u64> {
    debug_assert!(num_shards >= 1 && num_shards <= num_slices);
    let base = num_slices / num_shards;
    let extra = num_slices % num_shards;
    (0..num_shards)
        .map(|i| base + u64::from(i < extra))
        .collect()
}

/// Selects warmup slices for the region at `idx`: the most recent
/// `warmup_slices` slices *belonging to the region's cluster* (plus the
/// region's immediate predecessors, which are usually the same thing),
/// coalesced into contiguous chunks in chronological order.
///
/// Rationale (DESIGN.md scaling policy): at full scale PinPoints warms with
/// the instructions directly preceding the region; at 1/3000 scale those
/// may belong to a different phase, while the whole run's cache state for
/// this region was accumulated across the *phase's* earlier residencies.
/// Warming with same-cluster slices reproduces the resident footprint
/// without touching the region's own transient (streaming/pointer-chase)
/// addresses.
fn warmup_chunks(
    idx: usize,
    cluster: u32,
    assignments: &[u32],
    starts: &[Cursor],
    slice: u64,
    warmup_slices: u64,
) -> Vec<WarmupRecord> {
    let mut picked: Vec<usize> = Vec::new();
    let mut j = idx;
    while j > 0 && (picked.len() as u64) < warmup_slices {
        j -= 1;
        // Same-cluster predecessors; also accept the region's direct
        // neighbours (they share the microarchitectural context even when
        // assigned to an adjacent cluster).
        // Without an assignment vector (baseline samplers build synthetic
        // point sets), fall back to the plain preceding window.
        let same_cluster = assignments.get(j).is_none_or(|&a| a == cluster);
        if same_cluster || idx - j <= 2 {
            picked.push(j);
        }
    }
    picked.reverse();
    // Coalesce consecutive slice indices into chunks.
    let mut chunks: Vec<WarmupRecord> = Vec::new();
    let mut run_start: Option<(usize, usize)> = None; // (first, last)
    for &s in &picked {
        match run_start {
            Some((first, last)) if s == last + 1 => run_start = Some((first, s)),
            Some((first, last)) => {
                chunks.push(WarmupRecord {
                    start: starts[first].clone(),
                    insts: (last - first + 1) as u64 * slice,
                });
                run_start = Some((s, s));
            }
            None => run_start = Some((s, s)),
        }
    }
    if let Some((first, last)) = run_start {
        chunks.push(WarmupRecord {
            start: starts[first].clone(),
            insts: (last - first + 1) as u64 * slice,
        });
    }
    chunks
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_cache::configs;
    use sampsim_workload::spec::{InterleaveSpec, PhaseSpec, WorkloadSpec};

    fn program() -> Program {
        WorkloadSpec::builder("pipe-test", 21)
            .total_insts(200_000)
            .phase(PhaseSpec::balanced(1.0))
            .phase(PhaseSpec::memory_bound(1.0))
            .phase(PhaseSpec::compute_bound(1.0))
            .interleave(InterleaveSpec {
                mean_segment: 8_000,
                jitter: 0.4,
                align: 0,
            })
            .build()
            .build()
    }

    fn config() -> PinPointsConfig {
        PinPointsConfig {
            slice_size: 1_000,
            simpoint: SimPointOptions {
                max_k: 10,
                ..Default::default()
            },
            warmup_slices: 3,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        }
    }

    #[test]
    fn pipeline_end_to_end() {
        let p = program();
        let r = Pipeline::new(config())
            .run(&p, &RunOptions::default())
            .unwrap();
        assert_eq!(r.num_slices, p.total_insts().div_ceil(1_000));
        assert_eq!(r.whole_metrics.instructions, p.total_insts());
        assert_eq!(r.whole.length, p.total_insts());
        assert!(!r.regional.is_empty());
        assert!(r.regional.len() <= 10);
        let w: f64 = r.regional.iter().map(|pb| pb.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
        // Regional pinballs start at their slice's boundary.
        for pb in &r.regional {
            assert_eq!(pb.start.retired, pb.slice_index * 1_000);
            assert_eq!(pb.length, 1_000);
        }
    }

    #[test]
    fn warmup_chunks_attached_except_at_program_start() {
        let p = program();
        let r = Pipeline::new(config())
            .run(&p, &RunOptions::default())
            .unwrap();
        for pb in &r.regional {
            if pb.slice_index == 0 {
                assert!(pb.warmup.is_empty(), "slice 0 has no predecessors");
                continue;
            }
            assert!(
                !pb.warmup.is_empty(),
                "slice {} lacks warmup",
                pb.slice_index
            );
            let total = pb.warmup_insts();
            assert!(total > 0 && total <= 3_000);
            // Chunks are chronological, non-overlapping, slice-aligned,
            // and end at or before the region start.
            let mut prev_end = 0;
            for w in &pb.warmup {
                assert!(w.start.retired >= prev_end);
                assert_eq!(w.start.retired % 1_000, 0);
                prev_end = w.start.retired + w.insts;
            }
            assert!(prev_end <= pb.start.retired + 1_000);
            // The final chunk covers the slice immediately before the
            // region (its direct context).
            let last = pb.warmup.last().unwrap();
            assert_eq!(last.start.retired + last.insts, pb.start.retired);
        }
    }

    #[test]
    fn profile_cache_collects_stats() {
        let p = program();
        let mut cfg = config();
        cfg.profile_cache = Some(configs::allcache_table1());
        let r = Pipeline::new(cfg).run(&p, &RunOptions::default()).unwrap();
        let cache = r.whole_metrics.cache.unwrap();
        assert_eq!(cache.l1i.accesses, p.total_insts());
        assert!(cache.l1d.accesses > 0);
    }

    #[test]
    fn profile_matches_run_bbv_count() {
        let p = program();
        let pipe = Pipeline::new(config());
        let (bbvs, starts, metrics) = pipe.profile_jobs(&p, sampsim_exec::SERIAL);
        let expected = p.total_insts().div_ceil(1_000) as usize;
        assert_eq!(bbvs.len(), expected);
        assert_eq!(starts.len(), expected);
        assert_eq!(metrics.instructions, p.total_insts());
        // Each full BBV accounts for exactly one slice of instructions.
        for bbv in &bbvs[..bbvs.len() - 1] {
            assert_eq!(bbv.l1_norm(), 1_000.0);
        }
    }

    #[test]
    fn deterministic_pipeline() {
        let p = program();
        let a = Pipeline::new(config())
            .run(&p, &RunOptions::default())
            .unwrap();
        let b = Pipeline::new(config())
            .run(&p, &RunOptions::default())
            .unwrap();
        assert_eq!(a.simpoints, b.simpoints);
        assert_eq!(a.regional, b.regional);
    }

    #[test]
    fn single_slice_program_collapses_to_one_point() {
        // Edge case: slice_size == total_insts, so the whole program is one
        // slice — one cluster, one point of weight 1, no warmup to attach.
        let p = WorkloadSpec::builder("one-slice", 9)
            .total_insts(5_000)
            .phase(PhaseSpec::balanced(1.0))
            .build()
            .build();
        let cfg = PinPointsConfig {
            slice_size: 5_000,
            simpoint: SimPointOptions {
                max_k: 10,
                ..Default::default()
            },
            warmup_slices: 3,
            profile_cache: None,
            strategy: StrategySpec::SimPoint,
        };
        let r = Pipeline::new(cfg).run(&p, &RunOptions::default()).unwrap();
        assert_eq!(r.num_slices, 1);
        assert_eq!(r.regional.len(), 1);
        let pb = &r.regional[0];
        assert_eq!(pb.slice_index, 0);
        assert_eq!(pb.length, 5_000);
        assert!((pb.weight - 1.0).abs() < 1e-12);
        assert!(pb.warmup.is_empty(), "slice 0 has no predecessors to warm");
        // A checkpointed-warmup replay of the single region must degrade
        // gracefully to a plain replay of the whole program.
        let m = crate::runs::run_region_functional(
            &p,
            pb,
            configs::allcache_table1(),
            crate::runs::WarmupMode::Checkpointed,
        )
        .unwrap();
        assert_eq!(m.instructions, 5_000);
        assert!(m.deterministic_eq(&m));
    }

    #[test]
    fn preflighted_run_reuses_the_token_instead_of_relinting() {
        // A config whose only defect is lint-visible: one rss replicate
        // is an SA144 error, but the pipeline runs fine mechanically
        // (replicates only matter for error bars). A forged clean token
        // with the *correct* key therefore makes the run succeed — proof
        // the preflight was actually skipped, not silently re-run.
        let p = program();
        let mut cfg = config();
        cfg.strategy =
            StrategySpec::parse_spec("rss:set_size=30,replicates=1").expect("valid spec");
        let pipe = Pipeline::new(cfg);
        assert!(matches!(
            pipe.run(&p, &RunOptions::default()),
            Err(CoreError::Config(_))
        ));
        let forged = Preflight {
            report: Report::new(),
            key: pipe.preflight_key(&p),
        };
        let r = pipe.run(
            &p,
            &RunOptions {
                preflight: Some(&forged),
                ..Default::default()
            },
        );
        assert!(r.is_ok(), "{:?}", r.err());
    }

    #[test]
    fn stale_preflight_tokens_fall_back_to_a_fresh_lint() {
        // A token minted for a clean config must not leak past a broken
        // one: the key mismatch forces a fresh preflight, which rejects.
        let p = program();
        let clean = Pipeline::new(config());
        let token = clean.preflight_checked(&p);
        assert!(!token.report().has_errors());
        let mut bad_cfg = config();
        bad_cfg.simpoint.bic_threshold = 1.5;
        let bad = Pipeline::new(bad_cfg);
        let r = bad.run(
            &p,
            &RunOptions {
                preflight: Some(&token),
                ..Default::default()
            },
        );
        assert!(matches!(r, Err(CoreError::Config(_))));
    }

    #[test]
    fn preflight_carries_the_soundness_pass() {
        use sampsim_analyze::Rule;
        let p = program(); // 200 slices at slice_size 1000
        let mut cfg = config();
        // rss with a single replicate: SA144 is error-severity, so the
        // run is refused with the typed config error.
        cfg.strategy = StrategySpec::parse_spec("rss:set_size=30,replicates=1").unwrap();
        let pipe = Pipeline::new(cfg);
        let report = pipe.preflight(&p);
        assert!(report.fired(Rule::InsufficientReplicates));
        match pipe.run(&p, &RunOptions::default()) {
            Err(CoreError::Config(diags)) => {
                assert!(diags.iter().any(|d| d.rule == Rule::InsufficientReplicates));
            }
            other => panic!("expected a config error, got {other:?}"),
        }
        // The clean twin (replicates = 2) passes preflight and runs.
        let mut cfg = config();
        cfg.strategy = StrategySpec::parse_spec("rss:set_size=30,replicates=2").unwrap();
        let pipe = Pipeline::new(cfg);
        assert!(!pipe.preflight(&p).fired(Rule::InsufficientReplicates));
        assert!(pipe.run(&p, &RunOptions::default()).is_ok());
        // Warning-severity soundness findings surface in the report but
        // do not block: MaxK 10 yields 10 < 30 samples (SA140).
        let pipe = Pipeline::new(config());
        let report = pipe.preflight(&p);
        assert!(report.fired(Rule::SampleBelowClt));
        assert!(!report.has_errors());
        assert!(pipe.run(&p, &RunOptions::default()).is_ok());
    }

    #[test]
    fn simpoint_in_slice_zero_with_warmup_configured() {
        // Edge case: a simulation point in slice 0 while warmup_slices > 0.
        // There is nothing before slice 0, so the pinball must carry no
        // warmup records and still replay under every warmup mode.
        let p = program();
        let pipe = Pipeline::new(config());
        let (bbvs, starts, _) = pipe.profile_jobs(&p, sampsim_exec::SERIAL);
        let n = bbvs.len();
        assert!(warmup_chunks(0, 0, &vec![0; n], &starts, 1_000, 3).is_empty());
        let simpoints = SimPointsResult {
            k: 1,
            slice_size: 1_000,
            assignments: vec![0; n],
            points: vec![sampsim_simpoint::select::SimPoint {
                slice: 0,
                cluster: 0,
                weight: 1.0,
            }],
            bic_scores: Vec::new(),
            avg_variance: 0.0,
        };
        let regional = pipe.regionals_for(&p, &simpoints, &starts);
        assert_eq!(regional.len(), 1);
        assert_eq!(regional[0].slice_index, 0);
        assert!(regional[0].warmup.is_empty());
        for mode in [
            crate::runs::WarmupMode::None,
            crate::runs::WarmupMode::Checkpointed,
        ] {
            let m = crate::runs::run_region_functional(
                &p,
                &regional[0],
                configs::allcache_table1(),
                mode,
            )
            .unwrap();
            assert_eq!(m.instructions, 1_000, "{mode:?}");
        }
    }
}
