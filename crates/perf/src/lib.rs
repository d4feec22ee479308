//! In-repo microbenchmark harness for the hot kernels.
//!
//! The optimized kernels this repo ships — bounds-pruned k-means
//! ([`mod@sampsim_simpoint::kmeans`]), sparse cached-row BBV projection
//! ([`sampsim_simpoint::project`]) and the packed single-pass cache probe
//! ([`sampsim_cache::Cache::access`]) — all promise *bit-identical*
//! results to their naive counterparts. This crate times them against
//! those counterparts on real pipeline inputs (BBVs regenerated from a
//! fixed suite benchmark: `503.bwaves_r`, or `505.mcf_r` in quick mode)
//! and emits a machine-checkable `BENCH_kernels.json` report. Every timed
//! pair is also asserted bit-identical, so a perf run doubles as a
//! differential test.
//!
//! Every kernel carries a reference timing and a speedup: the cache probe
//! is timed against the frozen pre-optimization
//! [`sampsim_cache::ReferenceCache`], with hit counters asserted
//! identical. The `sampsim-perf-kernels/v3` report holds exactly these
//! three kernels (v2 also carried a streamed scaling grid).
//!
//! No external crates: timing is `std::time::Instant`, the report is a
//! hand-assembled JSON document, and validation checks it against the
//! report's declared [`schema`] with [`sampsim_util::json`].
//!
//! Wall-clock numbers are inherently machine-dependent; the report is for
//! trend tracking, not for byte-stable comparison. Everything *other*
//! than the `*_ms` fields is deterministic. [`compare_reports`] turns two
//! reports into a regression gate over the size-normalized rates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use sampsim_cache::{Cache, CacheConfig, ReferenceCache};
use sampsim_core::pipeline::{PinPointsConfig, Pipeline};
use sampsim_exec::Jobs;
use sampsim_simpoint::bbv::Bbv;
use sampsim_simpoint::kmeans::KmeansResult;
use sampsim_simpoint::project::RandomProjection;
use sampsim_simpoint::reference::kmeans_best_of_reference;
use sampsim_simpoint::{kmeans_best_of_jobs, KmeansError, SimPointOptions};
use sampsim_spec2017::{benchmark, BenchmarkId};
use sampsim_util::json::{self, num, Bound, Shape, Value};
use sampsim_util::rng::SplitMix64;
use sampsim_util::scale::Scale;
use std::fmt;
use std::time::Instant;

/// Schema identifier written into (and required of) every report.
pub const SCHEMA: &str = "sampsim-perf-kernels/v3";

/// Allowed slowdown between a fresh report and a baseline before
/// [`compare_reports`] fails: new rate > `1.10 *` old rate is a
/// regression.
pub const REGRESSION_TOLERANCE: f64 = 1.10;

/// Harness configuration.
#[derive(Debug, Clone)]
pub struct PerfOptions {
    /// Quick mode: a smaller benchmark, coarser slices and a reduced `k`
    /// sweep — a CI smoke test rather than a measurement.
    pub quick: bool,
    /// Workload scale used when regenerating BBVs. The slice size scales
    /// with it, so the *number* of slices (the clustering input size)
    /// matches the full-scale benchmark either way.
    pub scale: Scale,
    /// Worker threads for the clustering restart sweep. Results are
    /// bit-identical for every job count (asserted against the serial
    /// naive reference on every run).
    pub jobs: Jobs,
}

impl Default for PerfOptions {
    fn default() -> Self {
        Self {
            quick: false,
            scale: Scale::TEST,
            jobs: Jobs::Auto,
        }
    }
}

/// Harness failure.
#[derive(Debug)]
pub enum PerfError {
    /// A k-means kernel rejected its input.
    Kmeans(KmeansError),
    /// An optimized kernel diverged from its reference — a correctness
    /// bug, not a measurement problem.
    Mismatch(String),
}

impl fmt::Display for PerfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PerfError::Kmeans(e) => write!(f, "k-means failed: {e}"),
            PerfError::Mismatch(what) => {
                write!(f, "optimized kernel diverged from reference: {what}")
            }
        }
    }
}

impl std::error::Error for PerfError {}

impl From<KmeansError> for PerfError {
    fn from(e: KmeansError) -> Self {
        PerfError::Kmeans(e)
    }
}

/// One timed kernel in the report.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    /// Kernel name (`kmeans_sweep`, `bbv_projection`, `cache_access_rw`).
    pub name: &'static str,
    /// Naive-baseline wall time, when the baseline is kept in-tree.
    pub reference_ms: Option<f64>,
    /// Optimized-kernel wall time.
    pub optimized_ms: f64,
    /// `reference_ms / optimized_ms`, when a reference exists.
    pub speedup: Option<f64>,
    /// Deterministic work/checksum numbers (sizes, counts, inertia…).
    pub details: Vec<(&'static str, f64)>,
}

/// A full harness run, serializable with [`PerfReport::to_json`].
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// Benchmark the BBVs were regenerated from.
    pub benchmark: String,
    /// Whether this was a quick (smoke) run.
    pub quick: bool,
    /// Number of BBV slices fed to the clustering kernels.
    pub num_slices: u64,
    /// Projected dimensionality.
    pub dim: usize,
    /// The timed kernels.
    pub kernels: Vec<KernelTiming>,
}

/// The regenerated input set the kernels run over.
#[derive(Debug)]
pub struct PerfInput {
    /// Benchmark name the BBVs come from.
    pub benchmark: String,
    /// One BBV per slice.
    pub bbvs: Vec<Bbv>,
    /// Projected dimensionality for the clustering kernels.
    pub dim: usize,
    /// Cluster counts the sweep visits.
    pub ks: Vec<usize>,
    /// Restarts per `k`.
    pub n_init: u32,
    /// Lloyd iteration cap.
    pub max_iter: u32,
    /// Master seed (projection and clustering).
    pub seed: u64,
}

fn time_ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

/// Regenerates the BBV input set: `503.bwaves_r`, or the smaller
/// `505.mcf_r` in quick mode, so every checkout measures the same input.
///
/// Slice size scales with `options.scale`, so the slice *count* equals the
/// full-scale benchmark's; quick mode coarsens slices 16x on top of that.
pub fn prepare_input(options: &PerfOptions) -> PerfInput {
    let id = if options.quick {
        BenchmarkId::McfR
    } else {
        BenchmarkId::BwavesR
    };
    let program = benchmark(id).scaled(options.scale).build();
    let full_slice: u64 = if options.quick { 160_000 } else { 10_000 };
    let config = PinPointsConfig {
        slice_size: options.scale.apply(full_slice).max(1),
        ..PinPointsConfig::default()
    };
    let (bbvs, _, _) = Pipeline::new(config).profile_jobs(&program, sampsim_exec::SERIAL);
    let sp = SimPointOptions::default();
    // Quick mode sweeps a few small k's as a smoke test; measurement mode
    // runs the restart sweep at MaxK itself, where the paper's pipeline
    // spends its clustering time.
    let ks: Vec<usize> = if options.quick {
        vec![2, 5, 8]
    } else {
        vec![sp.max_k]
    };
    let n = bbvs.len();
    let mut ks: Vec<usize> = ks.into_iter().filter(|&k| k <= n).collect();
    if ks.is_empty() {
        ks.push(1);
    }
    PerfInput {
        benchmark: id.name().to_string(),
        bbvs,
        dim: sp.dim,
        ks,
        n_init: sp.n_init,
        max_iter: sp.max_iter,
        seed: sp.seed,
    }
}

fn ensure_identical(a: &KmeansResult, b: &KmeansResult, what: &str) -> Result<(), PerfError> {
    let same = a.k == b.k
        && a.iterations == b.iterations
        && a.assignments == b.assignments
        && a.inertia.to_bits() == b.inertia.to_bits()
        && a.centroids.len() == b.centroids.len()
        && a.centroids
            .iter()
            .zip(&b.centroids)
            .all(|(x, y)| x.to_bits() == y.to_bits());
    if same {
        Ok(())
    } else {
        Err(PerfError::Mismatch(format!("kmeans {what}")))
    }
}

/// Times the full clustering sweep — naive serial
/// [`kmeans_best_of_reference`] vs the bounds-pruned parallel-restart
/// [`kmeans_best_of_jobs`] — over every `k` in `input.ks`, asserting
/// each pair of winners bit-identical. The assertion doubles as the
/// determinism proof for `jobs`: whatever the worker count, the
/// optimized side must reproduce the serial naive result bit for bit.
///
/// # Errors
///
/// [`PerfError::Kmeans`] on invalid input, [`PerfError::Mismatch`] if the
/// pruned kernel ever diverges.
pub fn kmeans_sweep_kernel(
    data: &[f64],
    input: &PerfInput,
    reps: u32,
    jobs: Jobs,
) -> Result<KernelTiming, PerfError> {
    let n = input.bbvs.len();
    let dim = input.dim;
    // Each side is timed `reps` times and the minimum kept — the runs are
    // deterministic, so the minimum is the least-perturbed measurement.
    let mut naive = Vec::new();
    let mut reference_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(|| -> Result<Vec<KmeansResult>, KmeansError> {
            input
                .ks
                .iter()
                .map(|&k| {
                    kmeans_best_of_reference(
                        data,
                        n,
                        dim,
                        k,
                        input.max_iter,
                        input.seed,
                        input.n_init,
                    )
                })
                .collect()
        });
        naive = r?;
        reference_ms = reference_ms.min(ms);
    }
    let mut pruned = Vec::new();
    let mut optimized_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (r, ms) = time_ms(|| -> Result<Vec<KmeansResult>, KmeansError> {
            input
                .ks
                .iter()
                .map(|&k| {
                    kmeans_best_of_jobs(
                        data,
                        n,
                        dim,
                        k,
                        input.max_iter,
                        input.seed,
                        input.n_init,
                        jobs,
                    )
                })
                .collect()
        });
        pruned = r?;
        optimized_ms = optimized_ms.min(ms);
    }
    for ((a, b), &k) in naive.iter().zip(&pruned).zip(&input.ks) {
        ensure_identical(a, b, &format!("k={k}"))?;
    }
    let last_inertia = pruned.last().map_or(0.0, |r| r.inertia);
    Ok(KernelTiming {
        name: "kmeans_sweep",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("points", n as f64),
            ("dim", dim as f64),
            ("max_k", input.ks.iter().copied().max().unwrap_or(0) as f64),
            ("sweep_len", input.ks.len() as f64),
            ("n_init", f64::from(input.n_init)),
            ("final_inertia", last_inertia),
        ],
    })
}

/// Times BBV projection — the per-slice clone-and-project baseline vs the
/// sparse batched [`RandomProjection::project_all_normalized`] — and
/// asserts the outputs bit-identical.
///
/// # Errors
///
/// [`PerfError::Mismatch`] if the batched path diverges.
pub fn projection_kernel(input: &PerfInput, reps: u32) -> Result<KernelTiming, PerfError> {
    let projection = RandomProjection::new(input.dim, input.seed);
    // Min-of-reps on both sides: every rep is the same deterministic pass,
    // so the minimum is the least-perturbed measurement on a noisy host and
    // the reported ns/BBV stays comparable across runs.
    let mut baseline = Vec::new();
    let mut reference_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (_, ms) = time_ms(|| {
            baseline.clear();
            for bbv in &input.bbvs {
                baseline.extend(projection.project(&bbv.normalized()));
            }
        });
        reference_ms = reference_ms.min(ms);
    }
    let mut batched = Vec::new();
    let mut optimized_ms = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let (out, ms) = time_ms(|| projection.project_all_normalized(&input.bbvs));
        batched = out;
        optimized_ms = optimized_ms.min(ms);
    }
    if baseline.len() != batched.len()
        || baseline
            .iter()
            .zip(&batched)
            .any(|(a, b)| a.to_bits() != b.to_bits())
    {
        return Err(PerfError::Mismatch("bbv projection".to_string()));
    }
    let checksum: f64 = batched.iter().sum();
    Ok(KernelTiming {
        name: "bbv_projection",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("bbvs", input.bbvs.len() as f64),
            ("dim", input.dim as f64),
            ("reps", f64::from(reps)),
            (
                "ns_per_bbv",
                optimized_ms * 1e6 / input.bbvs.len().max(1) as f64,
            ),
            ("checksum", checksum),
        ],
    })
}

/// Times the [`Cache::access`] probe loop: a seeded random address
/// stream over a 128 KiB working set against a 32 KiB 8-way
/// LRU cache (misses exercise the victim path). The packed kernel is
/// timed against the frozen pre-optimization [`ReferenceCache`] on the
/// identical access stream, with the hit counters asserted equal — the
/// fast path's counters are bit-identical by contract.
///
/// Each side is timed `reps` times (fresh simulator, identical stream)
/// and the minimum kept — the loops are deterministic, so the minimum is
/// the least-perturbed measurement.
///
/// # Errors
///
/// [`PerfError::Mismatch`] if the packed cache's hit count ever differs
/// from the reference model's.
pub fn cache_kernel(accesses: u64, reps: u32) -> Result<KernelTiming, PerfError> {
    let config = CacheConfig::new(32 << 10, 8, 64, 1);
    let mut reference_ms = f64::INFINITY;
    let mut ref_hits = 0u64;
    for _ in 0..reps.max(1) {
        let mut reference = ReferenceCache::new(config);
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        let mut run_hits = 0u64;
        let (_, ms) = time_ms(|| {
            for _ in 0..accesses {
                let addr = rng.next_u64() & 0x1_FFFF;
                run_hits += u64::from(reference.access(addr, true));
            }
        });
        reference_ms = reference_ms.min(ms);
        ref_hits = run_hits;
    }
    let mut optimized_ms = f64::INFINITY;
    let mut hits = 0u64;
    for _ in 0..reps.max(1) {
        let mut cache = Cache::new(config);
        let mut rng = SplitMix64::new(0xC0FF_EE00);
        let mut run_hits = 0u64;
        let (_, ms) = time_ms(|| {
            for _ in 0..accesses {
                let addr = rng.next_u64() & 0x1_FFFF;
                // Branchless accumulation: a data-dependent branch here
                // would mispredict on every fourth access and dominate
                // the timing.
                run_hits += u64::from(cache.access(addr, true));
            }
        });
        optimized_ms = optimized_ms.min(ms);
        hits = run_hits;
    }
    if hits != ref_hits {
        return Err(PerfError::Mismatch(format!(
            "cache hits: packed {hits}, reference {ref_hits}"
        )));
    }
    Ok(KernelTiming {
        name: "cache_access_rw",
        reference_ms: Some(reference_ms),
        optimized_ms,
        speedup: Some(reference_ms / optimized_ms),
        details: vec![
            ("accesses", accesses as f64),
            ("ns_per_access", optimized_ms * 1e6 / accesses as f64),
            ("hits", hits as f64),
        ],
    })
}

/// Current peak resident-set size (`VmHWM`) in bytes, from
/// `/proc/self/status`. `None` on platforms without procfs.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Runs the whole harness: input regeneration and all three kernels.
/// `progress` receives one human-readable line per completed stage.
///
/// # Errors
///
/// As the individual stages.
pub fn run_kernels(
    options: &PerfOptions,
    mut progress: impl FnMut(&str),
) -> Result<PerfReport, PerfError> {
    let input = prepare_input(options);
    progress(&format!(
        "regenerated {} BBV slices from {} (sweep ks = {:?}, {} restarts, {} jobs)",
        input.bbvs.len(),
        input.benchmark,
        input.ks,
        input.n_init,
        options.jobs.get()
    ));
    let projection = RandomProjection::new(input.dim, input.seed);
    let data = projection.project_all_normalized(&input.bbvs);

    let kmeans = kmeans_sweep_kernel(
        &data,
        &input,
        if options.quick { 1 } else { 3 },
        options.jobs,
    )?;
    progress(&format!(
        "kmeans_sweep: {:.1} ms reference, {:.1} ms pruned ({:.2}x)",
        kmeans.reference_ms.unwrap_or(0.0),
        kmeans.optimized_ms,
        kmeans.speedup.unwrap_or(0.0)
    ));

    let reps = if options.quick { 5 } else { 3 };
    let proj = projection_kernel(&input, reps)?;
    progress(&format!(
        "bbv_projection: {:.1} ms baseline, {:.1} ms sparse ({:.2}x)",
        proj.reference_ms.unwrap_or(0.0),
        proj.optimized_ms,
        proj.speedup.unwrap_or(0.0)
    ));

    let accesses = if options.quick { 1_000_000 } else { 16_000_000 };
    let cache = cache_kernel(accesses, if options.quick { 3 } else { 5 })?;
    progress(&format!(
        "cache_access_rw: {:.1} ms packed vs {:.1} ms reference model for {} accesses ({:.2}x)",
        cache.optimized_ms,
        cache.reference_ms.unwrap_or(0.0),
        accesses,
        cache.speedup.unwrap_or(0.0)
    ));

    Ok(PerfReport {
        benchmark: input.benchmark,
        quick: options.quick,
        num_slices: input.bbvs.len() as u64,
        dim: input.dim,
        kernels: vec![kmeans, proj, cache],
    })
}

impl PerfReport {
    /// Renders the report as a JSON document in the shape [`schema`]
    /// declares (hand-assembled; floats go through [`num`] like every
    /// sampsim writer).
    pub fn to_json(&self) -> String {
        let kernels: Vec<String> = self
            .kernels
            .iter()
            .map(|k| {
                let mut fields = vec![format!("\"name\":\"{}\"", k.name)];
                if let Some(r) = k.reference_ms {
                    fields.push(format!("\"reference_ms\":{}", num(r)));
                }
                fields.push(format!("\"optimized_ms\":{}", num(k.optimized_ms)));
                if let Some(s) = k.speedup {
                    fields.push(format!("\"speedup\":{}", num(s)));
                }
                let details: Vec<String> = k
                    .details
                    .iter()
                    .map(|(name, v)| format!("\"{name}\":{}", num(*v)))
                    .collect();
                fields.push(format!("\"details\":{{{}}}", details.join(",")));
                format!("{{{}}}", fields.join(","))
            })
            .collect();
        format!(
            "{{\"schema\":\"{}\",\"benchmark\":\"{}\",\"quick\":{},\"num_slices\":{},\"dim\":{},\"kernels\":[{}]}}\n",
            SCHEMA,
            self.benchmark,
            self.quick,
            self.num_slices,
            self.dim,
            kernels.join(",")
        )
    }
}

/// The `sampsim-perf-kernels/v3` document [`PerfReport::to_json`]
/// renders: a reference timing and speedup on every kernel.
pub const fn schema() -> &'static Shape {
    const KERNELS: &[&str] = &["kmeans_sweep", "bbv_projection", "cache_access_rw"];
    const KERNEL: Shape = Shape::Object(&[
        ("name", Shape::OneOf(KERNELS)),
        ("reference_ms", Shape::Num(Bound::Any)),
        ("optimized_ms", Shape::Num(Bound::AtLeast(0.0))),
        ("speedup", Shape::Num(Bound::Above(0.0))),
        ("details", Shape::Map(&Shape::Num(Bound::Any))),
    ]);
    const SHAPE: Shape = Shape::Object(&[
        ("schema", Shape::OneOf(&[SCHEMA])),
        ("benchmark", Shape::Text),
        ("quick", Shape::Bool),
        ("num_slices", Shape::Num(Bound::Any)),
        ("dim", Shape::Num(Bound::Any)),
        ("kernels", Shape::Array(&KERNEL, 0, Some(("name", KERNELS)))),
    ]);
    &SHAPE
}

/// Validates a `BENCH_kernels.json` document against [`schema`].
///
/// # Errors
///
/// A description of the first problem found, by its path.
pub fn validate_report(text: &str) -> Result<(), String> {
    schema().parse(text).map(drop)
}

fn detail(kernel: &Value, key: &str) -> Option<f64> {
    kernel.get("details")?.get(key)?.as_f64()
}

fn kernel_by_name<'a>(doc: &'a Value, name: &str) -> Option<&'a Value> {
    doc.get("kernels")?
        .as_array()?
        .iter()
        .find(|k| k.get("name").and_then(Value::as_str) == Some(name))
}

fn check_rate(
    what: &str,
    new_rate: f64,
    base_rate: f64,
    compared: &mut Vec<String>,
    failures: &mut Vec<String>,
) {
    if !(new_rate.is_finite() && base_rate.is_finite() && base_rate > 0.0) {
        return;
    }
    let ratio = new_rate / base_rate;
    if ratio > REGRESSION_TOLERANCE {
        failures.push(format!(
            "{what}: {new_rate:.2} vs baseline {base_rate:.2} ({ratio:.2}x, \
             tolerance {REGRESSION_TOLERANCE:.2}x)"
        ));
    } else {
        compared.push(format!("{what}: {ratio:.2}x of baseline"));
    }
}

/// Compares a fresh report against a committed baseline and fails on any
/// size-normalized rate regressing by more than [`REGRESSION_TOLERANCE`].
///
/// Only size-normalized figures are compared. The cache probe's ns per
/// access is size-independent, so a quick run can be gated against a
/// full baseline on it. Projection's ns per BBV is compared only between
/// same-sized runs, and the k-means sweep only when both reports ran the
/// same shape (same slice count and sweep), since its cost is
/// superlinear in both.
///
/// # Errors
///
/// A parse/shape problem in either document, every regressing metric
/// (joined), or "nothing comparable" when no metric matched — a silently
/// green gate that compared nothing would be worse than a red one.
pub fn compare_reports(new_text: &str, baseline_text: &str) -> Result<Vec<String>, String> {
    let new_doc = json::parse(new_text).map_err(|e| format!("new report: {e}"))?;
    let base_doc = json::parse(baseline_text).map_err(|e| format!("baseline report: {e}"))?;
    let mut compared = Vec::new();
    let mut failures = Vec::new();

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "cache_access_rw"),
        kernel_by_name(&base_doc, "cache_access_rw"),
    ) {
        if let (Some(nr), Some(br)) = (detail(n, "ns_per_access"), detail(b, "ns_per_access")) {
            check_rate("cache ns_per_access", nr, br, &mut compared, &mut failures);
        }
    }

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "bbv_projection"),
        kernel_by_name(&base_doc, "bbv_projection"),
    ) {
        // Per-BBV cost is size-dependent (fixed overhead dominates small
        // inputs), so only same-sized runs are comparable — a quick run
        // against a full baseline skips this rate.
        if detail(n, "bbvs").is_some() && detail(n, "bbvs") == detail(b, "bbvs") {
            if let (Some(nr), Some(br)) = (detail(n, "ns_per_bbv"), detail(b, "ns_per_bbv")) {
                check_rate(
                    "projection ns_per_bbv",
                    nr,
                    br,
                    &mut compared,
                    &mut failures,
                );
            }
        }
    }

    if let (Some(n), Some(b)) = (
        kernel_by_name(&new_doc, "kmeans_sweep"),
        kernel_by_name(&base_doc, "kmeans_sweep"),
    ) {
        let shape = |k: &Value| -> Option<(u64, u64, u64, u64)> {
            Some((
                detail(k, "points")? as u64,
                detail(k, "max_k")? as u64,
                detail(k, "sweep_len")? as u64,
                detail(k, "n_init")? as u64,
            ))
        };
        if shape(n).is_some() && shape(n) == shape(b) {
            if let (Some(nm), Some(bm)) = (
                n.get("optimized_ms").and_then(Value::as_f64),
                b.get("optimized_ms").and_then(Value::as_f64),
            ) {
                check_rate("kmeans_sweep ms", nm, bm, &mut compared, &mut failures);
            }
        }
    }

    if !failures.is_empty() {
        return Err(format!("perf regression:\n  {}", failures.join("\n  ")));
    }
    if compared.is_empty() {
        return Err("nothing comparable between the reports".to_string());
    }
    Ok(compared)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_util::rng::Xoshiro256StarStar;

    fn tiny_input() -> PerfInput {
        // Synthetic BBVs: enough phase structure for clustering to do
        // real work, small enough to keep the test fast.
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let bbvs: Vec<Bbv> = (0..60)
            .map(|i| {
                let base = (i / 20) * 50;
                let counts: Vec<(u32, u32)> = (0..10)
                    .map(|j| (base + j * 3, 1 + (rng.next_u64() % 40) as u32))
                    .collect();
                Bbv::from_counts(counts)
            })
            .collect();
        PerfInput {
            benchmark: "synthetic".to_string(),
            bbvs,
            dim: 8,
            ks: vec![2, 3],
            n_init: 2,
            max_iter: 40,
            seed: 0xBEEF,
        }
    }

    #[test]
    fn kernels_run_and_report_validates() {
        let input = tiny_input();
        let projection = RandomProjection::new(input.dim, input.seed);
        let data = projection.project_all_normalized(&input.bbvs);
        let kmeans = kmeans_sweep_kernel(&data, &input, 2, Jobs::Auto).unwrap();
        assert!(kmeans.speedup.is_some());
        let proj = projection_kernel(&input, 2).unwrap();
        assert!(proj.reference_ms.is_some());
        let cache = cache_kernel(50_000, 2).unwrap();
        assert!(cache.reference_ms.is_some());
        assert!(cache.speedup.is_some());
        let hits = cache
            .details
            .iter()
            .find(|(n, _)| *n == "hits")
            .map(|(_, v)| *v)
            .unwrap();
        assert!(hits > 0.0, "some accesses must hit");

        let report = PerfReport {
            benchmark: input.benchmark.clone(),
            quick: true,
            num_slices: input.bbvs.len() as u64,
            dim: input.dim,
            kernels: vec![kmeans, proj, cache],
        };
        let text = report.to_json();
        validate_report(&text).unwrap();
        // A report is always within tolerance of itself, and a same-sized
        // report compares every kernel.
        let compared = compare_reports(&text, &text).unwrap();
        assert_eq!(compared.len(), 3, "{compared:?}");
    }

    #[test]
    fn kmeans_sweep_is_job_count_invariant() {
        // The sweep asserts the parallel winner bit-identical to the
        // serial naive reference internally; running it at two explicit
        // worker counts proves the jobs knob cannot perturb results.
        let input = tiny_input();
        let projection = RandomProjection::new(input.dim, input.seed);
        let data = projection.project_all_normalized(&input.bbvs);
        for jobs in [sampsim_exec::SERIAL, Jobs::new(2).unwrap(), Jobs::Auto] {
            kmeans_sweep_kernel(&data, &input, 1, jobs).unwrap();
        }
    }

    #[test]
    fn cache_kernel_checksum_is_deterministic() {
        let a = cache_kernel(20_000, 1).unwrap();
        let b = cache_kernel(20_000, 1).unwrap();
        let hits = |k: &KernelTiming| {
            k.details
                .iter()
                .find(|(n, _)| *n == "hits")
                .map(|(_, v)| *v)
                .unwrap()
        };
        assert_eq!(hits(&a).to_bits(), hits(&b).to_bits());
    }

    #[test]
    fn validate_rejects_broken_reports() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{}").is_err());
        let wrong_schema = r#"{"schema":"other/v9","benchmark":"x","num_slices":1,"kernels":[]}"#;
        assert!(validate_report(wrong_schema)
            .unwrap_err()
            .contains("schema"));
        let kernel = |name: &str| {
            format!(
                r#"{{"name":"{name}","reference_ms":2.0,"optimized_ms":1.0,"speedup":2.0,"details":{{}}}}"#
            )
        };
        let missing_kernel = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[{}]}}"#,
            kernel("cache_access_rw")
        );
        assert!(validate_report(&missing_kernel)
            .unwrap_err()
            .contains("kmeans_sweep"));
        // Every kernel carries a speedup, the cache probe included.
        let no_speedup = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[
                {},{},
                {{"name":"cache_access_rw","optimized_ms":1.0,"details":{{}}}}]}}"#,
            kernel("kmeans_sweep"),
            kernel("bbv_projection"),
        );
        assert!(validate_report(&no_speedup)
            .unwrap_err()
            .contains("speedup"));
        // v3 carries no scaling grid.
        let with_scaling = format!(
            r#"{{"schema":"{SCHEMA}","benchmark":"x","quick":true,"num_slices":1,"dim":2,"kernels":[{},{},{}],"scaling":[]}}"#,
            kernel("kmeans_sweep"),
            kernel("bbv_projection"),
            kernel("cache_access_rw"),
        );
        assert!(validate_report(&with_scaling)
            .unwrap_err()
            .contains("unknown key \"scaling\""));
    }

    #[test]
    fn compare_reports_gates_regressions() {
        let doc = |cache_ns: f64| {
            format!(
                r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[
                    {{"name":"cache_access_rw","reference_ms":2.0,"optimized_ms":1.0,"speedup":2.0,
                      "details":{{"accesses":1000,"ns_per_access":{cache_ns},"hits":10}}}}]}}"#
            )
        };
        // Identical and slightly-faster reports pass...
        compare_reports(&doc(13.0), &doc(13.0)).unwrap();
        compare_reports(&doc(12.0), &doc(13.0)).unwrap();
        // ...a >10% slowdown fails...
        let err = compare_reports(&doc(15.0), &doc(13.0)).unwrap_err();
        assert!(err.contains("cache ns_per_access"), "{err}");
        // ...and a baseline sharing no metric is an error, not a silent
        // pass.
        let other =
            format!(r#"{{"schema":"{SCHEMA}","benchmark":"x","num_slices":1,"kernels":[]}}"#);
        assert!(compare_reports(&doc(13.0), &other)
            .unwrap_err()
            .contains("nothing comparable"));
    }

    #[test]
    fn prepare_input_measures_fixed_benchmarks() {
        // The committed BENCH_kernels.json and a clean checkout's quick
        // run read these names and slice counts; no local state moves them.
        for (quick, name, slices) in [(true, "505.mcf_r", 600), (false, "503.bwaves_r", 25_601)] {
            let input = prepare_input(&PerfOptions {
                quick,
                scale: Scale::new(0.01),
                ..PerfOptions::default()
            });
            assert_eq!((input.benchmark.as_str(), input.bbvs.len()), (name, slices));
        }
    }
}
