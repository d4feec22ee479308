//! Lloyd's k-means with k-means++ seeding and triangle-inequality pruning.
//!
//! Operates on a flat row-major matrix of projected BBVs. Deterministic for
//! a given seed; empty clusters are reseeded to the point farthest from its
//! centroid so every requested cluster survives when the data supports it.
//!
//! Two kernels compute the same function:
//!
//! * [`kmeans`] — the production kernel. It carries Hamerly-style
//!   per-point bounds (an upper bound on the distance to the assigned
//!   centroid, a lower bound on the distance to every other centroid) plus
//!   inter-centroid half-distances, so most points skip the k-way distance
//!   scan once the iteration settles. Every distance it *does* compute and
//!   every centroid update uses the exact `sq_dist` and summation order of
//!   the naive code, and a skip is taken only when the bounds prove — with
//!   a safety margin far above accumulated floating-point error — that the
//!   naive scan's argmin could not differ. Assignments, centroids, inertia
//!   and iteration counts are therefore **bit-identical** to the reference.
//! * [`kmeans_reference`] — the naive full-scan Lloyd kernel, kept verbatim
//!   as the differential-testing oracle (see `tests/property_tests.rs` and
//!   the `pruned_matches_reference_*` tests below).
//!
//! The SimPoint analysis clusters only through [`kmeans_best_of_jobs`]:
//! the production kernel with `n_init` seeded restarts fanned out over
//! workers, so every selection is bit-reproducible.
//!
//! See `docs/performance.md` for the pruning invariants and the
//! bit-identity argument.

use sampsim_exec::{try_parallel_map, Jobs, SERIAL};
use sampsim_util::rng::Xoshiro256StarStar;
use std::fmt;

/// Invalid input to [`kmeans`] / [`kmeans_best_of`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KmeansError {
    /// No points to cluster (`n == 0`).
    NoPoints,
    /// Zero-dimensional points (`dim == 0`).
    ZeroDim,
    /// Zero clusters requested (`k == 0`).
    ZeroK,
    /// Zero restarts requested (`n_init == 0`).
    ZeroInit,
    /// `data.len()` does not equal `n * dim`.
    ShapeMismatch {
        /// `n * dim`.
        expected: usize,
        /// `data.len()`.
        got: usize,
    },
}

impl fmt::Display for KmeansError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KmeansError::NoPoints => write!(f, "k-means needs at least one point"),
            KmeansError::ZeroDim => write!(f, "k-means needs at least one dimension"),
            KmeansError::ZeroK => write!(f, "k-means needs at least one cluster"),
            KmeansError::ZeroInit => write!(f, "k-means needs at least one restart"),
            KmeansError::ShapeMismatch { expected, got } => {
                write!(
                    f,
                    "data shape mismatch: expected n * dim = {expected} values, got {got}"
                )
            }
        }
    }
}

impl std::error::Error for KmeansError {}

/// Result of one k-means run.
#[derive(Debug, Clone, PartialEq)]
pub struct KmeansResult {
    /// Number of clusters requested.
    pub k: usize,
    /// Cluster assignment per point.
    pub assignments: Vec<u32>,
    /// Flat row-major centroid matrix (`k * dim`).
    pub centroids: Vec<f64>,
    /// Sum of squared distances of points to their centroids.
    pub inertia: f64,
    /// Lloyd iterations executed.
    pub iterations: u32,
    /// Points per cluster, computed once from the final assignments.
    sizes: Vec<u64>,
}

impl KmeansResult {
    /// Assembles a result, counting cluster sizes once so the accessors
    /// below never allocate.
    fn assemble(
        k: usize,
        assignments: Vec<u32>,
        centroids: Vec<f64>,
        inertia: f64,
        iterations: u32,
    ) -> Self {
        let mut sizes = vec![0u64; k];
        for &a in &assignments {
            sizes[a as usize] += 1;
        }
        Self {
            k,
            assignments,
            centroids,
            inertia,
            iterations,
            sizes,
        }
    }

    /// Cluster sizes (points per cluster). Precomputed; no allocation.
    pub fn cluster_sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Number of clusters that actually contain points.
    pub fn occupied_clusters(&self) -> usize {
        self.sizes.iter().filter(|&&s| s > 0).count()
    }

    /// Average intra-cluster variance: inertia divided by point count
    /// (the Fig. 4 metric).
    pub fn avg_variance(&self) -> f64 {
        if self.assignments.is_empty() {
            0.0
        } else {
            self.inertia / self.assignments.len() as f64
        }
    }
}

#[inline]
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn validate(data: &[f64], n: usize, dim: usize, k: usize) -> Result<(), KmeansError> {
    if k == 0 {
        return Err(KmeansError::ZeroK);
    }
    if dim == 0 {
        return Err(KmeansError::ZeroDim);
    }
    if n == 0 {
        return Err(KmeansError::NoPoints);
    }
    if data.len() != n * dim {
        return Err(KmeansError::ShapeMismatch {
            expected: n * dim,
            got: data.len(),
        });
    }
    Ok(())
}

/// Naive full-scan Lloyd update step: recompute every centroid as the mean
/// of its members (point-order summation), reseeding empty clusters at the
/// point farthest from its own centroid. `sums`/`counts` are caller-owned
/// scratch; `centroids` is mutated in place exactly as the reference kernel
/// does — in particular, the reseed scan for an empty cluster `c` sees the
/// already-updated centroids of clusters `< c` and the stale centroids of
/// clusters `>= c`.
#[allow(clippy::too_many_arguments)]
fn update_centroids(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    assignments: &[u32],
    centroids: &mut [f64],
    sums: &mut [f64],
    counts: &mut [u64],
) {
    sums.fill(0.0);
    counts.fill(0);
    for i in 0..n {
        let c = assignments[i] as usize;
        counts[c] += 1;
        let p = &data[i * dim..(i + 1) * dim];
        for (s, &v) in sums[c * dim..(c + 1) * dim].iter_mut().zip(p) {
            *s += v;
        }
    }
    for c in 0..k {
        if counts[c] == 0 {
            // Reseed an empty cluster at the point farthest from its
            // current centroid.
            let mut far = 0usize;
            let mut far_d = -1.0;
            for i in 0..n {
                let p = &data[i * dim..(i + 1) * dim];
                let c_own = assignments[i] as usize;
                let d = sq_dist(p, &centroids[c_own * dim..(c_own + 1) * dim]);
                if d > far_d {
                    far_d = d;
                    far = i;
                }
            }
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&data[far * dim..(far + 1) * dim]);
        } else {
            for (cc, s) in centroids[c * dim..(c + 1) * dim]
                .iter_mut()
                .zip(&sums[c * dim..(c + 1) * dim])
            {
                *cc = s / counts[c] as f64;
            }
        }
    }
}

/// The naive full-scan Lloyd kernel: every iteration computes all `n * k`
/// distances. Kept as the differential-testing oracle for [`kmeans`];
/// identical output, no pruning.
///
/// # Errors
///
/// Returns a [`KmeansError`] if `k` is zero, `dim` is zero,
/// `data.len() != n * dim`, or there are no points.
pub fn kmeans_reference(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> Result<KmeansResult, KmeansError> {
    validate(data, n, dim, k)?;
    let k = k.min(n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, n, dim, k, &mut rng);
    let mut assignments = vec![0u32; n];
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];
    for iter in 0..max_iter {
        iterations = iter + 1;
        // Assignment step.
        let mut changed = false;
        let mut new_inertia = 0.0;
        for i in 0..n {
            let p = &data[i * dim..(i + 1) * dim];
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            for c in 0..k {
                let d = sq_dist(p, &centroids[c * dim..(c + 1) * dim]);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            new_inertia += best_d;
        }
        inertia = new_inertia;
        if !changed && iter > 0 {
            break;
        }
        update_centroids(
            data,
            n,
            dim,
            k,
            &assignments,
            &mut centroids,
            &mut sums,
            &mut counts,
        );
    }
    Ok(KmeansResult::assemble(
        k,
        assignments,
        centroids,
        inertia,
        iterations,
    ))
}

/// Half the distance from each centroid to its nearest other centroid
/// (Hamerly's `s(c)`; infinite for `k == 1`).
fn half_dists(centroids: &[f64], k: usize, dim: usize, out: &mut [f64]) {
    for c in 0..k {
        let mut m = f64::INFINITY;
        for o in 0..k {
            if o == c {
                continue;
            }
            let d = sq_dist(
                &centroids[c * dim..(c + 1) * dim],
                &centroids[o * dim..(o + 1) * dim],
            );
            if d < m {
                m = d;
            }
        }
        out[c] = 0.5 * m.sqrt();
    }
}

/// Runs k-means on `n` points of `dim` dimensions stored row-major in
/// `data`.
///
/// This is the bounds-pruned kernel; it returns output bit-identical to
/// [`kmeans_reference`] (see the module docs for the argument) while
/// skipping the k-way distance scan for points whose bounds prove the
/// assignment cannot change.
///
/// # Errors
///
/// Returns a [`KmeansError`] if `k` is zero, `dim` is zero,
/// `data.len() != n * dim`, or there are no points.
pub fn kmeans(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> Result<KmeansResult, KmeansError> {
    validate(data, n, dim, k)?;
    let k = k.min(n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, n, dim, k, &mut rng);
    let mut assignments = vec![0u32; n];
    let mut iterations = 0;
    let mut inertia = f64::INFINITY;

    // Pruning state. `upper[i]` bounds the Euclidean distance from point i
    // to its assigned centroid from above; `lower[i]` bounds the distance
    // to every *other* centroid from below. Both start vacuous so the
    // first iteration scans everything, exactly like the reference.
    let mut upper = vec![f64::INFINITY; n];
    let mut lower = vec![f64::NEG_INFINITY; n];
    let mut half = vec![0.0f64; k];
    let mut drift = vec![0.0f64; k];
    // Scratch reused across iterations (the reference allocates per
    // iteration; zero-filled scratch holds the same values).
    let mut old_centroids = vec![0.0f64; k * dim];
    let mut sums = vec![0.0f64; k * dim];
    let mut counts = vec![0u64; k];

    // A skip is taken only when a bound gap exceeds `eps`, an absolute
    // margin scaled to the data's magnitude. Accumulated floating-point
    // error in the bounds is below ~1e-13 of the distance scale, so a
    // 1e-9-of-scale margin certifies the reference argmin is unchanged
    // (ties — e.g. duplicate centroids — never show a gap above eps and
    // always fall through to the full scan).
    let radius = (0..n)
        .map(|i| {
            data[i * dim..(i + 1) * dim]
                .iter()
                .map(|x| x * x)
                .sum::<f64>()
        })
        .fold(0.0f64, f64::max)
        .sqrt();
    let eps = 1e-9 * (1.0 + 2.0 * radius);

    for iter in 0..max_iter {
        iterations = iter + 1;
        half_dists(&centroids, k, dim, &mut half);
        let mut changed = false;
        for i in 0..n {
            let a = assignments[i] as usize;
            let bound = half[a].max(lower[i]);
            if bound - upper[i] > eps {
                continue;
            }
            let p = &data[i * dim..(i + 1) * dim];
            // Tightening pass: replace the drift-inflated upper bound by
            // the exact distance to the assigned centroid. Pointless on
            // the first visit (upper is vacuous INFINITY), so skip it
            // there; the squared distance is kept for reuse in the scan.
            let mut d_a = f64::INFINITY;
            if upper[i].is_finite() {
                d_a = sq_dist(p, &centroids[a * dim..(a + 1) * dim]);
                let tight = d_a.sqrt();
                upper[i] = tight;
                if bound - tight > eps {
                    continue;
                }
            }
            // Full scan in reference order: strict `<` keeps the first
            // minimum, and the second-smallest distance refreshes the
            // lower bound. The assigned centroid's distance is the value
            // just computed — same inputs, same call, same bits.
            let mut best = 0u32;
            let mut best_d = f64::INFINITY;
            let mut second_d = f64::INFINITY;
            for c in 0..k {
                let d = if c == a && d_a.is_finite() {
                    d_a
                } else {
                    sq_dist(p, &centroids[c * dim..(c + 1) * dim])
                };
                if d < best_d {
                    second_d = best_d;
                    best_d = d;
                    best = c as u32;
                } else if d < second_d {
                    second_d = d;
                }
            }
            if assignments[i] != best {
                assignments[i] = best;
                changed = true;
            }
            upper[i] = best_d.sqrt();
            lower[i] = second_d.sqrt();
        }
        // The reference overwrites its inertia every iteration, so only
        // the final assignment pass's value survives. Reproduce exactly
        // that value — the same `sq_dist` calls summed in the same point
        // order — on the pass the reference would have exited from.
        let final_pass = (!changed && iter > 0) || iter + 1 == max_iter;
        if final_pass {
            let mut total = 0.0;
            for i in 0..n {
                let p = &data[i * dim..(i + 1) * dim];
                let a = assignments[i] as usize;
                total += sq_dist(p, &centroids[a * dim..(a + 1) * dim]);
            }
            inertia = total;
        }
        if !changed && iter > 0 {
            break;
        }
        old_centroids.copy_from_slice(&centroids);
        update_centroids(
            data,
            n,
            dim,
            k,
            &assignments,
            &mut centroids,
            &mut sums,
            &mut counts,
        );
        // Bound maintenance: each upper bound inflates by its centroid's
        // drift. A lower bound deflates by the most any *other* centroid
        // can have moved: the largest drift overall, or the second
        // largest when the point's own centroid is the largest mover
        // (Hamerly's refinement — it keeps bounds tight through the big
        // single-centroid jumps that empty-cluster reseeds cause).
        let mut d1 = 0.0f64;
        let mut d2 = 0.0f64;
        let mut c1 = 0usize;
        for c in 0..k {
            let d = sq_dist(
                &old_centroids[c * dim..(c + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            )
            .sqrt();
            drift[c] = d;
            if d > d1 {
                d2 = d1;
                d1 = d;
                c1 = c;
            } else if d > d2 {
                d2 = d;
            }
        }
        for i in 0..n {
            let a = assignments[i] as usize;
            upper[i] += drift[a];
            lower[i] -= if a == c1 { d2 } else { d1 };
        }
    }
    Ok(KmeansResult::assemble(
        k,
        assignments,
        centroids,
        inertia,
        iterations,
    ))
}

/// k-means++ seeding (Arthur & Vassilvitskii, 2007).
fn plus_plus_init(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_below(n as u64) as usize;
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut dists: Vec<f64> = (0..n)
        .map(|i| sq_dist(&data[i * dim..(i + 1) * dim], &centroids[0..dim]))
        .collect();
    for c in 1..k {
        let total: f64 = dists.iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; any point works.
            rng.next_below(n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in dists.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.extend_from_slice(&data[chosen * dim..(chosen + 1) * dim]);
        for i in 0..n {
            let d = sq_dist(
                &data[i * dim..(i + 1) * dim],
                &centroids[c * dim..(c + 1) * dim],
            );
            if d < dists[i] {
                dists[i] = d;
            }
        }
    }
    centroids
}

/// Per-restart seed: the same derivation the serial loop has always used.
#[inline]
fn restart_seed(seed: u64, run: u32) -> u64 {
    seed.wrapping_add(u64::from(run) * 0x9E37)
}

/// Runs k-means `n_init` times with different derived seeds, returning the
/// run with the lowest inertia (ties broken by the lowest restart index).
///
/// Serial wrapper around [`kmeans_best_of_jobs`].
///
/// # Errors
///
/// As [`kmeans`]; additionally [`KmeansError::ZeroInit`] if `n_init` is
/// zero.
pub fn kmeans_best_of(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
) -> Result<KmeansResult, KmeansError> {
    kmeans_best_of_jobs(data, n, dim, k, max_iter, seed, n_init, SERIAL)
}

/// [`kmeans_best_of`] running every restart through the naive
/// [`kmeans_reference`] kernel — same seed schedule, same winner fold.
///
/// This is the baseline the perf harness times the pruned kernel against;
/// it must match [`kmeans_best_of`] bit-for-bit.
///
/// # Errors
///
/// As [`kmeans_best_of`].
pub fn kmeans_best_of_reference(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
) -> Result<KmeansResult, KmeansError> {
    if n_init == 0 {
        return Err(KmeansError::ZeroInit);
    }
    let mut best: Option<KmeansResult> = None;
    for run in 0..n_init {
        let r = kmeans_reference(data, n, dim, k, max_iter, restart_seed(seed, run))?;
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    Ok(best.expect("n_init > 0"))
}

/// [`kmeans_best_of`] with the restarts fanned out over `jobs` workers.
///
/// Restart results are collected in restart order and folded with the
/// strict `inertia <` rule, so the winner — lowest inertia, ties broken
/// by lowest restart index — is identical for every job count.
///
/// # Errors
///
/// As [`kmeans_best_of`].
#[allow(clippy::too_many_arguments)]
pub fn kmeans_best_of_jobs(
    data: &[f64],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
    n_init: u32,
    jobs: Jobs,
) -> Result<KmeansResult, KmeansError> {
    if n_init == 0 {
        return Err(KmeansError::ZeroInit);
    }
    let runs: Vec<u32> = (0..n_init).collect();
    let results = try_parallel_map(jobs, &runs, |_, &run| {
        kmeans(data, n, dim, k, max_iter, restart_seed(seed, run))
    })?;
    let mut best: Option<KmeansResult> = None;
    for r in results {
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    Ok(best.expect("n_init > 0"))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Three well-separated 2-D blobs.
    fn blobs() -> (Vec<f64>, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(99);
        let centers = [(0.0, 0.0), (10.0, 10.0), (-10.0, 10.0)];
        let mut data = Vec::new();
        for &(cx, cy) in &centers {
            for _ in 0..40 {
                data.push(cx + rng.next_f64() - 0.5);
                data.push(cy + rng.next_f64() - 0.5);
            }
        }
        (data, 120)
    }

    #[test]
    fn recovers_blobs() {
        let (data, n) = blobs();
        let r = kmeans(&data, n, 2, 3, 100, 1).unwrap();
        assert_eq!(r.occupied_clusters(), 3);
        let sizes = r.cluster_sizes();
        assert!(sizes.iter().all(|&s| s == 40), "sizes {sizes:?}");
        // Points in the same blob share a cluster.
        for blob in 0..3 {
            let first = r.assignments[blob * 40];
            assert!(r.assignments[blob * 40..(blob + 1) * 40]
                .iter()
                .all(|&a| a == first));
        }
        assert!(r.avg_variance() < 1.0);
    }

    #[test]
    fn k_capped_at_n() {
        let data = vec![0.0, 0.0, 1.0, 1.0];
        let r = kmeans(&data, 2, 2, 10, 50, 1).unwrap();
        assert_eq!(r.k, 2);
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn identical_points_one_cluster_zero_inertia() {
        let data = vec![3.0; 20]; // 10 identical 2-D points
        let r = kmeans(&data, 10, 2, 3, 50, 1).unwrap();
        assert_eq!(r.inertia, 0.0);
    }

    #[test]
    fn deterministic_for_seed() {
        let (data, n) = blobs();
        let a = kmeans(&data, n, 2, 3, 100, 5).unwrap();
        let b = kmeans(&data, n, 2, 3, 100, 5).unwrap();
        assert_eq!(a.assignments, b.assignments);
        assert_eq!(a.inertia, b.inertia);
    }

    #[test]
    fn more_clusters_never_increase_inertia_much() {
        let (data, n) = blobs();
        let k3 = kmeans_best_of(&data, n, 2, 3, 100, 1, 3).unwrap();
        let k6 = kmeans_best_of(&data, n, 2, 6, 100, 1, 3).unwrap();
        assert!(k6.inertia <= k3.inertia * 1.01);
    }

    #[test]
    fn best_of_picks_lowest_inertia() {
        let (data, n) = blobs();
        let single = kmeans(&data, n, 2, 3, 100, 1).unwrap();
        let multi = kmeans_best_of(&data, n, 2, 3, 100, 1, 5).unwrap();
        assert!(multi.inertia <= single.inertia + 1e-9);
    }

    #[test]
    fn invalid_inputs_are_typed_errors() {
        assert_eq!(
            kmeans(&[1.0, 2.0, 3.0], 2, 2, 1, 10, 1),
            Err(KmeansError::ShapeMismatch {
                expected: 4,
                got: 3
            })
        );
        assert_eq!(kmeans(&[], 0, 2, 1, 10, 1), Err(KmeansError::NoPoints));
        assert_eq!(kmeans(&[1.0], 1, 0, 1, 10, 1), Err(KmeansError::ZeroDim));
        assert_eq!(kmeans(&[1.0], 1, 1, 0, 10, 1), Err(KmeansError::ZeroK));
        assert_eq!(
            kmeans_best_of(&[1.0], 1, 1, 1, 10, 1, 0),
            Err(KmeansError::ZeroInit)
        );
        assert_eq!(
            kmeans_reference(&[], 0, 2, 1, 10, 1),
            Err(KmeansError::NoPoints)
        );
    }

    /// Asserts two results are bit-identical: every float compared by its
    /// bit pattern, not by `==`.
    pub(super) fn assert_bit_identical(a: &KmeansResult, b: &KmeansResult, what: &str) {
        assert_eq!(a.k, b.k, "{what}: k");
        assert_eq!(a.iterations, b.iterations, "{what}: iterations");
        assert_eq!(a.assignments, b.assignments, "{what}: assignments");
        assert_eq!(
            a.inertia.to_bits(),
            b.inertia.to_bits(),
            "{what}: inertia {:?} vs {:?}",
            a.inertia,
            b.inertia
        );
        assert_eq!(a.centroids.len(), b.centroids.len(), "{what}: centroid len");
        for (i, (x, y)) in a.centroids.iter().zip(&b.centroids).enumerate() {
            assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "{what}: centroid[{i}] {x:?} vs {y:?}"
            );
        }
        assert_eq!(a.cluster_sizes(), b.cluster_sizes(), "{what}: sizes");
    }

    fn random_matrix(seed: u64, n: usize, dim: usize, spread: f64) -> Vec<f64> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        (0..n * dim)
            .map(|_| (rng.next_f64() - 0.5) * spread)
            .collect()
    }

    #[test]
    fn pruned_matches_reference_on_blobs() {
        let (data, n) = blobs();
        for k in [1, 2, 3, 5, 8] {
            for seed in [0, 1, 7] {
                let p = kmeans(&data, n, 2, k, 100, seed).unwrap();
                let r = kmeans_reference(&data, n, 2, k, 100, seed).unwrap();
                assert_bit_identical(&p, &r, &format!("blobs k={k} seed={seed}"));
            }
        }
    }

    #[test]
    fn pruned_matches_reference_on_random_data() {
        for (n, dim, k) in [(50, 3, 4), (200, 15, 12), (33, 1, 33)] {
            let data = random_matrix(n as u64 * 31 + dim as u64, n, dim, 4.0);
            let p = kmeans(&data, n, dim, k, 60, 9).unwrap();
            let r = kmeans_reference(&data, n, dim, k, 60, 9).unwrap();
            assert_bit_identical(&p, &r, &format!("random n={n} dim={dim} k={k}"));
        }
    }

    #[test]
    fn pruned_matches_reference_with_duplicates_and_reseeds() {
        // Many duplicated points force zero inter-centroid distances
        // (ties) and empty-cluster reseeds; both kernels must walk the
        // same reseed path.
        let mut data = vec![1.0; 30]; // 15 identical 2-D points
        data.extend_from_slice(&[50.0, 50.0, 50.1, 50.0, -9.0, 2.0]);
        let n = 18;
        for k in [2, 5, 18] {
            for seed in [3, 4] {
                let p = kmeans(&data, n, 2, k, 50, seed).unwrap();
                let r = kmeans_reference(&data, n, 2, k, 50, seed).unwrap();
                assert_bit_identical(&p, &r, &format!("dup k={k} seed={seed}"));
            }
        }
    }

    #[test]
    fn pruned_matches_reference_at_iteration_limits() {
        let (data, n) = blobs();
        for max_iter in [0, 1, 2, 3] {
            let p = kmeans(&data, n, 2, 4, max_iter, 2).unwrap();
            let r = kmeans_reference(&data, n, 2, 4, max_iter, 2).unwrap();
            assert_bit_identical(&p, &r, &format!("max_iter={max_iter}"));
        }
    }

    #[test]
    fn parallel_restarts_match_serial() {
        let (data, n) = blobs();
        let serial = kmeans_best_of(&data, n, 2, 4, 100, 11, 6).unwrap();
        for jobs in [Jobs::new(2).unwrap(), Jobs::new(7).unwrap(), Jobs::Auto] {
            let par = kmeans_best_of_jobs(&data, n, 2, 4, 100, 11, 6, jobs).unwrap();
            assert_bit_identical(&serial, &par, &format!("jobs={jobs}"));
        }
    }

    #[test]
    fn best_of_reference_matches_pruned_best_of() {
        let (data, n) = blobs();
        for k in [1, 3, 5] {
            let naive = kmeans_best_of_reference(&data, n, 2, k, 100, 17, 4).unwrap();
            let pruned = kmeans_best_of(&data, n, 2, k, 100, 17, 4).unwrap();
            assert_bit_identical(&naive, &pruned, &format!("best-of k={k}"));
        }
        assert!(matches!(
            kmeans_best_of_reference(&data, n, 2, 2, 100, 17, 0),
            Err(KmeansError::ZeroInit)
        ));
    }
}
