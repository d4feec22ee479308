//! Lloyd's k-means with k-means++ seeding, triangle-inequality pruning and
//! eight-lane distance blocks.
//!
//! Operates on a flat row-major matrix of projected BBVs. Deterministic for
//! a given seed; empty clusters are reseeded to the point farthest from its
//! centroid so every requested cluster survives when the data supports it.
//!
//! [`kmeans`] is the production kernel. It computes the same function as
//! the naive full-scan kernel, [`crate::reference::kmeans_reference`],
//! bit for bit — assignments, centroids, inertia and iteration counts —
//! and differs from it in two ways that change no value:
//!
//! * **Pruning.** Hamerly-style per-point bounds (an upper bound on the
//!   distance to the assigned centroid, a lower bound on the distance to
//!   every other centroid) plus inter-centroid half-distances let most
//!   points skip the k-way scan once the iteration settles. A skip is
//!   taken only when the bounds prove — with a safety margin far above
//!   accumulated floating-point error — that the naive scan's argmin could
//!   not differ.
//! * **Lanes.** A scan that does run computes eight distances at once:
//!   each iteration regroups the centroids into blocks of eight (`dim`
//!   rows of `[f64; 8]`), and every lane runs `sq_dist`'s operations in
//!   `sq_dist`'s order, so each lane's value is the scalar call's. The
//!   argmin over a scan takes no branches and returns the values the
//!   naive strict-`<` loop returns. The k-means++ D² update runs eight
//!   points per step the same way, over a lane copy of the points built
//!   once per call and shared by every restart (and, in
//!   [`kmeans_sweep`], by every candidate `k`).
//!
//! The SimPoint analysis clusters through [`kmeans_sweep`] (every
//! candidate `k`, each (k, restart) pair one work item) and, when it
//! scores the candidates on a subsample, [`kmeans_best_of_jobs`] (the
//! chosen `k` over every slice), so every selection is bit-reproducible
//! for every worker count.
//!
//! See `docs/performance.md` for the pruning invariants and the
//! bit-identity argument.

use crate::analysis::SimPointOptions;
use sampsim_exec::{parallel_map, Jobs, SERIAL};
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
    pub(crate) fn assemble(
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
pub(crate) fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Vectors per distance block: one AVX-512 register of `f64`s.
const LANES: usize = 8;

/// Eight values, one per lane of a block.
type Lanes = [f64; LANES];

/// Regroups the first `count` of the `dim`-long row-major vectors in
/// `rows` eight to a block: row `b * dim + d` of `out` holds coordinate
/// `d` of vectors `8b .. 8b + 8`, one per lane. Lanes past `count` hold
/// `pad`.
fn to_lanes(rows: &[f64], count: usize, dim: usize, pad: f64, out: &mut Vec<Lanes>) {
    out.clear();
    out.resize(count.div_ceil(LANES) * dim, [pad; LANES]);
    for (v, row) in rows.chunks_exact(dim).take(count).enumerate() {
        let block = &mut out[v / LANES * dim..][..dim];
        for (lanes, &x) in block.iter_mut().zip(row) {
            lanes[v % LANES] = x;
        }
    }
}

/// `sq_dist(x, v)` for the eight vectors `v` of one block (`dim` rows).
///
/// Each lane runs `sq_dist`'s operations in `sq_dist`'s order — subtract,
/// square, add to an accumulator that starts at zero, coordinate by
/// coordinate — and Rust never fuses `acc + t * t` into an FMA, so each
/// lane's value is the scalar call's, bit for bit. Round-to-nearest is
/// symmetric under negation, so `(v - x)²` and `(x - v)²` are the same
/// bits too, which lets one kernel serve both operand orders.
#[inline]
fn lane_sq_dists(x: &[f64], block: &[Lanes]) -> Lanes {
    let mut acc = [0.0; LANES];
    for (&xd, row) in x.iter().zip(block) {
        for (a, &vd) in acc.iter_mut().zip(row) {
            let t = xd - vd;
            *a += t * t;
        }
    }
    acc
}

/// [`lane_sq_dists`] of `x` against every block of `blocks`, into `out`.
#[inline]
fn scan(x: &[f64], blocks: &[Lanes], dim: usize, out: &mut [Lanes]) {
    for (d, block) in out.iter_mut().zip(blocks.chunks_exact(dim)) {
        *d = lane_sq_dists(x, block);
    }
}

/// The least lane of `dists` at any index but `skip`, or +∞ when there is
/// none. No distance is NaN or −0.0, so equal lanes have equal bits and
/// the minimum's bits do not depend on which lane supplied it.
#[inline]
fn min_except(dists: &[Lanes], skip: usize) -> f64 {
    let mut m = [f64::INFINITY; LANES];
    for (b, block) in dists.iter().enumerate() {
        for (l, (m, &d)) in m.iter_mut().zip(block).enumerate() {
            let d = if b * LANES + l == skip {
                f64::INFINITY
            } else {
                d
            };
            *m = if d < *m { d } else { *m };
        }
    }
    m.into_iter()
        .fold(f64::INFINITY, |a, d| if d < a { d } else { a })
}

/// The first index whose distance equals `target`, or 0 when none does
/// (only a NaN distance can leave none; the naive scan keeps index 0
/// then too).
#[inline]
fn first_index_of(dists: &[Lanes], target: f64) -> usize {
    let mut first = [usize::MAX; LANES];
    for (b, block) in dists.iter().enumerate().rev() {
        for (l, (f, &d)) in first.iter_mut().zip(block).enumerate() {
            *f = if d == target { b * LANES + l } else { *f };
        }
    }
    match first.into_iter().fold(usize::MAX, usize::min) {
        usize::MAX => 0,
        i => i,
    }
}

pub(crate) fn validate(data: &[f64], n: usize, dim: usize, k: usize) -> Result<(), KmeansError> {
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
pub(crate) fn update_centroids(
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

/// Runs k-means on `n` points of `dim` dimensions stored row-major in
/// `data`.
///
/// Output is bit-identical to [`crate::reference::kmeans_reference`]
/// (see the module docs for the argument); the kernel skips the k-way
/// distance scan for points whose bounds prove the assignment cannot
/// change and computes the scans it does run eight distances at a time.
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
    let points = point_lanes(data, n, dim);
    Ok(lloyd(data, &points, n, dim, k, max_iter, seed))
}

/// The lane copy of the points that k-means++ seeding reads: built once
/// per call and shared by every restart.
fn point_lanes(data: &[f64], n: usize, dim: usize) -> Vec<Lanes> {
    let mut points = Vec::new();
    to_lanes(data, n, dim, 0.0, &mut points);
    points
}

/// The production kernel on validated input; `points` is
/// [`point_lanes`] of `data`.
fn lloyd(
    data: &[f64],
    points: &[Lanes],
    n: usize,
    dim: usize,
    k: usize,
    max_iter: u32,
    seed: u64,
) -> KmeansResult {
    let k = k.min(n);
    let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
    let mut centroids = plus_plus_init(data, points, n, dim, k, &mut rng);
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
    // The centroids in blocks of eight, and one scan's distances. Padding
    // lanes sit at +∞, so their distances are +∞ and never win a minimum.
    let mut blocks = Vec::new();
    let mut dists = vec![[0.0; LANES]; k.div_ceil(LANES)];

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
        to_lanes(&centroids, k, dim, f64::INFINITY, &mut blocks);
        // Half the distance from each centroid to its nearest other
        // centroid (Hamerly's `s(c)`; infinite for `k == 1`).
        for (c, h) in half.iter_mut().enumerate() {
            scan(&centroids[c * dim..(c + 1) * dim], &blocks, dim, &mut dists);
            *h = 0.5 * min_except(&dists, c).sqrt();
        }
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
            // there.
            if upper[i].is_finite() {
                let tight = sq_dist(p, &centroids[a * dim..(a + 1) * dim]).sqrt();
                upper[i] = tight;
                if bound - tight > eps {
                    continue;
                }
            }
            // Full scan: the reference's strict-`<` loop keeps the first
            // minimum and, beside it, the least distance to any other
            // centroid, which refreshes the lower bound.
            scan(p, &blocks, dim, &mut dists);
            let best_d = min_except(&dists, usize::MAX);
            let best = first_index_of(&dists, best_d);
            let second_d = min_except(&dists, best);
            if a != best {
                assignments[i] = best as u32;
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
    KmeansResult::assemble(k, assignments, centroids, inertia, iterations)
}

/// k-means++ seeding (Arthur & Vassilvitskii, 2007). The D² update runs
/// eight points per step over `points`, the lane copy of `data`; the
/// `total` sum and the pick stay scalar, in point order, so the picks are
/// those of the scalar seeding in [`crate::reference`].
fn plus_plus_init(
    data: &[f64],
    points: &[Lanes],
    n: usize,
    dim: usize,
    k: usize,
    rng: &mut Xoshiro256StarStar,
) -> Vec<f64> {
    let mut centroids = Vec::with_capacity(k * dim);
    let first = rng.next_below(n as u64) as usize;
    centroids.extend_from_slice(&data[first * dim..(first + 1) * dim]);
    let mut dists = vec![[0.0; LANES]; n.div_ceil(LANES)];
    scan(&centroids[0..dim], points, dim, &mut dists);
    for c in 1..k {
        let total: f64 = dists.as_flattened()[..n].iter().sum();
        let chosen = if total <= 0.0 {
            // All points coincide with chosen centroids; any point works.
            rng.next_below(n as u64) as usize
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = n - 1;
            for (i, &d) in dists.as_flattened()[..n].iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.extend_from_slice(&data[chosen * dim..(chosen + 1) * dim]);
        let centroid = &centroids[c * dim..(c + 1) * dim];
        for (lanes, block) in dists.iter_mut().zip(points.chunks_exact(dim)) {
            let d = lane_sq_dists(centroid, block);
            for (old, d) in lanes.iter_mut().zip(d) {
                *old = if d < *old { d } else { *old };
            }
        }
    }
    centroids
}

/// Per-restart seed: the same derivation the serial loop has always used.
#[inline]
pub(crate) fn restart_seed(seed: u64, run: u32) -> u64 {
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
    validate(data, n, dim, k)?;
    let points = point_lanes(data, n, dim);
    let runs: Vec<u32> = (0..n_init).collect();
    let results = parallel_map(jobs, &runs, |_, &run| {
        lloyd(data, &points, n, dim, k, max_iter, restart_seed(seed, run))
    });
    let mut best: Option<KmeansResult> = None;
    for r in results {
        if best.as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best = Some(r);
        }
    }
    Ok(best.expect("n_init > 0"))
}

/// The SimPoint sweep: for every `k` in `ks`, [`kmeans_best_of`] under
/// `options` (`dim`, `max_iter`, `n_init`), seeded with
/// `options.seed + k`. Results come back in the order of `ks`.
///
/// Every (k, restart) pair is one work item over `jobs` workers, largest
/// `k` first, so the longest runs start first and no worker waits at a
/// `k` boundary for a slower restart. Each `k`'s restarts are folded in
/// restart order with [`kmeans_best_of`]'s strict `inertia <` rule, so
/// the results are identical for every job count.
///
/// # Errors
///
/// The first error, in the order of `ks`, that [`kmeans_best_of`] would
/// return.
pub fn kmeans_sweep(
    data: &[f64],
    n: usize,
    ks: &[usize],
    options: &SimPointOptions,
    jobs: Jobs,
) -> Result<Vec<KmeansResult>, KmeansError> {
    let dim = options.dim;
    for &k in ks {
        if options.n_init == 0 {
            return Err(KmeansError::ZeroInit);
        }
        validate(data, n, dim, k)?;
    }
    let points = point_lanes(data, n, dim);
    let mut order: Vec<usize> = (0..ks.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(ks[i]));
    let items: Vec<(usize, u32)> = order
        .iter()
        .flat_map(|&i| (0..options.n_init).map(move |run| (i, run)))
        .collect();
    let runs = parallel_map(jobs, &items, |_, &(i, run)| {
        let seed = restart_seed(options.seed.wrapping_add(ks[i] as u64), run);
        lloyd(data, &points, n, dim, ks[i], options.max_iter, seed)
    });
    let mut best: Vec<Option<KmeansResult>> = vec![None; ks.len()];
    for (&(i, _), r) in items.iter().zip(runs) {
        if best[i].as_ref().is_none_or(|b| r.inertia < b.inertia) {
            best[i] = Some(r);
        }
    }
    Ok(best.into_iter().map(|b| b.expect("n_init > 0")).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::{kmeans_best_of_reference, kmeans_reference};

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

    /// Four well-separated 2-D blobs of unequal sizes, so a restart that
    /// finds the same partition under other labels shows in the
    /// assignments and in the order of the cluster sizes.
    fn unequal_blobs() -> (Vec<f64>, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(5);
        let mut data = Vec::new();
        for (c, size) in [30usize, 45, 60, 25].into_iter().enumerate() {
            for _ in 0..size {
                data.push(c as f64 * 4.0 + rng.next_f64());
                data.push((c % 2) as f64 * 3.0 + rng.next_f64());
            }
        }
        (data, 160)
    }

    #[test]
    fn recovers_blobs() {
        let (data, n) = blobs();
        let r = kmeans(&data, n, 2, 3, 100, 1).unwrap();
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
        // Shapes with exactly one, two and four centroid blocks, a
        // partial fifth, and point counts off a multiple of eight.
        let shapes = [
            (50, 3, 4),
            (200, 15, 12),
            (33, 1, 33),
            (300, 16, 8),
            (77, 15, 16),
            (261, 7, 32),
            (140, 16, 40),
        ];
        for (n, dim, k) in shapes {
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
        // Restarts that find the same partition under other labels tie
        // on inertia; the first of them must win.
        let (data, n) = unequal_blobs();
        let naive = kmeans_best_of_reference(&data, n, 2, 4, 100, 17, 6).unwrap();
        let pruned = kmeans_best_of(&data, n, 2, 4, 100, 17, 6).unwrap();
        assert_bit_identical(&naive, &pruned, "best-of unequal blobs");
        assert!(matches!(
            kmeans_best_of_reference(&data, n, 2, 2, 100, 17, 0),
            Err(KmeansError::ZeroInit)
        ));
    }

    #[test]
    fn lanes_equal_scalar_sq_dist_bitwise() {
        // Every lane of a block, in both operand orders, for each
        // dimension up to 16 and block tails of every length.
        let mut rng = Xoshiro256StarStar::seed_from_u64(23);
        for dim in 1..=16 {
            for count in [1, 5, 8, 9, 16, 19] {
                let vectors = random_matrix(rng.next_u64(), count, dim, 6.0);
                let x = random_matrix(rng.next_u64(), 1, dim, 6.0);
                let mut blocks = Vec::new();
                to_lanes(&vectors, count, dim, f64::INFINITY, &mut blocks);
                for (b, block) in blocks.chunks_exact(dim).enumerate() {
                    let lanes = lane_sq_dists(&x, block);
                    for (l, &d) in lanes.iter().enumerate() {
                        let v = b * LANES + l;
                        if v >= count {
                            assert_eq!(d, f64::INFINITY, "padding lane {v}");
                            continue;
                        }
                        let row = &vectors[v * dim..(v + 1) * dim];
                        let what = format!("dim={dim} vector {v}");
                        assert_eq!(d.to_bits(), sq_dist(&x, row).to_bits(), "{what}");
                        assert_eq!(d.to_bits(), sq_dist(row, &x).to_bits(), "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn lane_argmin_matches_the_strict_first_minimum_loop() {
        // Distances drawn from a few values, so ties are common; the
        // padding lanes past `k` hold +inf as in the kernel.
        let mut rng = Xoshiro256StarStar::seed_from_u64(41);
        for k in 1..=40usize {
            for _ in 0..25 {
                let values: Vec<f64> = (0..k).map(|_| rng.next_below(4) as f64 * 0.5).collect();
                let mut dists = vec![[f64::INFINITY; LANES]; k.div_ceil(LANES)];
                dists.as_flattened_mut()[..k].copy_from_slice(&values);
                let (mut best, mut best_d, mut second_d) = (0, f64::INFINITY, f64::INFINITY);
                for (c, &d) in values.iter().enumerate() {
                    if d < best_d {
                        second_d = best_d;
                        best_d = d;
                        best = c;
                    } else if d < second_d {
                        second_d = d;
                    }
                }
                let lane_best_d = min_except(&dists, usize::MAX);
                let lane_best = first_index_of(&dists, lane_best_d);
                let what = format!("k={k} {values:?}");
                assert_eq!(lane_best, best, "{what}: best");
                assert_eq!(lane_best_d.to_bits(), best_d.to_bits(), "{what}: best_d");
                let lane_second = min_except(&dists, lane_best);
                assert_eq!(lane_second.to_bits(), second_d.to_bits(), "{what}: second");
            }
        }
    }

    #[test]
    fn sweep_matches_per_k_reference_best_of() {
        let (data, n) = unequal_blobs();
        let options = SimPointOptions {
            dim: 2,
            n_init: 3,
            max_iter: 40,
            seed: 77,
            ..SimPointOptions::default()
        };
        let ks = [3, 1, 9, 4, 17, 2];
        let expected: Vec<KmeansResult> = ks
            .iter()
            .map(|&k| kmeans_best_of_reference(&data, n, 2, k, 40, 77 + k as u64, 3).unwrap())
            .collect();
        for jobs in [SERIAL, Jobs::new(2).unwrap(), Jobs::new(5).unwrap()] {
            let got = kmeans_sweep(&data, n, &ks, &options, jobs).unwrap();
            assert_eq!(got.len(), ks.len());
            for ((g, e), k) in got.iter().zip(&expected).zip(ks) {
                let what = format!("k={k} jobs={jobs}");
                assert_eq!(g.k, e.k, "{what}: k");
                assert_eq!(g.assignments, e.assignments, "{what}: assignments");
                assert_eq!(g.inertia.to_bits(), e.inertia.to_bits(), "{what}");
                assert_eq!(g.cluster_sizes(), e.cluster_sizes(), "{what}: sizes");
                let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&g.centroids), bits(&e.centroids), "{what}: centroids");
            }
        }
        let zero_init = SimPointOptions {
            n_init: 0,
            ..options
        };
        assert_eq!(
            kmeans_sweep(&data, n, &ks, &zero_init, SERIAL),
            Err(KmeansError::ZeroInit)
        );
        assert_eq!(
            kmeans_sweep(&data, n, &[2, 0], &options, SERIAL),
            Err(KmeansError::ZeroK)
        );
        assert_eq!(kmeans_sweep(&data, n, &[], &zero_init, SERIAL), Ok(vec![]));
    }
}
