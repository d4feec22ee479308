//! The naive k-means and dense projection kernels, frozen as differential
//! oracles.
//!
//! Nothing in the pipeline calls these: the unit, property and
//! differential tests compare the production kernels with them bit for
//! bit, and `sampsim perf` times the production k-means sweep against
//! [`kmeans_best_of_reference`].
//!
//! * [`kmeans_reference`] is the full-scan Lloyd kernel: every iteration
//!   computes all `n * k` distances with one scalar `sq_dist` call each
//!   and keeps the first minimum under a strict `<`. It seeds with its own
//!   scalar k-means++ copy, so a change to the production seeding's
//!   eight-point lanes cannot hide behind a shared helper. It shares the
//!   centroid update step with [`crate::kmeans::kmeans`].
//! * [`kmeans_best_of_reference`] folds restarts of it under the
//!   production seed schedule and winner rule.
//! * [`project_dense_reference`] projects a dense BBV walk, which the
//!   sparse batched projection must equal.

use crate::bbv::Bbv;
use crate::kmeans::{restart_seed, sq_dist, update_centroids, validate, KmeansError, KmeansResult};
use crate::project::RandomProjection;
use sampsim_util::rng::Xoshiro256StarStar;

/// The naive full-scan Lloyd kernel: every iteration computes all `n * k`
/// distances. The oracle for [`crate::kmeans::kmeans`]; identical output,
/// no pruning, no lanes.
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

/// k-means++ seeding (Arthur & Vassilvitskii, 2007), one scalar `sq_dist`
/// per point and centroid.
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

/// [`crate::kmeans::kmeans_best_of`] running every restart through
/// [`kmeans_reference`] — same seed schedule, same winner fold.
///
/// # Errors
///
/// As [`crate::kmeans::kmeans_best_of`].
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

/// Dense-walk projection of one BBV: materializes the full dense vector up
/// to `num_blocks` and multiplies every block — present or not — through
/// `projection`'s matrix. The zero blocks contribute exact zero terms, so
/// the result is bit-identical to [`RandomProjection::project`] and the
/// batched sparse paths.
///
/// # Panics
///
/// Panics if `bbv` references a block at or beyond `num_blocks`.
pub fn project_dense_reference(
    projection: &RandomProjection,
    bbv: &Bbv,
    num_blocks: u32,
) -> Vec<f64> {
    let mut dense = vec![0.0f64; num_blocks as usize];
    for &(block, value) in bbv.entries() {
        dense[block as usize] = value;
    }
    let dim = projection.dim();
    let mut out = vec![0.0; dim];
    let mut row = vec![0.0; dim];
    for (block, &value) in dense.iter().enumerate() {
        projection.row(block as u32, &mut row);
        for (o, r) in out.iter_mut().zip(&row) {
            *o += value * r;
        }
    }
    out
}
