//! Random projection of BBVs to a low-dimensional dense space.
//!
//! SimPoint projects (potentially huge) BBVs down to 15 dimensions before
//! clustering; random projection approximately preserves distances
//! (Johnson–Lindenstrauss) at a fraction of the cost. The projection matrix
//! is generated deterministically from a seed, so analyses are
//! reproducible.
//!
//! The batch entry points ([`RandomProjection::project_all`],
//! [`RandomProjection::project_all_normalized`]) work sparsely end to end:
//! each BBV's `(block, weight)` entries are pushed straight through the
//! projection matrix — no dense per-slice vector is ever materialized —
//! and matrix rows are generated once per distinct block and reused from a
//! flat row-major cache. The per-entry accumulation order is unchanged, so
//! the output is bit-identical to projecting each BBV in isolation (and to
//! the dense walk, see [`RandomProjection::project_dense_reference`]).

use crate::bbv::Bbv;
use sampsim_util::rng::SplitMix64;
use std::collections::HashMap;

/// The projected dimensionality used by SimPoint.
pub const DEFAULT_DIM: usize = 15;

/// A deterministic random projection from block space to `dim` dense
/// dimensions.
#[derive(Debug, Clone)]
pub struct RandomProjection {
    dim: usize,
    seed: u64,
}

/// Caches generated projection-matrix rows in one flat row-major buffer,
/// so a block shared by many BBVs costs one RNG sweep instead of one per
/// occurrence.
#[derive(Debug)]
struct RowCache {
    index: HashMap<u32, usize>,
    rows: Vec<f64>,
    dim: usize,
}

impl RowCache {
    fn new(dim: usize) -> Self {
        Self {
            index: HashMap::new(),
            rows: Vec::new(),
            dim,
        }
    }

    /// The matrix row for `block`, generating and caching it on first use.
    fn row(&mut self, projection: &RandomProjection, block: u32) -> &[f64] {
        let dim = self.dim;
        let rows = &mut self.rows;
        let start = *self.index.entry(block).or_insert_with(|| {
            let start = rows.len();
            rows.resize(start + dim, 0.0);
            projection.row(block, &mut rows[start..start + dim]);
            start
        });
        &self.rows[start..start + dim]
    }
}

impl RandomProjection {
    /// Creates a projection onto `dim` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize, seed: u64) -> Self {
        assert!(dim > 0, "projection dimension must be positive");
        Self { dim, seed }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The matrix row for `block`: `dim` values uniform in `[-1, 1]`,
    /// generated on demand from the seed.
    fn row(&self, block: u32, out: &mut [f64]) {
        let mut rng = SplitMix64::new(self.seed ^ (u64::from(block).wrapping_mul(0x9E37_79B9)));
        for slot in out.iter_mut() {
            // Map to [-1, 1).
            let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            *slot = 2.0 * u - 1.0;
        }
    }

    /// Projects one (typically normalized) BBV.
    pub fn project(&self, bbv: &Bbv) -> Vec<f64> {
        let mut out = vec![0.0; self.dim];
        let mut row = vec![0.0; self.dim];
        for &(block, value) in bbv.entries() {
            self.row(block, &mut row);
            for (o, r) in out.iter_mut().zip(&row) {
                *o += value * r;
            }
        }
        out
    }

    /// Projects a batch of BBVs into a flat row-major matrix
    /// (`bbvs.len() * dim` values), generating each distinct block's
    /// matrix row exactly once. Bit-identical to projecting each BBV
    /// with [`RandomProjection::project`].
    pub fn project_all(&self, bbvs: &[Bbv]) -> Vec<f64> {
        self.project_batch(bbvs, false)
    }

    /// Projects a batch of BBVs after L1 normalization, without cloning
    /// normalized copies: each weight is divided by its BBV's L1 norm on
    /// the fly — the same `v / norm` then `* r` operations, in the same
    /// order, as `bbv.normalized()` followed by
    /// [`RandomProjection::project`], hence bit-identical to that path.
    pub fn project_all_normalized(&self, bbvs: &[Bbv]) -> Vec<f64> {
        self.project_batch(bbvs, true)
    }

    fn project_batch(&self, bbvs: &[Bbv], normalize: bool) -> Vec<f64> {
        let dim = self.dim;
        let mut out = vec![0.0; bbvs.len() * dim];
        let mut cache = RowCache::new(dim);
        for (slot, bbv) in out.chunks_exact_mut(dim).zip(bbvs) {
            let norm = if normalize { bbv.l1_norm() } else { 0.0 };
            let scale = normalize && norm != 0.0;
            for &(block, value) in bbv.entries() {
                let value = if scale { value / norm } else { value };
                let row = cache.row(self, block);
                for (o, &r) in slot.iter_mut().zip(row) {
                    *o += value * r;
                }
            }
        }
        out
    }

    /// Dense-walk reference projection for one BBV: materializes the full
    /// dense vector up to `num_blocks` and multiplies every block —
    /// present or not — through the matrix. The zero blocks contribute
    /// exact zero terms, so the result is bit-identical to the sparse
    /// path; kept as the differential-testing oracle.
    ///
    /// # Panics
    ///
    /// Panics if `bbv` references a block at or beyond `num_blocks`.
    pub fn project_dense_reference(&self, bbv: &Bbv, num_blocks: u32) -> Vec<f64> {
        let mut dense = vec![0.0f64; num_blocks as usize];
        for &(block, value) in bbv.entries() {
            dense[block as usize] = value;
        }
        let mut out = vec![0.0; self.dim];
        let mut row = vec![0.0; self.dim];
        for (block, &value) in dense.iter().enumerate() {
            self.row(block as u32, &mut row);
            for (o, r) in out.iter_mut().zip(&row) {
                *o += value * r;
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let p = RandomProjection::new(15, 7);
        let v = Bbv::from_counts(vec![(3, 10), (900, 5)]).normalized();
        assert_eq!(p.project(&v), p.project(&v));
        let p2 = RandomProjection::new(15, 8);
        assert_ne!(p.project(&v), p2.project(&v));
    }

    #[test]
    fn identical_bbvs_project_identically() {
        let p = RandomProjection::new(15, 1);
        let a = Bbv::from_counts(vec![(0, 50), (10, 50)]).normalized();
        let b = Bbv::from_counts(vec![(0, 50), (10, 50)]).normalized();
        assert_eq!(p.project(&a), p.project(&b));
    }

    #[test]
    fn preserves_relative_distance_roughly() {
        // near-identical vectors should project much closer than disjoint ones.
        let p = RandomProjection::new(15, 42);
        let a = Bbv::from_counts(vec![(0, 100)]).normalized();
        let a2 = Bbv::from_counts(vec![(0, 99), (1, 1)]).normalized();
        let far = Bbv::from_counts(vec![(500, 100)]).normalized();
        let d = |x: &[f64], y: &[f64]| -> f64 {
            x.iter().zip(y).map(|(a, b)| (a - b).powi(2)).sum::<f64>()
        };
        let pa = p.project(&a);
        let pa2 = p.project(&a2);
        let pfar = p.project(&far);
        assert!(d(&pa, &pa2) * 10.0 < d(&pa, &pfar));
    }

    #[test]
    fn project_all_shape() {
        let p = RandomProjection::new(5, 1);
        let bbvs = vec![
            Bbv::from_counts(vec![(0, 1)]),
            Bbv::from_counts(vec![(1, 1)]),
            Bbv::from_counts(vec![]),
        ];
        let m = p.project_all(&bbvs);
        assert_eq!(m.len(), 15);
        assert!(m[10..].iter().all(|&x| x == 0.0), "empty bbv projects to 0");
    }

    #[test]
    fn cached_batch_matches_per_bbv_projection_bitwise() {
        let p = RandomProjection::new(15, 77);
        let bbvs: Vec<Bbv> = (0..20)
            .map(|i| {
                // Heavy block sharing so the row cache actually hits.
                Bbv::from_counts(vec![(0, i + 1), (7, 3), (i + 100, 2 * i + 1)])
            })
            .collect();
        let batch = p.project_all(&bbvs);
        for (i, bbv) in bbvs.iter().enumerate() {
            let single = p.project(bbv);
            for (j, (a, b)) in batch[i * 15..(i + 1) * 15].iter().zip(&single).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "bbv {i} dim {j}");
            }
        }
    }

    #[test]
    fn normalized_batch_matches_clone_then_project_bitwise() {
        let p = RandomProjection::new(15, 5);
        let bbvs = vec![
            Bbv::from_counts(vec![(2, 9), (5, 1), (40, 30)]),
            Bbv::from_counts(vec![]),
            Bbv::from_counts(vec![(2, 1)]),
        ];
        let batch = p.project_all_normalized(&bbvs);
        for (i, bbv) in bbvs.iter().enumerate() {
            let oracle = p.project(&bbv.normalized());
            for (j, (a, b)) in batch[i * 15..(i + 1) * 15].iter().zip(&oracle).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "bbv {i} dim {j}");
            }
        }
    }

    #[test]
    fn sparse_matches_dense_reference_bitwise() {
        let p = RandomProjection::new(15, 123);
        let bbv = Bbv::from_counts(vec![(1, 5), (9, 2), (63, 11)]).normalized();
        let sparse = p.project(&bbv);
        let dense = p.project_dense_reference(&bbv, 64);
        for (a, b) in sparse.iter().zip(&dense) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        RandomProjection::new(0, 1);
    }
}
