//! SimPoint analysis options, errors and results. The algorithm itself is
//! [`crate::SimPointStrategy::analyze`].

use crate::kmeans::KmeansError;
use crate::project::DEFAULT_DIM;
use crate::select::SimPoint;
use sampsim_util::hash::Fnv64;
use std::fmt;

/// Tuning knobs of the analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimPointOptions {
    /// Maximum number of clusters to consider (the paper's `MaxK`; its
    /// design sweep settles on 35).
    pub max_k: usize,
    /// Projected dimensionality (SimPoint uses 15).
    pub dim: usize,
    /// k-means restarts per candidate `k`.
    pub n_init: u32,
    /// Lloyd iteration cap.
    pub max_iter: u32,
    /// BIC score-range threshold for choosing `k` (SimPoint uses 0.9).
    pub bic_threshold: f64,
    /// Master seed for projection and clustering.
    pub seed: u64,
    /// When more slices than this are present, candidate `k` values are
    /// scored on a deterministic subsample (the final clustering still uses
    /// every slice) — the same cost-control SimPoint 3.0 applies.
    pub sample_size: usize,
}

impl Default for SimPointOptions {
    /// The paper's chosen configuration: `MaxK = 35`, 15 dimensions,
    /// BIC threshold 0.9.
    fn default() -> Self {
        Self {
            max_k: 35,
            dim: DEFAULT_DIM,
            n_init: 2,
            max_iter: 60,
            bic_threshold: 0.9,
            seed: 0x51AB_0DD5,
            sample_size: 8_000,
        }
    }
}

impl SimPointOptions {
    /// Writes every option into `h`: the one body behind each cache key
    /// that covers the SimPoint options. Callers write their own domain
    /// tag first.
    pub fn write_fingerprint(&self, h: &mut Fnv64) {
        h.write_u64(self.max_k as u64);
        h.write_u64(self.dim as u64);
        h.write_u64(u64::from(self.n_init));
        h.write_u64(u64::from(self.max_iter));
        h.write_f64(self.bic_threshold);
        h.write_u64(self.seed);
        h.write_u64(self.sample_size as u64);
        // The clustering kernel's label, from when a second kernel could
        // be selected. It stays because keys name disk-tier entries and
        // place requests on fleet shards: a moved key cold-starts every
        // persisted cache.
        h.write_str("lloyd");
    }
}

/// Errors raised by the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimPointError {
    /// No slices were supplied.
    NoSlices,
    /// The clustering kernel rejected its input.
    Kmeans(KmeansError),
}

impl fmt::Display for SimPointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimPointError::NoSlices => write!(f, "no slices to analyze"),
            SimPointError::Kmeans(e) => write!(f, "clustering failed: {e}"),
        }
    }
}

impl std::error::Error for SimPointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimPointError::NoSlices => None,
            SimPointError::Kmeans(e) => Some(e),
        }
    }
}

impl From<KmeansError> for SimPointError {
    fn from(e: KmeansError) -> Self {
        SimPointError::Kmeans(e)
    }
}

/// The outcome of a SimPoint analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct SimPointsResult {
    /// Chosen number of clusters.
    pub k: usize,
    /// Slice length the BBVs were collected with (for provenance).
    pub slice_size: u64,
    /// Cluster assignment of every slice.
    pub assignments: Vec<u32>,
    /// The simulation points, sorted by slice index; weights sum to 1.
    pub points: Vec<SimPoint>,
    /// `(k, BIC)` pairs for every candidate `k` that was scored.
    pub bic_scores: Vec<(usize, f64)>,
    /// Average intra-cluster variance of the final clustering.
    pub avg_variance: f64,
}

impl SimPointsResult {
    /// Number of simulation points (occupied clusters).
    pub fn num_points(&self) -> usize {
        self.points.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bbv::Bbv;
    use crate::strategy::SimPointStrategy;
    use sampsim_exec::SERIAL;

    fn analyze(opts: SimPointOptions, bbvs: &[Bbv]) -> Result<SimPointsResult, SimPointError> {
        SimPointStrategy::new(opts).analyze(bbvs, 1000, SERIAL)
    }

    /// `n_phases` behaviours, `per` slices each, interleaved round-robin,
    /// with mild per-slice noise.
    fn synthetic_bbvs(n_phases: usize, per: usize) -> Vec<Bbv> {
        let mut rng = Xoshiro256StarStar::seed_from_u64(17);
        let mut out = Vec::new();
        for i in 0..n_phases * per {
            let phase = i % n_phases;
            let base = (phase * 20) as u32;
            let mut counts = vec![
                (base, 800 + (rng.next_below(40)) as u32),
                (base + 1, 150 + (rng.next_below(20)) as u32),
                (base + 2, 50 + (rng.next_below(10)) as u32),
            ];
            counts.sort_by_key(|&(b, _)| b);
            out.push(Bbv::from_counts(counts));
        }
        out
    }

    #[test]
    fn recovers_phase_count() {
        let bbvs = synthetic_bbvs(5, 40);
        let r = analyze(SimPointOptions::default(), &bbvs).unwrap();
        // BIC creeps up slowly past the true phase count (noise gets
        // subdivided), so the threshold rule may land a few clusters above
        // 5 — exactly like the real SimPoint tool. Assert the chosen k is
        // at least the true count and that the *elbow* (largest score jump)
        // sits at the true count.
        assert!(
            (5..=12).contains(&r.k),
            "expected k in 5..=12, got {} (scores {:?})",
            r.k,
            r.bic_scores
        );
        let jumps: Vec<f64> = r.bic_scores.windows(2).map(|w| w[1].1 - w[0].1).collect();
        let elbow = jumps
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .map(|(i, _)| r.bic_scores[i + 1].0)
            .unwrap();
        assert_eq!(elbow, 5, "largest BIC jump should occur at the true k");
        assert_eq!(r.assignments.len(), 200);
        let w: f64 = r.points.iter().map(|p| p.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weights_reflect_phase_shares() {
        // Phase 0 twice as frequent as phase 1.
        let mut bbvs = Vec::new();
        for i in 0..150 {
            let phase = if i % 3 < 2 { 0u32 } else { 40 };
            bbvs.push(Bbv::from_counts(vec![(phase, 1000), (phase + 1, 100)]));
        }
        let r = analyze(SimPointOptions::default(), &bbvs).unwrap();
        assert_eq!(r.k, 2, "scores {:?}", r.bic_scores);
        let max_w = r
            .points
            .iter()
            .map(|p| p.weight)
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((max_w - 2.0 / 3.0).abs() < 0.05, "dominant weight {max_w}");
    }

    #[test]
    fn empty_input_errors() {
        let err = analyze(SimPointOptions::default(), &[]).unwrap_err();
        assert_eq!(err, SimPointError::NoSlices);
        assert!(!err.to_string().is_empty());
    }

    #[test]
    fn single_slice_is_one_point() {
        let bbvs = vec![Bbv::from_counts(vec![(0, 100)])];
        let r = analyze(SimPointOptions::default(), &bbvs).unwrap();
        assert_eq!(r.k, 1);
        assert_eq!(r.points.len(), 1);
        assert_eq!(r.points[0].weight, 1.0);
    }

    #[test]
    fn max_k_limits_clusters() {
        let bbvs = synthetic_bbvs(10, 30);
        let opts = SimPointOptions {
            max_k: 3,
            ..Default::default()
        };
        let r = analyze(opts, &bbvs).unwrap();
        assert!(r.k <= 3);
        // Forcing too few clusters raises the intra-cluster variance
        // (Fig. 4's phenomenon).
        let full = analyze(SimPointOptions::default(), &bbvs).unwrap();
        assert!(r.avg_variance > full.avg_variance);
    }

    #[test]
    fn deterministic() {
        let bbvs = synthetic_bbvs(4, 30);
        let a = analyze(SimPointOptions::default(), &bbvs).unwrap();
        let b = analyze(SimPointOptions::default(), &bbvs).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn subsampling_path_works() {
        let bbvs = synthetic_bbvs(3, 300); // 900 slices
        let opts = SimPointOptions {
            sample_size: 200,
            ..Default::default()
        };
        let r = analyze(opts, &bbvs).unwrap();
        assert!((3..=9).contains(&r.k), "k = {}", r.k);
        assert_eq!(r.assignments.len(), 900, "final clustering uses all slices");
    }

    use sampsim_util::rng::Xoshiro256StarStar;
}
