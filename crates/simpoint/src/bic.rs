//! Bayesian Information Criterion scoring of clusterings.
//!
//! SimPoint selects the number of clusters by scoring each k-means result
//! with the BIC formulation of Pelleg & Moore (X-means, ICML 2000), under a
//! spherical Gaussian model, then choosing the smallest `k` whose score
//! reaches a threshold fraction of the score range (SimPoint's default
//! is 0.9).

use crate::kmeans::KmeansResult;

/// BIC score of a clustering over `n` points of dimension `dim`.
/// Higher is better.
///
/// # Panics
///
/// Panics if the clustering has no points or `dim` is zero.
pub fn bic_score(clustering: &KmeansResult, dim: usize) -> f64 {
    let n = clustering.assignments.len();
    assert!(n > 0, "cannot score an empty clustering");
    assert!(dim > 0, "dim must be positive");
    let k = clustering.k;
    let sizes = clustering.cluster_sizes();
    // Pooled MLE variance under the identical spherical Gaussian model.
    let denom = (n.saturating_sub(k)).max(1) as f64;
    let sigma2 = (clustering.inertia / denom).max(1e-12);
    let nf = n as f64;
    let d = dim as f64;
    let mut loglik = 0.0;
    for &r in sizes {
        if r == 0 {
            continue;
        }
        let rf = r as f64;
        loglik += rf * rf.ln()
            - rf * nf.ln()
            - rf * d / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln()
            - (rf - 1.0) * d / 2.0;
    }
    // Free parameters: k-1 mixing weights, k*d centroid coordinates, one
    // shared variance.
    let p = (k as f64 - 1.0) + k as f64 * d + 1.0;
    loglik - p / 2.0 * nf.ln()
}

/// Given `(k, bic)` pairs, returns the smallest `k` whose BIC reaches
/// `threshold` of the way from the minimum to the maximum score — the
/// SimPoint 3.0 selection rule.
///
/// # Panics
///
/// Panics if `scores` is empty or `threshold` is outside `[0, 1]`.
pub fn choose_k(scores: &[(usize, f64)], threshold: f64) -> usize {
    assert!(!scores.is_empty(), "need at least one score");
    assert!(
        (0.0..=1.0).contains(&threshold),
        "threshold must be in [0, 1]"
    );
    let max = scores
        .iter()
        .map(|&(_, s)| s)
        .fold(f64::NEG_INFINITY, f64::max);
    let min = scores.iter().map(|&(_, s)| s).fold(f64::INFINITY, f64::min);
    let cutoff = if (max - min).abs() < f64::EPSILON {
        max
    } else {
        min + threshold * (max - min)
    };
    let mut candidates: Vec<(usize, f64)> = scores
        .iter()
        .copied()
        .filter(|&(_, s)| s >= cutoff)
        .collect();
    candidates.sort_by_key(|&(k, _)| k);
    candidates
        .first()
        .expect("cutoff <= max guarantees a candidate")
        .0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kmeans::kmeans;
    use sampsim_util::rng::Xoshiro256StarStar;

    fn blobs(k: usize, per: usize, spread: f64) -> (Vec<f64>, usize) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut data = Vec::new();
        for c in 0..k {
            let cx = c as f64 * 20.0;
            for _ in 0..per {
                data.push(cx + (rng.next_f64() - 0.5) * spread);
                data.push((rng.next_f64() - 0.5) * spread);
            }
        }
        (data, k * per)
    }

    #[test]
    fn bic_peaks_near_true_k() {
        let (data, n) = blobs(4, 50, 1.0);
        let scores: Vec<(usize, f64)> = (1..=10)
            .map(|k| {
                let r = kmeans(&data, n, 2, k, 100, 3).unwrap();
                (k, bic_score(&r, 2))
            })
            .collect();
        let chosen = choose_k(&scores, 0.9);
        assert!(
            (3..=6).contains(&chosen),
            "chosen {chosen}, scores {scores:?}"
        );
        // Scores at the true k should beat k=1 decisively.
        let s1 = scores[0].1;
        let s4 = scores[3].1;
        assert!(s4 > s1);
    }

    #[test]
    fn choose_k_prefers_smallest_above_cutoff() {
        let scores = vec![(1, 0.0), (2, 95.0), (3, 100.0), (4, 99.0)];
        assert_eq!(choose_k(&scores, 0.9), 2);
        assert_eq!(choose_k(&scores, 1.0), 3);
        assert_eq!(choose_k(&scores, 0.0), 1);
    }

    #[test]
    fn choose_k_flat_scores() {
        let scores = vec![(1, 5.0), (2, 5.0)];
        assert_eq!(choose_k(&scores, 0.9), 1);
    }

    #[test]
    #[should_panic(expected = "at least one score")]
    fn empty_scores_panic() {
        choose_k(&[], 0.9);
    }

    #[test]
    fn zero_inertia_does_not_nan() {
        let data = vec![1.0; 10];
        let r = kmeans(&data, 5, 2, 1, 10, 1).unwrap();
        let s = bic_score(&r, 2);
        assert!(s.is_finite());
    }
}

#[cfg(test)]
mod choose_k_extra_tests {
    use super::*;

    #[test]
    fn single_candidate_is_chosen() {
        assert_eq!(choose_k(&[(7, -12.0)], 0.9), 7);
    }

    #[test]
    fn negative_scores_handled() {
        let scores = vec![(1, -1000.0), (2, -100.0), (3, -95.0), (4, -94.0)];
        // range = 906; cutoff = -1000 + 0.9*906 = -184.6 -> smallest k above
        // is 2.
        assert_eq!(choose_k(&scores, 0.9), 2);
    }

    #[test]
    #[should_panic(expected = "threshold must be in")]
    fn threshold_bounds_checked() {
        choose_k(&[(1, 0.0)], 1.5);
    }
}
