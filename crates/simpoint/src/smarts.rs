//! SMARTS/SimFlex-style statistical sampling (Wunderlich et al., ISCA 2003;
//! Wenisch et al., IEEE Micro 2006).
//!
//! Where SimPoint picks *representative* slices by clustering, statistical
//! sampling measures many tiny units chosen systematically or at random
//! and reports a confidence interval from the central limit theorem. The
//! paper discusses this family as related work; this module implements the
//! estimator so the harness can compare both approaches under matched
//! budgets (`smarts_compare` bench).

/// Two-sided z-scores for common confidence levels.
fn z_score(confidence: f64) -> f64 {
    // Interpolation is unnecessary: simulation practice uses these levels.
    match confidence {
        c if (c - 0.90).abs() < 1e-9 => 1.6449,
        c if (c - 0.95).abs() < 1e-9 => 1.9600,
        c if (c - 0.99).abs() < 1e-9 => 2.5758,
        _ => panic!("unsupported confidence level {confidence}; use 0.90/0.95/0.99"),
    }
}

/// A population estimate from a set of sampled measurements.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Estimate {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (n-1 denominator).
    pub stddev: f64,
    /// Number of sampled units.
    pub n: usize,
    /// Half-width of the confidence interval.
    pub half_width: f64,
    /// The confidence level used.
    pub confidence: f64,
}

impl Estimate {
    /// Whether `value` lies inside the interval.
    pub fn covers(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }
}

/// Estimates the population mean of `samples` with a CLT confidence
/// interval at `confidence` ∈ {0.90, 0.95, 0.99}.
///
/// # Panics
///
/// Panics if `samples` has fewer than 2 elements or the confidence level
/// is unsupported.
pub fn estimate(samples: &[f64], confidence: f64) -> Estimate {
    assert!(samples.len() >= 2, "need at least two sampled units");
    let n = samples.len() as f64;
    let mean = samples.iter().sum::<f64>() / n;
    let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
    let stddev = var.sqrt();
    let half_width = z_score(confidence) * stddev / n.sqrt();
    Estimate {
        mean,
        stddev,
        n: samples.len(),
        half_width,
        confidence,
    }
}

/// SMARTS' sample-size rule: the number of units needed so that the
/// relative error bound is at most `rel_err` at `confidence`, given the
/// coefficient of variation `cov = stddev / mean` observed in a pilot
/// sample. (SMARTS eq. 1: `n ≥ (z · V / ε)²`.)
///
/// # Panics
///
/// Panics if `rel_err` or `cov` is not positive, or the confidence level
/// is unsupported.
pub fn required_units(cov: f64, confidence: f64, rel_err: f64) -> usize {
    assert!(cov > 0.0, "coefficient of variation must be positive");
    assert!(rel_err > 0.0, "relative error bound must be positive");
    let z = z_score(confidence);
    ((z * cov / rel_err).powi(2)).ceil() as usize
}

/// Systematic (every k-th) selection of `count` unit indices from
/// `population` units, starting mid-stratum — the SMARTS sampling
/// discipline.
///
/// # Panics
///
/// Panics if `count` is zero or `population` is zero.
pub fn systematic_indices(population: u64, count: usize) -> Vec<u64> {
    assert!(count > 0, "count must be positive");
    assert!(population > 0, "population must be positive");
    let count = count.min(population as usize);
    (0..count)
        .map(|i| (((i as f64 + 0.5) * population as f64 / count as f64) as u64).min(population - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sampsim_util::rng::Xoshiro256StarStar;

    #[test]
    fn estimate_on_constant_data_has_zero_width() {
        let e = estimate(&[5.0; 10], 0.95);
        assert_eq!(e.mean, 5.0);
        assert_eq!(e.half_width, 0.0);
        assert!(e.covers(5.0));
        assert!(!e.covers(5.1));
    }

    #[test]
    fn interval_covers_true_mean_usually() {
        // 200 repetitions of estimating a uniform(0,1) mean from 100
        // samples at 95% confidence: coverage should be near 95%.
        let mut rng = Xoshiro256StarStar::seed_from_u64(7);
        let mut covered = 0;
        let reps = 200;
        for _ in 0..reps {
            let samples: Vec<f64> = (0..100).map(|_| rng.next_f64()).collect();
            if estimate(&samples, 0.95).covers(0.5) {
                covered += 1;
            }
        }
        let rate = covered as f64 / reps as f64;
        assert!((0.88..=1.0).contains(&rate), "coverage {rate}");
    }

    #[test]
    fn width_shrinks_with_sample_size() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(9);
        let big: Vec<f64> = (0..10_000).map(|_| rng.next_f64()).collect();
        let small = &big[..100];
        let e_small = estimate(small, 0.95);
        let e_big = estimate(&big, 0.95);
        assert!(e_big.half_width < e_small.half_width / 5.0);
    }

    #[test]
    fn required_units_matches_formula() {
        // z=1.96, V=1, eps=0.05 -> (1.96/0.05)^2 ≈ 1537.
        assert_eq!(required_units(1.0, 0.95, 0.05), 1537);
        // Tighter error needs quadratically more units.
        assert_eq!(required_units(1.0, 0.95, 0.025), 6147);
        // Higher confidence needs more units.
        assert!(required_units(1.0, 0.99, 0.05) > required_units(1.0, 0.90, 0.05));
    }

    #[test]
    fn systematic_indices_spread() {
        let idx = systematic_indices(1000, 4);
        assert_eq!(idx, vec![125, 375, 625, 875]);
        let idx = systematic_indices(3, 10);
        assert_eq!(idx.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unsupported confidence")]
    fn weird_confidence_panics() {
        estimate(&[1.0, 2.0], 0.5);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn single_sample_panics() {
        estimate(&[1.0], 0.95);
    }
}
