//! Summary statistics and error metrics.
//!
//! The paper's evaluation is a long series of "sampled run vs whole run"
//! comparisons; this module centralizes the arithmetic so that every figure
//! reports errors the same way:
//!
//! * [`Summary`] — streaming mean/variance/min/max.
//! * [`relative_error_pct`] — relative error in percent (used for miss-rate
//!   and CPI comparisons, Figs. 8, 9, 12).

/// Streaming summary statistics (Welford's algorithm).
///
/// # Example
///
/// ```
/// use sampsim_util::stats::Summary;
/// let mut s = Summary::new();
/// for x in [1.0, 2.0, 3.0] { s.add(x); }
/// assert_eq!(s.mean(), 2.0);
/// assert_eq!(s.count(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation.
    pub fn add(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean; `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance; `0.0` when fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation; `NaN` when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation; `NaN` when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Merges another summary into this one.
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let total = n1 + n2;
        self.mean += delta * n2 / total;
        self.m2 += other.m2 + delta * delta * n1 * n2 / total;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for Summary {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for x in iter {
            self.add(x);
        }
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut s = Summary::new();
        s.extend(iter);
        s
    }
}

/// Relative error of `measured` against `reference`, in percent.
///
/// Returns `0.0` when both are zero, and `100.0 * measured.abs()` sign-safe
/// magnitude when only the reference is zero (avoids infinities in tables).
///
/// ```
/// assert!((sampsim_util::stats::relative_error_pct(1.1, 1.0) - 10.0).abs() < 1e-9);
/// ```
pub fn relative_error_pct(measured: f64, reference: f64) -> f64 {
    if reference == 0.0 {
        if measured == 0.0 {
            0.0
        } else {
            100.0 * measured.abs()
        }
    } else {
        100.0 * (measured - reference).abs() / reference.abs()
    }
}

/// Nearest-rank percentile of an unsorted sample (`p` in `[0, 100]`).
///
/// Sorts a copy of `values` and returns the smallest observation with at
/// least `p` percent of the sample at or below it — the convention used
/// by the serving-latency reports, where p50/p99 must be actual observed
/// latencies rather than interpolated values. Returns `NaN` for an empty
/// sample.
///
/// ```
/// use sampsim_util::stats::percentile;
/// let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
/// assert_eq!(percentile(&xs, 50.0), 3.0);
/// assert_eq!(percentile(&xs, 100.0), 5.0);
/// ```
///
/// # Panics
///
/// Panics when `p` is outside `[0, 100]` or any value is `NaN`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of range");
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("percentile over NaN"));
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    sorted[rank.clamp(1, n) - 1]
}

/// Formats a count with thousands separators (`1234567` → `"1,234,567"`).
pub fn with_commas(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, c) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basic() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
            .into_iter()
            .collect();
        assert_eq!(s.mean(), 5.0);
        assert!((s.variance() - 4.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
        assert!(s.max().is_nan());
    }

    #[test]
    fn summary_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let all: Summary = xs.iter().copied().collect();
        let mut left: Summary = xs[..37].iter().copied().collect();
        let right: Summary = xs[37..].iter().copied().collect();
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn relative_error_edge_cases() {
        assert_eq!(relative_error_pct(0.0, 0.0), 0.0);
        assert_eq!(relative_error_pct(0.5, 0.0), 50.0);
        assert!((relative_error_pct(0.9, 1.0) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Unsorted input, tiny sample: every answer is an observed value.
        assert_eq!(percentile(&[9.0], 50.0), 9.0);
        assert_eq!(percentile(&[7.0, 3.0], 50.0), 3.0);
        assert_eq!(percentile(&[7.0, 3.0], 99.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_bad_p() {
        percentile(&[1.0], 101.0);
    }

    #[test]
    fn commas() {
        assert_eq!(with_commas(0), "0");
        assert_eq!(with_commas(999), "999");
        assert_eq!(with_commas(1000), "1,000");
        assert_eq!(with_commas(1234567), "1,234,567");
    }
}
