//! The global workload scaling knob.
//!
//! DESIGN.md §2 scales the paper's instruction counts by 1/3000 while
//! preserving every ratio. [`Scale`] applies a *further* multiplicative
//! factor on top of that baseline so the same experiment definitions can run
//! at full fidelity (benchmark harness), reduced fidelity (examples) or as a
//! smoke test (unit/integration tests) without changing any code.
//!
//! Every front door that takes a factor from outside (the CLI's
//! `--scale` and `SAMPSIM_SCALE`, a served request's `scale`) accepts it
//! only through [`Scale::checked`], so one bound, [`Scale::MAX`], holds
//! everywhere.

/// A multiplicative scaling factor applied to workload sizes.
///
/// # Example
///
/// ```
/// use sampsim_util::scale::Scale;
/// let s = Scale::new(0.5);
/// assert_eq!(s.apply(10_000), 5_000);
/// assert_eq!(Scale::FULL.apply(10_000), 10_000);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    factor: f64,
}

impl Scale {
    /// Full paper-calibrated scale (factor 1.0).
    pub const FULL: Scale = Scale { factor: 1.0 };

    /// Tiny scale for unit and integration tests.
    pub const TEST: Scale = Scale { factor: 0.01 };

    /// The largest factor [`Scale::checked`] accepts. The largest suite
    /// program runs about 2.6e11 instructions at this scale; far above it
    /// the generated instruction counts overflow `u64`. No documented use
    /// goes above 1.0.
    pub const MAX: f64 = 1e3;

    /// Creates a scale with the given factor.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn new(factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive, got {factor}"
        );
        Self { factor }
    }

    /// The scale for a factor from outside the program: `None` unless
    /// the factor is positive and at most [`Scale::MAX`].
    pub fn checked(factor: f64) -> Option<Self> {
        (factor > 0.0 && factor <= Self::MAX).then_some(Self { factor })
    }

    /// The raw factor.
    pub fn factor(&self) -> f64 {
        self.factor
    }

    /// Scales a count, never returning less than 1.
    pub fn apply(&self, count: u64) -> u64 {
        ((count as f64 * self.factor).round() as u64).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::FULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_rounds_and_floors() {
        assert_eq!(Scale::new(0.001).apply(100), 1); // floor at 1
        assert_eq!(Scale::new(0.5).apply(3), 2); // 1.5 rounds to 2
        assert_eq!(Scale::new(2.0).apply(10), 20);
    }

    #[test]
    #[should_panic(expected = "scale factor must be finite and positive")]
    fn zero_factor_panics() {
        Scale::new(0.0);
    }

    #[test]
    fn checked_accepts_only_positive_factors_up_to_max() {
        assert_eq!(Scale::checked(0.5), Some(Scale::new(0.5)));
        assert_eq!(Scale::checked(Scale::MAX), Some(Scale::new(Scale::MAX)));
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, Scale::MAX * 2.0, 1e15] {
            assert_eq!(Scale::checked(bad), None, "{bad}");
        }
    }

    #[test]
    fn test_scale_is_small() {
        assert!(Scale::TEST.factor() < 0.1);
    }
}
