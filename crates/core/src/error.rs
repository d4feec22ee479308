//! Crate-wide error type.

use sampsim_analyze::Diagnostic;
use sampsim_pinball::PinballError;
use sampsim_simpoint::SimPointError;
use std::fmt;

/// Errors raised by the pipeline and experiment runners.
#[derive(Debug)]
pub enum CoreError {
    /// The pipeline configuration failed its lint pass. Carries every
    /// error-severity diagnostic the pass produced.
    Config(Vec<Diagnostic>),
    /// SimPoint analysis failed.
    SimPoint(SimPointError),
    /// Checkpoint attach/replay failed.
    Pinball(PinballError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Config(diags) => {
                write!(f, "invalid pipeline configuration:")?;
                for d in diags {
                    write!(f, " [{}] {};", d.rule.code(), d.message)?;
                }
                Ok(())
            }
            CoreError::SimPoint(e) => write!(f, "simpoint analysis failed: {e}"),
            CoreError::Pinball(e) => write!(f, "pinball error: {e}"),
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Config(_) => None,
            CoreError::SimPoint(e) => Some(e),
            CoreError::Pinball(e) => Some(e),
        }
    }
}

impl From<SimPointError> for CoreError {
    fn from(e: SimPointError) -> Self {
        CoreError::SimPoint(e)
    }
}

impl From<PinballError> for CoreError {
    fn from(e: PinballError) -> Self {
        CoreError::Pinball(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_nonempty() {
        let e = CoreError::from(SimPointError::NoSlices);
        assert!(!e.to_string().is_empty());
        assert!(std::error::Error::source(&e).is_some());
    }
}
