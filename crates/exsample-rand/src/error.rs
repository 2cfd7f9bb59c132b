//! Error type shared by all distribution constructors.

use std::fmt;

/// Error returned when a distribution is constructed with invalid parameters.
///
/// Each distribution constructor validates its parameters up front and returns this
/// error rather than panicking, so workload-generation code can surface bad
/// configurations (e.g. a negative duration mean read from a sweep definition) as
/// ordinary `Result`s.
#[derive(Debug, Clone, PartialEq)]
pub enum DistributionError {
    /// A parameter that must be strictly positive was zero or negative (or NaN).
    NonPositiveParameter {
        /// Which distribution rejected the parameter.
        distribution: &'static str,
        /// The parameter name as it appears in the constructor.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A parameter that must be finite was NaN or infinite.
    NonFiniteParameter {
        /// Which distribution rejected the parameter.
        distribution: &'static str,
        /// The parameter name as it appears in the constructor.
        parameter: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for DistributionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DistributionError::NonPositiveParameter {
                distribution,
                parameter,
                value,
            } => write!(
                f,
                "{distribution}: parameter `{parameter}` must be > 0, got {value}"
            ),
            DistributionError::NonFiniteParameter {
                distribution,
                parameter,
                value,
            } => write!(
                f,
                "{distribution}: parameter `{parameter}` must be finite, got {value}"
            ),
        }
    }
}

impl std::error::Error for DistributionError {}

/// Validate that `value` is finite, returning a [`DistributionError`] otherwise.
pub(crate) fn ensure_finite(
    distribution: &'static str,
    parameter: &'static str,
    value: f64,
) -> Result<(), DistributionError> {
    if value.is_finite() {
        Ok(())
    } else {
        Err(DistributionError::NonFiniteParameter {
            distribution,
            parameter,
            value,
        })
    }
}

/// Validate that `value` is strictly positive and finite.
pub(crate) fn ensure_positive(
    distribution: &'static str,
    parameter: &'static str,
    value: f64,
) -> Result<(), DistributionError> {
    ensure_finite(distribution, parameter, value)?;
    if value > 0.0 {
        Ok(())
    } else {
        Err(DistributionError::NonPositiveParameter {
            distribution,
            parameter,
            value,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ensure_positive_accepts_positive() {
        assert!(ensure_positive("Gamma", "shape", 0.5).is_ok());
    }

    #[test]
    fn ensure_positive_rejects_zero_and_negative() {
        assert!(ensure_positive("Gamma", "shape", 0.0).is_err());
        assert!(ensure_positive("Gamma", "shape", -1.0).is_err());
    }

    #[test]
    fn ensure_positive_rejects_nan_and_inf() {
        assert!(matches!(
            ensure_positive("Gamma", "shape", f64::NAN),
            Err(DistributionError::NonFiniteParameter { .. })
        ));
        assert!(matches!(
            ensure_positive("Gamma", "shape", f64::INFINITY),
            Err(DistributionError::NonFiniteParameter { .. })
        ));
    }

    #[test]
    fn display_is_human_readable() {
        let err = DistributionError::NonPositiveParameter {
            distribution: "Gamma",
            parameter: "rate",
            value: -2.0,
        };
        let text = err.to_string();
        assert!(text.contains("Gamma"));
        assert!(text.contains("rate"));
        assert!(text.contains("-2"));
    }
}
