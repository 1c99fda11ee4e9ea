use std::error::Error;
use std::fmt;

use lion_geom::GeomError;
use lion_linalg::LinalgError;

/// Errors produced by the LION localization and calibration pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Not enough measurements to form the requested system.
    TooFewMeasurements {
        /// Measurements supplied.
        got: usize,
        /// Minimum required for this operation.
        needed: usize,
    },
    /// A measurement contained NaN/inf coordinates or phase.
    NonFiniteMeasurement {
        /// Index of the offending sample.
        index: usize,
    },
    /// The tag positions do not span enough dimensions for the requested
    /// localization (e.g. a single straight line for 3D — paper
    /// Sec. III-C2 proves this case unsolvable).
    DegenerateGeometry {
        /// Human-readable description.
        detail: String,
    },
    /// The lower-dimension recovery of the perpendicular coordinate failed:
    /// `d_r² < (distance in the solved subspace)²`, usually a sign of heavy
    /// noise or a wrong reference.
    RecoveryFailed {
        /// The (negative) discriminant encountered.
        discriminant: f64,
    },
    /// An invalid configuration value.
    InvalidConfig {
        /// The parameter name.
        parameter: &'static str,
        /// Display of the offending value.
        found: String,
    },
    /// No pairs could be generated with the configured strategy (interval
    /// too large for the scanned range, structured scan not matching the
    /// data, ...).
    NoPairs,
    /// An underlying linear-algebra failure.
    Linalg(LinalgError),
    /// An underlying geometry failure.
    Geometry(GeomError),
}

impl CoreError {
    /// A stable snake_case label for this error's variant, independent of
    /// the variant's payload — the key the observability layer uses for
    /// per-error-kind failure counters and report breakdowns.
    pub fn kind(&self) -> &'static str {
        match self {
            CoreError::TooFewMeasurements { .. } => "too_few_measurements",
            CoreError::NonFiniteMeasurement { .. } => "non_finite_measurement",
            CoreError::DegenerateGeometry { .. } => "degenerate_geometry",
            CoreError::RecoveryFailed { .. } => "recovery_failed",
            CoreError::InvalidConfig { .. } => "invalid_config",
            CoreError::NoPairs => "no_pairs",
            CoreError::Linalg(_) => "linalg",
            CoreError::Geometry(_) => "geometry",
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::TooFewMeasurements { got, needed } => {
                write!(f, "too few measurements: got {got}, need at least {needed}")
            }
            CoreError::NonFiniteMeasurement { index } => {
                write!(f, "non-finite measurement at index {index}")
            }
            CoreError::DegenerateGeometry { detail } => {
                write!(f, "degenerate trajectory geometry: {detail}")
            }
            CoreError::RecoveryFailed { discriminant } => write!(
                f,
                "lower-dimension recovery failed (negative discriminant {discriminant:.3e})"
            ),
            CoreError::InvalidConfig { parameter, found } => {
                write!(f, "invalid configuration {parameter}: {found}")
            }
            CoreError::NoPairs => write!(f, "pair selection produced no equations"),
            CoreError::Linalg(e) => write!(f, "linear algebra failure: {e}"),
            CoreError::Geometry(e) => write!(f, "geometry failure: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Linalg(e) => Some(e),
            CoreError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<LinalgError> for CoreError {
    fn from(e: LinalgError) -> Self {
        CoreError::Linalg(e)
    }
}

impl From<GeomError> for CoreError {
    fn from(e: GeomError) -> Self {
        CoreError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        let errors = [
            CoreError::TooFewMeasurements { got: 1, needed: 4 },
            CoreError::NonFiniteMeasurement { index: 3 },
            CoreError::DegenerateGeometry {
                detail: "single line for 3d".into(),
            },
            CoreError::RecoveryFailed { discriminant: -0.1 },
            CoreError::InvalidConfig {
                parameter: "interval",
                found: "-1".into(),
            },
            CoreError::NoPairs,
            CoreError::Linalg(LinalgError::Singular),
            CoreError::Geometry(GeomError::Degenerate { operation: "x" }),
        ];
        for e in errors {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn kinds_are_stable_snake_case_labels() {
        let pairs = [
            (
                CoreError::TooFewMeasurements { got: 1, needed: 4 },
                "too_few_measurements",
            ),
            (CoreError::NoPairs, "no_pairs"),
            (CoreError::Linalg(LinalgError::Singular), "linalg"),
        ];
        for (e, kind) in pairs {
            assert_eq!(e.kind(), kind);
            assert!(e.kind().chars().all(|c| c.is_ascii_lowercase() || c == '_'));
        }
    }

    #[test]
    fn sources_chain() {
        let e = CoreError::Linalg(LinalgError::Singular);
        assert!(e.source().is_some());
        assert!(CoreError::NoPairs.source().is_none());
    }

    #[test]
    fn send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
