//! # lion-sim
//!
//! RF simulation substrate for the LION reproduction (ICDCS 2022).
//!
//! The paper's testbed is an ImpinJ Speedway R420 reader, a Laird S9028PCL
//! directional antenna, and ImpinJ E41-B/E51 tags on a motorized slide. This
//! crate replaces that hardware with a physically faithful model of what the
//! reader reports — per paper Eq. (1):
//!
//! ```text
//! θ = (θ_d + θ_T + θ_R) mod 2π,   θ_d = (2π/λ)·2d
//! ```
//!
//! with every imperfection the paper calibrates away made explicit:
//!
//! - the [`Antenna`]'s **phase center** is displaced from its physical
//!   center (Sec. II-A measured 2–3 cm on real hardware) — signals really
//!   emanate from the hidden phase center,
//! - per-[`Antenna`] and per-[`Tag`] **phase offsets** `θ_R`, `θ_T`
//!   (Sec. II-B, Fig. 3),
//! - **multipath** from point reflectors, summed as complex amplitudes
//!   ([`Environment`]),
//! - **thermal phase noise**, optionally SNR-dependent so samples taken
//!   off-beam or at depth are noisier ([`NoiseModel`]) — this reproduces
//!   the range/depth effects of the paper's Figs. 14 and 16–18.
//!
//! A [`Scenario`] ties these together and produces [`PhaseTrace`]s by
//! scanning a tag along any [`lion_geom::Trajectory`].
//!
//! # Example
//!
//! ```
//! use lion_geom::{LineSegment, Point3};
//! use lion_sim::{Antenna, ScenarioBuilder, Tag};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let antenna = Antenna::builder(Point3::new(0.0, 0.8, 0.0))
//!     .phase_center_displacement(0.02, -0.01, 0.0)
//!     .phase_offset(2.7)
//!     .build();
//! let mut scenario = ScenarioBuilder::new()
//!     .antenna(antenna)
//!     .tag(Tag::new("E51"))
//!     .seed(42)
//!     .build()?;
//! let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0)?;
//! let trace = scenario.scan(&track, 0.1, 100.0)?;
//! assert_eq!(trace.len(), 1001);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod antenna;
mod channel;
mod environment;
mod io;
mod motion;
mod noise;
mod reader;
mod rf;
mod scenario;
mod source;
mod tag;

pub use antenna::{Antenna, AntennaBuilder};
pub use channel::{compute_response, ChannelResponse};
pub use environment::{Environment, Reflector, Wall};
pub use io::CSV_HEADER;
pub use motion::PositionErrorModel;
pub use noise::NoiseModel;
pub use reader::{InventoryConfig, MissModel, Reader};
pub use rf::{FrequencyPlan, SPEED_OF_LIGHT, US_DEFAULT_FREQUENCY_HZ};
pub use scenario::{PhaseSample, PhaseTrace, Scenario, ScenarioBuilder};
pub use source::SampleSource;
pub use tag::Tag;

/// Errors produced by the simulation substrate.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A scenario was built without a required component.
    MissingComponent {
        /// The missing component name.
        component: &'static str,
    },
    /// An invalid parameter was supplied.
    InvalidParameter {
        /// The parameter name.
        parameter: &'static str,
        /// Display of the offending value.
        found: String,
    },
    /// A geometry error bubbled up from trajectory handling.
    Geometry(lion_geom::GeomError),
    /// A trace file/stream failed to parse.
    Parse {
        /// 1-based line number (0 for stream-level failures).
        line: usize,
        /// Human-readable description.
        detail: String,
    },
}

impl SimError {
    /// A stable snake_case label for this error's variant, independent of
    /// the variant's payload — the same taxonomy contract as
    /// `lion_core::CoreError::kind` (used for failure counters and the
    /// workspace-wide `lion::Error::kind`).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::MissingComponent { .. } => "missing_component",
            SimError::InvalidParameter { .. } => "invalid_parameter",
            SimError::Geometry(_) => "geometry",
            SimError::Parse { .. } => "parse",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::MissingComponent { component } => {
                write!(f, "scenario is missing required component: {component}")
            }
            SimError::InvalidParameter { parameter, found } => {
                write!(f, "invalid parameter {parameter}: {found}")
            }
            SimError::Geometry(e) => write!(f, "geometry error: {e}"),
            SimError::Parse { line, detail } => {
                write!(f, "trace parse error at line {line}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Geometry(e) => Some(e),
            _ => None,
        }
    }
}

impl From<lion_geom::GeomError> for SimError {
    fn from(e: lion_geom::GeomError) -> Self {
        SimError::Geometry(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = SimError::MissingComponent {
            component: "antenna",
        };
        assert!(e.to_string().contains("antenna"));
        let e = SimError::InvalidParameter {
            parameter: "speed",
            found: "-1".into(),
        };
        assert!(e.to_string().contains("speed"));
        let e: SimError = lion_geom::GeomError::Degenerate { operation: "x" }.into();
        assert!(e.to_string().contains("geometry"));
        let e = SimError::Parse {
            line: 3,
            detail: "bad field".into(),
        };
        assert!(e.to_string().contains("line 3"));
    }
}
