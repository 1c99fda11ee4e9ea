//! # lion-core
//!
//! The LION linear localization model and phase-calibration pipeline —
//! the primary contribution of *"Pinpoint Achilles' Heel in RFID
//! Localization: Phase Calibration of RFID Antenna based on Linear
//! Localization Model"* (ICDCS 2022).
//!
//! ## The idea
//!
//! A tag at known positions `{Tᵢ}` reporting phases `{θᵢ}` pins the antenna
//! to circles/spheres centered on the `Tᵢ`. Instead of intersecting those
//! quadratic loci (or the hyperbolas of TDoA), LION subtracts pairs of
//! circle equations: the quadratic terms cancel and each pair leaves a
//! **radical line** (2D) or **radical plane** (3D) — a *linear* equation in
//! the antenna coordinates plus one extra unknown, the reference distance
//! `d_r` that absorbs the phase ambiguity. Stacking many pairs gives an
//! overdetermined linear system solved in microseconds by (weighted) least
//! squares.
//!
//! ## Pipeline
//!
//! 1. [`preprocess`] — unwrap the modulo-2π phases, smooth
//!    ([`preprocess::PhaseProfile`]),
//! 2. [`pairs`] — choose sample pairs ([`pairs::PairStrategy`]),
//! 3. [`model`] — stack the linear system,
//! 4. [`Localizer`] — solve with the paper's weighted least squares in a
//!    [`SolveSpace`] (2D or 3D, a value rather than a type), recovering a
//!    missing perpendicular coordinate from `d_r` when the trajectory
//!    spans fewer dimensions than the space,
//! 5. [`adaptive`] — sweep scanning range/interval and keep the estimates
//!    whose mean residual is closest to zero,
//! 6. [`calibrate`] — convert the located phase center into the antenna's
//!    center displacement and hardware phase offset.
//!
//! # Example
//!
//! ```
//! use lion_core::{Localizer, LocalizerConfig, SolveSpace};
//! use lion_geom::Point3;
//! use std::f64::consts::{PI, TAU};
//!
//! # fn main() -> Result<(), lion_core::CoreError> {
//! // Simulate a tag circling the origin while an antenna at (1, 0) reads it.
//! let antenna = Point3::new(1.0, 0.0, 0.0);
//! let lambda = LocalizerConfig::default().wavelength;
//! let measurements: Vec<(Point3, f64)> = (0..200)
//!     .map(|i| {
//!         let a = i as f64 * TAU / 200.0;
//!         let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
//!         (p, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
//!     })
//!     .collect();
//! let est = Localizer::new(LocalizerConfig::paper(), SolveSpace::TwoD).locate(&measurements)?;
//! // Millimeter-level with the default smoothing window (which trades a
//! // small bias for noise robustness; set `smoothing_window = 1` for
//! // machine-precision recovery on clean data).
//! assert!(est.distance_error(antenna) < 5e-3);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod calibrate;
mod error;
mod localizer;
pub mod model;
pub mod multistatic;
pub mod pairs;
pub mod preprocess;
pub mod quality;
pub mod resolve;
pub mod solver;
pub mod tracking;
pub mod window;
pub mod workspace;

pub use adaptive::{
    AdaptiveConfig, AdaptiveConfigBuilder, AdaptiveOutcome, AdaptiveTrial, SweepPlan,
};
pub use calibrate::{
    estimate_offset, fuse_calibrations, Calibration, CalibrationSpread, Calibrator,
};
pub use error::CoreError;
pub use localizer::{Estimate, Localizer, LocalizerConfig, LocalizerConfigBuilder, Weighting};
pub use multistatic::{MultistaticConfig, MultistaticEstimate};
pub use pairs::PairStrategy;
pub use preprocess::PhaseProfile;
pub use quality::{validate_profile, ProfileQuality, StepViolation};
pub use resolve::{IncrementalState, ResolvePath};
pub use solver::{GridConfig, GridSolver, LinearSolver, SolveSpace, Solver, SolverKind};
pub use tracking::{ConveyorTracker, TrackPoint, TrackerConfig, TrackerConfigBuilder};
pub use window::{PushOutcome, SlidingWindow, WindowDelta, WindowSample};
pub use workspace::{StageMetrics, Workspace};
