//! # LION — Linear Localization for RFID Antenna Phase Calibration
//!
//! A from-scratch Rust reproduction of *"Pinpoint Achilles' Heel in RFID
//! Localization: Phase Calibration of RFID Antenna based on Linear
//! Localization Model"* (Bu et al., ICDCS 2022).
//!
//! This facade crate re-exports the whole workspace:
//!
//! - [`linalg`] — dense linear algebra (QR/LU/Cholesky/SVD, weighted and
//!   iteratively-reweighted least squares, Levenberg–Marquardt),
//! - [`geom`] — points, circles/spheres, radical lines/planes, trajectories,
//! - [`sim`] — the RF substrate: antennas with hidden phase centers, tags,
//!   multipath, noise, and a reader sampling phase measurements,
//! - [`core`] — the paper's contribution: the linear localization model,
//!   WLS estimation, adaptive parameter selection, and phase calibration,
//! - [`baselines`] — comparison methods: Tagoram's differential augmented
//!   hologram (DAH), hyperbola TDoA, and the parabola fit,
//! - [`engine`] — the parallel batch execution engine with per-stage
//!   instrumentation (and [`engine::Engine::run_streams`] for many
//!   concurrent tag streams),
//! - [`stream`] — the online pipeline: reads in one at a time, bounded
//!   sliding-window re-solves out, with convergence detection —
//!   bit-identical to the batch solver on the same window in replay
//!   mode, or O(delta) incremental re-solves
//!   ([`stream::ResolveMode::Incremental`]) within a documented 1e-6,
//! - [`obs`] — zero-dependency observability: structured spans/events
//!   with causal trace propagation, an always-on flight recorder that
//!   dumps the trace tail on failure, calibration-health watchdogs with
//!   fleet-wide rollups and SLO budgets, log-linear latency histograms,
//!   a telemetry registry with JSON-lines, Prometheus, and Chrome-trace
//!   (Perfetto) exporters, an embedded metrics time-series store with
//!   multi-resolution downsampling and a deterministic alerting engine
//!   ([`obs::tsdb`], [`obs::alert`]), and a live HTTP scrape plane
//!   ([`obs::http::TelemetryServer`]: `/metrics`, `/health`,
//!   `/snapshot`, `/trace`, `/profile`, `/query`, `/alerts`),
//!
//! and bundles the types most programs touch into [`prelude`], plus the
//! workspace-wide [`Error`] that every per-crate error converts into.
//!
//! # Quickstart
//!
//! Calibrate a simulated antenna's phase center in the 2D plane:
//!
//! ```
//! use lion::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // An antenna whose true phase center is 2 cm off its physical center.
//! let antenna = Antenna::builder(Point3::new(0.0, 0.8, 0.0))
//!     .phase_center_displacement(0.02, 0.0, 0.0)
//!     .build();
//! let track = LineSegment::along_x(-0.4, 0.4, 0.0, 0.0)?;
//! let trace = ScenarioBuilder::new()
//!     .antenna(antenna)
//!     .tag(Tag::new("E51-quickstart"))
//!     .seed(7)
//!     .build()?
//!     .scan(&track, 0.1, 100.0)?;
//!
//! let estimate = Localizer::new(LocalizerConfig::paper(), SolveSpace::TwoD)
//!     .locate(&trace.to_measurements())?;
//! // The estimate recovers the hidden phase center, not the physical one.
//! assert!((estimate.position.x - 0.02).abs() < 0.01);
//! assert!((estimate.position.y - 0.8).abs() < 0.01);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

mod error;

pub use error::Error;

pub use lion_baselines as baselines;
pub use lion_core as core;
pub use lion_engine as engine;
pub use lion_geom as geom;
pub use lion_linalg as linalg;
pub use lion_obs as obs;
pub use lion_sim as sim;
pub use lion_stream as stream;

/// One-stop imports for the common LION workflow: simulate (or load) a
/// trace, localize or calibrate, and optionally batch the work across
/// cores with the [`engine`].
///
/// ```
/// use lion::prelude::*;
///
/// let config = LocalizerConfig::builder().smoothing_window(21).build().unwrap();
/// let _localizer = Localizer::new(config, SolveSpace::ThreeD);
/// let _engine = Engine::serial();
/// ```
pub mod prelude {
    pub use crate::Error;
    pub use lion_core::{
        AdaptiveConfig, Calibration, Calibrator, ConveyorTracker, Estimate, GridConfig, Localizer,
        LocalizerConfig, PairStrategy, PhaseProfile, ResolvePath, SolveSpace, SolverKind,
        StageMetrics, TrackerConfig,
    };
    pub use lion_engine::{Engine, Job, MetricsReport, StreamJob};
    pub use lion_geom::{CircularArc, LineSegment, Point3, Trajectory, Vec3};
    pub use lion_obs::{
        install_flight_recorder, install_telemetry_hub, uninstall_telemetry_hub, AlertExpr,
        AlertRule, Doctor, DoctorConfig, FlightSnapshot, HealthReport, Histogram, HistoryConfig,
        ManualClock, Registry, SloConfig, TelemetryServer, Tier, TraceContext,
    };
    pub use lion_sim::{
        Antenna, Environment, NoiseModel, PhaseTrace, SampleSource, ScenarioBuilder, Tag,
    };
    pub use lion_stream::{
        Cadence, ConvergenceConfig, ResolveMode, StreamConfig, StreamEstimate, StreamLocalizer,
        StreamRead,
    };
}
