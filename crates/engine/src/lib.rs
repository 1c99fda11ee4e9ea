//! # lion-engine
//!
//! Work-queue batch execution for LION localization and calibration.
//!
//! The solver itself ([`lion_core`]) locates one antenna from one trace in
//! microseconds; production deployments (and the paper's own evaluation)
//! run *many* independent solves — one per antenna, per trial, per
//! parameter setting. This crate fans a batch of such [`Job`]s across a
//! fixed pool of scoped worker threads:
//!
//! - **Deterministic**: results come back in submission order, and every
//!   job computes on its own immutable inputs with a thread-local
//!   [`lion_core::Workspace`], so the estimates are bit-identical to a
//!   serial run regardless of the worker count.
//! - **Allocation-free steady state**: each worker reuses one workspace
//!   (design matrix, RHS, IRLS scratch) across all the jobs it drains.
//! - **Instrumented**: the counters the workspace records
//!   ([`lion_core::StageMetrics`]) are collected per job and aggregated
//!   into a [`MetricsReport`], with the engine's queue-wait and execute
//!   distributions. Per-stage time is measured by the `lion.*` spans.
//!
//! # Example
//!
//! ```
//! use lion_engine::{Engine, Job};
//! use lion_core::LocalizerConfig;
//! use lion_geom::Point3;
//! use std::f64::consts::{PI, TAU};
//!
//! # fn main() -> Result<(), lion_core::CoreError> {
//! let antenna = Point3::new(1.0, 0.0, 0.0);
//! let lambda = LocalizerConfig::paper().wavelength;
//! let trace: Vec<(Point3, f64)> = (0..200)
//!     .map(|i| {
//!         let a = i as f64 * TAU / 200.0;
//!         let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
//!         (p, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
//!     })
//!     .collect();
//! let jobs: Vec<Job> = (0..8)
//!     .map(|_| Job::locate_2d(trace.clone(), LocalizerConfig::paper()))
//!     .collect();
//! let outcome = Engine::builder().workers(2).build()?.run(&jobs);
//! assert_eq!(outcome.results.len(), 8);
//! let est = outcome.results[0].as_ref().expect("clean trace locates");
//! assert!(est.estimate().expect("locate job").distance_error(antenna) < 5e-3);
//! assert!(outcome.report.total.solves >= 8);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod job;
pub mod metrics;
mod stream;

pub use engine::{BatchOutcome, Engine, EngineBuilder};
pub use job::{Job, JobKind, JobOutput};
pub use metrics::{JobTiming, MetricsReport};
pub use stream::{StreamJob, StreamOutcome};
