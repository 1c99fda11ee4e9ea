//! Continuous tag tracking — the paper's conveyor application
//! (Sec. V-C2) as a streaming API.
//!
//! A static, calibrated antenna watches tagged items ride a conveyor with
//! known velocity. Localizing an item from one antenna is the mirror image
//! of localizing an antenna from one tag: inside a sliding window, the
//! item's positions *relative to the window start* are known
//! (`δⱼ = v·(tⱼ − t₀)`), so LION solves for the antenna position `q` in
//! that frame and the item position follows as `antenna − q`. Each window
//! yields one [`TrackPoint`]; overlapping windows trace the item through
//! the read zone.

use lion_geom::{Point3, Vec3};
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::localizer::{Estimate, Localizer, LocalizerConfig};
use crate::solver::SolveSpace;

/// One tracking output: where the item was at `time`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrackPoint {
    /// Timestamp of the window start (seconds, reader clock).
    pub time: f64,
    /// Estimated item position at that instant.
    pub position: Point3,
    /// The underlying localization estimate (diagnostics).
    pub estimate: Estimate,
}

/// Configuration for [`ConveyorTracker`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrackerConfig {
    /// The calibrated antenna phase center (world coordinates).
    pub antenna: Point3,
    /// Conveyor velocity (m/s, world coordinates).
    pub velocity: Vec3,
    /// Samples per sliding window. Windows shorter than the read zone
    /// trade accuracy for latency.
    pub window: usize,
    /// Samples to advance between windows.
    pub stride: usize,
    /// Localizer settings for each window solve.
    pub localizer: LocalizerConfig,
}

impl TrackerConfig {
    /// Starts a validating builder seeded with the belt-along-x defaults
    /// for an antenna at `antenna` (1 m/s belt; call
    /// [`TrackerConfigBuilder::velocity`] to change it).
    ///
    /// # Example
    ///
    /// ```
    /// use lion_core::TrackerConfig;
    /// use lion_geom::{Point3, Vec3};
    ///
    /// # fn main() -> Result<(), lion_core::CoreError> {
    /// let cfg = TrackerConfig::builder(Point3::new(0.0, 0.8, 0.0))
    ///     .velocity(Vec3::new(0.1, 0.0, 0.0))
    ///     .window(600)
    ///     .stride(100)
    ///     .build()?;
    /// assert_eq!(cfg.window, 600);
    /// assert!(
    ///     TrackerConfig::builder(Point3::ORIGIN).window(4).build().is_err()
    /// );
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder(antenna: Point3) -> TrackerConfigBuilder {
        TrackerConfigBuilder {
            config: TrackerConfig::belt_along_x(antenna, 1.0),
        }
    }

    /// Checks the tracker invariants: nonzero finite velocity, window ≥ 8,
    /// stride ≥ 1. [`ConveyorTracker::new`] runs the same checks.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.velocity.norm() == 0.0 || !self.velocity.norm().is_finite() {
            return Err(CoreError::InvalidConfig {
                parameter: "velocity",
                found: format!("{}", self.velocity),
            });
        }
        if self.window < 8 {
            return Err(CoreError::InvalidConfig {
                parameter: "window",
                found: format!("{}", self.window),
            });
        }
        if self.stride == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "stride",
                found: "0".to_string(),
            });
        }
        Ok(())
    }

    /// A sensible default for a belt moving along +x at `speed` m/s under
    /// an antenna at `antenna`.
    pub fn belt_along_x(antenna: Point3, speed: f64) -> Self {
        let localizer = LocalizerConfig {
            // The antenna is above/behind the belt: use it as the mirror
            // hint.
            side_hint: Some(antenna),
            ..LocalizerConfig::default()
        };
        TrackerConfig {
            antenna,
            velocity: Vec3::new(speed, 0.0, 0.0),
            // The window must span enough belt travel for the radical-line
            // geometry to be observable — the paper's scanning-range sweet
            // spot is ~0.8 m (Fig. 16/17); at 120 reads/s and 0.1 m/s this
            // is ~6 s ≈ 0.6 m of travel.
            window: 720,
            stride: 120,
            localizer,
        }
    }
}

/// Validating builder for [`TrackerConfig`]. Created by
/// [`TrackerConfig::builder`]; struct-literal construction keeps working.
#[derive(Debug, Clone)]
pub struct TrackerConfigBuilder {
    config: TrackerConfig,
}

impl TrackerConfigBuilder {
    /// Sets the conveyor velocity (m/s, world coordinates).
    pub fn velocity(mut self, velocity: Vec3) -> Self {
        self.config.velocity = velocity;
        self
    }

    /// Sets the samples per sliding window (must be ≥ 8).
    pub fn window(mut self, window: usize) -> Self {
        self.config.window = window;
        self
    }

    /// Sets the samples to advance between windows (must be ≥ 1).
    pub fn stride(mut self, stride: usize) -> Self {
        self.config.stride = stride;
        self
    }

    /// Sets the localizer settings used for each window solve.
    pub fn localizer(mut self, localizer: LocalizerConfig) -> Self {
        self.config.localizer = localizer;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`TrackerConfig::validate`].
    pub fn build(self) -> Result<TrackerConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// Sliding-window tracker for items on a conveyor of known velocity.
///
/// # Example
///
/// ```
/// use lion_core::tracking::{ConveyorTracker, TrackerConfig};
/// use lion_geom::Point3;
/// use std::f64::consts::{PI, TAU};
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// // Item starts at x = -0.4 and rides the belt at 0.1 m/s; a calibrated
/// // antenna sits at (0, 0.8).
/// let antenna = Point3::new(0.0, 0.8, 0.0);
/// let lambda = 299_792_458.0 / 920.625e6;
/// let reads: Vec<(f64, f64)> = (0..800)
///     .map(|i| {
///         let t = i as f64 * 0.01;
///         let p = Point3::new(-0.4 + 0.1 * t, 0.0, 0.0);
///         (t, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
///     })
///     .collect();
/// let mut config = TrackerConfig::belt_along_x(antenna, 0.1);
/// config.localizer.smoothing_window = 1;
/// let tracker = ConveyorTracker::new(config)?;
/// let track = tracker.track(&reads)?;
/// assert!(!track.is_empty());
/// // First window starts at t = 0, where the item truly was at x = -0.4.
/// assert!((track[0].position.x + 0.4).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ConveyorTracker {
    config: TrackerConfig,
}

impl ConveyorTracker {
    /// Creates a tracker.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for a zero velocity, a window
    /// below 8 samples, or a zero stride.
    pub fn new(config: TrackerConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(ConveyorTracker { config })
    }

    /// The configuration in use.
    pub fn config(&self) -> &TrackerConfig {
        &self.config
    }

    /// Tracks one item through the read zone from timestamped phase reads
    /// `(time, wrapped phase)`. Reads may be irregularly spaced (e.g. from
    /// an inventory layer with misses) but must be in time order.
    ///
    /// Windows whose solve fails (too few reads, degenerate geometry) are
    /// skipped; an empty result means no window was solvable.
    ///
    /// # Errors
    ///
    /// - [`CoreError::TooFewMeasurements`] when there are fewer reads than
    ///   one window,
    /// - [`CoreError::InvalidConfig`] when timestamps are not
    ///   non-decreasing or not finite.
    pub fn track(&self, reads: &[(f64, f64)]) -> Result<Vec<TrackPoint>, CoreError> {
        let cfg = &self.config;
        if reads.len() < cfg.window {
            return Err(CoreError::TooFewMeasurements {
                got: reads.len(),
                needed: cfg.window,
            });
        }
        for (i, w) in reads.windows(2).enumerate() {
            if !w[0].0.is_finite() || !w[0].1.is_finite() {
                return Err(CoreError::NonFiniteMeasurement { index: i });
            }
            if w[1].0 < w[0].0 {
                return Err(CoreError::InvalidConfig {
                    parameter: "reads",
                    found: format!("timestamps decrease at index {}", i + 1),
                });
            }
        }
        let localizer = Localizer::new(cfg.localizer.clone(), SolveSpace::TwoD);
        let mut out = Vec::new();
        let mut start = 0;
        while start + cfg.window <= reads.len() {
            let window = &reads[start..start + cfg.window];
            let t0 = window[0].0;
            // Relative positions from the known belt motion.
            let rel: Vec<(Point3, f64)> = window
                .iter()
                .map(|&(t, phase)| (Point3::ORIGIN + cfg.velocity * (t - t0), phase))
                .collect();
            // The hint must be expressed in the window frame: antenna
            // relative to (unknown) item position — only the side matters,
            // so project the world hint onto the perpendicular space.
            if let Ok(estimate) = localizer.locate(&rel) {
                let position = Point3::new(
                    cfg.antenna.x - estimate.position.x,
                    cfg.antenna.y - estimate.position.y,
                    cfg.antenna.z - estimate.position.z,
                );
                out.push(TrackPoint {
                    time: t0,
                    position,
                    estimate,
                });
            }
            start += cfg.stride;
        }
        Ok(out)
    }

    /// Predicted item position at `query_time` from a track point,
    /// extrapolating along the belt.
    pub fn extrapolate(&self, point: &TrackPoint, query_time: f64) -> Point3 {
        point.position + self.config.velocity * (query_time - point.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn reads_for(antenna: Point3, start: Point3, speed: f64, n: usize, dt: f64) -> Vec<(f64, f64)> {
        (0..n)
            .map(|i| {
                let t = i as f64 * dt;
                let p = Point3::new(start.x + speed * t, start.y, start.z);
                let phase = (4.0 * PI * antenna.distance(p) / LAMBDA).rem_euclid(TAU);
                (t, phase)
            })
            .collect()
    }

    fn tracker(antenna: Point3) -> ConveyorTracker {
        let mut config = TrackerConfig::belt_along_x(antenna, 0.1);
        config.localizer.smoothing_window = 1;
        config.window = 300;
        config.stride = 100;
        ConveyorTracker::new(config).expect("valid config")
    }

    #[test]
    fn tracks_item_through_read_zone() {
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let start = Point3::new(-0.5, 0.0, 0.0);
        let reads = reads_for(antenna, start, 0.1, 1000, 0.01);
        let track = tracker(antenna).track(&reads).expect("tracks");
        assert!(track.len() >= 5, "{} windows", track.len());
        for tp in &track {
            // Truth at the window start.
            let truth = Point3::new(start.x + 0.1 * tp.time, 0.0, 0.0);
            assert!(
                tp.position.to_xy().distance(truth.to_xy()) < 0.01,
                "t={}: est {} vs truth {}",
                tp.time,
                tp.position,
                truth
            );
        }
        // Track times advance by stride × dt.
        for w in track.windows(2) {
            assert!((w[1].time - w[0].time - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn handles_irregular_timestamps() {
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let start = Point3::new(-0.5, 0.0, 0.0);
        let mut reads = reads_for(antenna, start, 0.1, 1000, 0.01);
        // Drop a third of the reads (simulated misses).
        let mut i = 0;
        reads.retain(|_| {
            i += 1;
            i % 3 != 0
        });
        let track = tracker(antenna).track(&reads).expect("tracks");
        assert!(!track.is_empty());
        for tp in &track {
            let truth = Point3::new(start.x + 0.1 * tp.time, 0.0, 0.0);
            assert!(tp.position.to_xy().distance(truth.to_xy()) < 0.01);
        }
    }

    #[test]
    fn extrapolation_moves_with_belt() {
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let t = tracker(antenna);
        let tp = TrackPoint {
            time: 2.0,
            position: Point3::new(-0.3, 0.0, 0.0),
            estimate: Estimate {
                position: Point3::new(0.3, 0.8, 0.0),
                reference_distance: 0.9,
                reference_position: Point3::ORIGIN,
                mean_residual: 0.0,
                weighted_rms: 0.0,
                iterations: 0,
                equation_count: 10,
                lower_dimension: true,
                position_std: lion_geom::Vec3::new(0.0, 0.0, 0.0),
            },
        };
        let p = t.extrapolate(&tp, 3.0);
        assert!((p.x + 0.2).abs() < 1e-12);
        let back = t.extrapolate(&tp, 1.0);
        assert!((back.x + 0.4).abs() < 1e-12);
    }

    #[test]
    fn config_validation() {
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let mut c = TrackerConfig::belt_along_x(antenna, 0.1);
        c.velocity = Vec3::new(0.0, 0.0, 0.0);
        assert!(ConveyorTracker::new(c).is_err());
        let mut c = TrackerConfig::belt_along_x(antenna, 0.1);
        c.window = 4;
        assert!(ConveyorTracker::new(c).is_err());
        let mut c = TrackerConfig::belt_along_x(antenna, 0.1);
        c.stride = 0;
        assert!(ConveyorTracker::new(c).is_err());
    }

    #[test]
    fn input_validation() {
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let t = tracker(antenna);
        assert!(matches!(
            t.track(&[(0.0, 0.1); 10]),
            Err(CoreError::TooFewMeasurements { .. })
        ));
        let mut reads = reads_for(antenna, Point3::new(-0.5, 0.0, 0.0), 0.1, 400, 0.01);
        reads[100].0 = 0.0; // time goes backwards
        assert!(matches!(
            t.track(&reads),
            Err(CoreError::InvalidConfig { .. })
        ));
        let mut reads = reads_for(antenna, Point3::new(-0.5, 0.0, 0.0), 0.1, 400, 0.01);
        reads[5].1 = f64::NAN;
        assert!(matches!(
            t.track(&reads),
            Err(CoreError::NonFiniteMeasurement { .. })
        ));
    }
}
