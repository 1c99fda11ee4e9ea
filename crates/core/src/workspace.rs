//! Reusable solver workspaces and per-stage counters.
//!
//! A [`Workspace`] owns the buffers the LION pipeline fills on every solve
//! — the normal equations the radical-line rows are written into, the
//! frame coordinates, and the IRLS scratch — so a hot loop (the batch engine's
//! workers, the conveyor tracker, the adaptive sweep) reuses one set of
//! allocations instead of allocating per solve. It also carries
//! [`StageMetrics`]: the counters that every workspace-threaded entry
//! point (`locate_in`, `locate_adaptive_in`, `calibrate_in`) records
//! into. Stage time is measured by the `lion.*` spans, not here.
//!
//! Workspace reuse never changes results: every buffer is fully rewritten
//! by each solve, so `locate_in` with a reused workspace is bit-identical
//! to `locate` with a fresh one.

use lion_geom::Point3;
use lion_linalg::{NormalEq, NormalIrlsScratch};
use serde::{Deserialize, Serialize};

use crate::adaptive::{RangeSlot, RangeUnit};
use crate::localizer::Prepared;
use crate::preprocess::PhaseProfile;

/// Exact counters accumulated across the localization runs recorded
/// into one [`Workspace`].
///
/// Every field is a pure function of the inputs solved, so the metrics
/// of a job are the same on every run and every worker count. Per-stage
/// time is not recorded here: the `lion.unwrap`, `lion.smooth`,
/// `lion.prepare`, `lion.pairs`, `lion.solve`, `lion.adaptive` and
/// `lion.offset` spans measure it.
///
/// # Example
///
/// ```
/// use lion_core::{Localizer, LocalizerConfig, SolveSpace, Workspace};
/// use lion_geom::Point3;
/// use std::f64::consts::{PI, TAU};
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let antenna = Point3::new(0.5, 0.8, 0.0);
/// let lambda = LocalizerConfig::paper().wavelength;
/// let m: Vec<(Point3, f64)> = (0..120)
///     .map(|i| {
///         let a = i as f64 * TAU / 120.0;
///         let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
///         (p, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
///     })
///     .collect();
/// let mut ws = Workspace::new();
/// Localizer::new(LocalizerConfig::paper(), SolveSpace::TwoD).locate_in(&m, &mut ws)?;
/// let metrics = ws.take_metrics();
/// assert_eq!(metrics.solves, 1);
/// assert!(metrics.equations > 0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageMetrics {
    /// Number of linear-system solves performed.
    pub solves: u64,
    /// Total IRLS reweighting iterations across all solves.
    pub irls_iterations: u64,
    /// Solves whose IRLS stopped at `max_iterations` without meeting its
    /// tolerance (their estimate is the last iterate, not the fixed
    /// point).
    pub irls_unconverged: u64,
    /// Total stacked radical-line/plane equations across all solves.
    pub equations: u64,
    /// Reads excluded by adaptive scanning-range restriction.
    pub reads_dropped: u64,
    /// Successful `(range, interval)` trials across adaptive sweeps.
    pub adaptive_trials: u64,
    /// Skipped `(range, interval)` combinations across adaptive sweeps.
    pub adaptive_skipped: u64,
    /// Trials an adaptive sweep copied from an earlier scanning range
    /// that keeps the same reads, instead of solving them (included in
    /// `adaptive_trials`).
    pub adaptive_cells_reused: u64,
    /// Always 0; removed with the benchmark's next revision.
    pub adaptive_gram_rebuilds: u64,
}

impl StageMetrics {
    /// Adds every counter of `other` into `self`.
    pub fn merge(&mut self, other: &StageMetrics) {
        self.solves += other.solves;
        self.irls_iterations += other.irls_iterations;
        self.irls_unconverged += other.irls_unconverged;
        self.equations += other.equations;
        self.reads_dropped += other.reads_dropped;
        self.adaptive_trials += other.adaptive_trials;
        self.adaptive_skipped += other.adaptive_skipped;
        self.adaptive_cells_reused += other.adaptive_cells_reused;
    }

    /// Resets every counter to zero.
    pub fn reset(&mut self) {
        *self = StageMetrics::default();
    }
}

/// Reusable solver state for the LION pipeline.
///
/// Holds the normal equations, frame-coordinate buffer, and
/// least-squares scratch that [`crate::Localizer::locate_in`] and
/// friends fill on every run, plus the [`StageMetrics`] they record into.
/// Create one per worker/thread and reuse it across solves; see the
/// module docs for the reuse guarantee.
#[derive(Debug, Clone)]
pub struct Workspace {
    pub(crate) metrics: StageMetrics,
    /// Staging for windowed solves: a [`crate::SlidingWindow`]'s
    /// `(position, wrapped phase)` reads are copied here (capacity
    /// retained across solves) and run through the batch pipeline.
    pub(crate) measurements: Vec<(Point3, f64)>,
    /// Reusable unwrapped/smoothed profile; `locate_in` and the adaptive
    /// sweep stage their preprocessing here instead of allocating a fresh
    /// profile per call.
    pub(crate) profile: PhaseProfile,
    /// The interval-independent half of the current solve: frame,
    /// reference deltas, frame coordinates and scan lines.
    pub(crate) prepared: Prepared,
    /// Sample pairs of the batch solve path as `i32` endpoint index
    /// lanes, written by the pair strategy and gathered by the SIMD
    /// row-assembly kernel.
    pub(crate) pair_i: Vec<i32>,
    pub(crate) pair_j: Vec<i32>,
    /// Solution of the last batch solve (coordinates then `d_r`).
    pub(crate) solution: Vec<f64>,
    /// Per-parameter standard errors of the last batch solve.
    pub(crate) param_std: Vec<f64>,
    /// Normal equations of the batch solve path; the radical-line rows
    /// are assembled straight into its storage.
    pub(crate) ne: NormalEq,
    /// IRLS scratch of the batch weighted solve path.
    pub(crate) ne_irls: NormalIrlsScratch,
    /// Covariance-diagonal scratch of the batch weighted solve path.
    pub(crate) cov_diag: Vec<f64>,
    /// Moving-average prefix-sum scratch.
    pub(crate) smooth_prefix: Vec<f64>,
    /// Moving-average output scratch.
    pub(crate) smooth_tmp: Vec<f64>,
    /// The adaptive sweep's current scanning range, restricted and
    /// prepared.
    pub(crate) sweep_range: RangeUnit,
    /// Per-range bookkeeping of the adaptive sweep.
    pub(crate) range_slots: Vec<RangeSlot>,
}

impl Workspace {
    /// Creates an empty workspace; buffers grow on first use and are then
    /// reused.
    pub fn new() -> Self {
        Workspace {
            metrics: StageMetrics::default(),
            measurements: Vec::new(),
            profile: PhaseProfile::default(),
            prepared: Prepared::default(),
            pair_i: Vec::new(),
            pair_j: Vec::new(),
            solution: Vec::new(),
            param_std: Vec::new(),
            ne: NormalEq::new(),
            ne_irls: NormalIrlsScratch::new(),
            cov_diag: Vec::new(),
            smooth_prefix: Vec::new(),
            smooth_tmp: Vec::new(),
            sweep_range: RangeUnit::default(),
            range_slots: Vec::new(),
        }
    }

    /// The `(position, wrapped phase)` reads the last
    /// [`crate::Localizer::locate_window_in`] call staged: the window's
    /// contents at that solve, which a caller fits against the solved
    /// position without copying the window again. An O(delta)
    /// [`crate::IncrementalState`] tick stages nothing, so after one this
    /// holds an older window.
    pub fn staged_window(&self) -> &[(Point3, f64)] {
        &self.measurements
    }

    /// The metrics accumulated so far.
    pub fn metrics(&self) -> &StageMetrics {
        &self.metrics
    }

    /// Returns the accumulated metrics and resets them to zero, leaving
    /// the solver buffers (and their capacity) intact. The batch engine
    /// calls this after each job to get per-job stage metrics.
    pub fn take_metrics(&mut self) -> StageMetrics {
        std::mem::take(&mut self.metrics)
    }
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_fields() {
        let mut a = StageMetrics {
            solves: 3,
            irls_unconverged: 1,
            ..StageMetrics::default()
        };
        let b = StageMetrics {
            solves: 30,
            equations: 7,
            irls_unconverged: 2,
            ..StageMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.solves, 33);
        assert_eq!(a.equations, 7);
        assert_eq!(a.irls_unconverged, 3);
    }

    #[test]
    fn take_metrics_resets() {
        let mut ws = Workspace::new();
        ws.metrics.solves = 5;
        let taken = ws.take_metrics();
        assert_eq!(taken.solves, 5);
        assert_eq!(ws.metrics(), &StageMetrics::default());
    }
}
