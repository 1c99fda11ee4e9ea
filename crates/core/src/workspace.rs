//! Reusable solver workspaces and per-stage instrumentation.
//!
//! A [`Workspace`] owns the buffers the LION pipeline fills on every solve
//! — the radical-line design matrix, its right-hand side, the frame
//! coordinates, and the IRLS scratch — so a hot loop (the batch engine's
//! workers, the conveyor tracker, the adaptive sweep) reuses one set of
//! allocations instead of allocating per solve. It also carries
//! [`StageMetrics`]: monotonic per-stage timers and counters that every
//! workspace-threaded entry point (`locate_in`, `locate_adaptive_in`,
//! `calibrate_in`) records into.
//!
//! Workspace reuse never changes results: every buffer is fully rewritten
//! by each solve, so `locate_in` with a reused workspace is bit-identical
//! to `locate` with a fresh one.

use lion_linalg::{Matrix, NormalEq, NormalIrlsScratch, Vector};
use serde::{Deserialize, Serialize};
use std::time::Instant;

use crate::adaptive::{RangeSlot, RangeUnit};
use crate::localizer::Prepared;
use crate::preprocess::PhaseProfile;

/// Monotonic per-stage timers (nanoseconds) and counters accumulated
/// across the localization runs recorded into one [`Workspace`].
///
/// Timers are measured with [`std::time::Instant`] and therefore
/// monotonic; counters are exact. The adaptive timer covers the whole
/// sweep and therefore *includes* the pair-generation and solve time of
/// its inner trials — the four pipeline timers (`unwrap_ns`, `smooth_ns`,
/// `pairs_ns`, `solve_ns`) are mutually disjoint, `adaptive_ns` is not
/// disjoint from them. The sweep additionally records
/// `adaptive_exclusive_ns`, the share of `adaptive_ns` spent outside
/// those four stages, so [`StageMetrics::busy_ns`] can sum disjoint
/// components exactly.
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
    /// Time spent unwrapping the modulo-2π phases.
    pub unwrap_ns: u64,
    /// Time spent in the moving-average smoother.
    pub smooth_ns: u64,
    /// Time spent generating sample pairs.
    pub pairs_ns: u64,
    /// Time spent in the least-squares / IRLS solver (includes building
    /// the stacked system).
    pub solve_ns: u64,
    /// Wall time of adaptive parameter sweeps (includes the nested pair
    /// generation and solves of the sweep's trials).
    pub adaptive_ns: u64,
    /// The sweep-exclusive share of `adaptive_ns`: orchestration time the
    /// sweep spent *outside* the four pipeline stages (grid iteration,
    /// range restriction and preparation, trial ranking). Disjoint from `unwrap_ns` /
    /// `smooth_ns` / `pairs_ns` / `solve_ns`, so
    /// `pipeline_ns() + adaptive_exclusive_ns` is the total busy time
    /// without double counting.
    pub adaptive_exclusive_ns: u64,
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
    /// Adds every timer and counter of `other` into `self`.
    pub fn merge(&mut self, other: &StageMetrics) {
        self.unwrap_ns += other.unwrap_ns;
        self.smooth_ns += other.smooth_ns;
        self.pairs_ns += other.pairs_ns;
        self.solve_ns += other.solve_ns;
        self.adaptive_ns += other.adaptive_ns;
        self.adaptive_exclusive_ns += other.adaptive_exclusive_ns;
        self.solves += other.solves;
        self.irls_iterations += other.irls_iterations;
        self.irls_unconverged += other.irls_unconverged;
        self.equations += other.equations;
        self.reads_dropped += other.reads_dropped;
        self.adaptive_trials += other.adaptive_trials;
        self.adaptive_skipped += other.adaptive_skipped;
        self.adaptive_cells_reused += other.adaptive_cells_reused;
    }

    /// Sum of the four disjoint pipeline timers (unwrap + smooth + pairs +
    /// solve), excluding the overlapping adaptive timer.
    pub fn pipeline_ns(&self) -> u64 {
        self.unwrap_ns + self.smooth_ns + self.pairs_ns + self.solve_ns
    }

    /// Total busy time as a sum of disjoint components: the four pipeline
    /// stages plus the sweep-exclusive adaptive overhead. No clamping
    /// heuristics — every nanosecond is counted exactly once.
    pub fn busy_ns(&self) -> u64 {
        self.pipeline_ns() + self.adaptive_exclusive_ns
    }

    /// Resets every timer and counter to zero.
    pub fn reset(&mut self) {
        *self = StageMetrics::default();
    }
}

/// Elapsed nanoseconds since `start`, saturating at `u64::MAX`.
pub(crate) fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Structure-of-arrays staging for windowed reads: timestamps, the three
/// position axes, and wrapped phases each in their own contiguous lane.
/// [`crate::SlidingWindow::write_soa_into`] fills it column-wise so the
/// preprocessing kernels (`lion_linalg::simd`) stream each lane without
/// gathering from an array-of-structs tuple buffer.
#[derive(Debug, Clone, Default)]
pub(crate) struct SampleSoa {
    /// Read timestamps (seconds), oldest first.
    pub(crate) ts: Vec<f64>,
    /// Position x-coordinates.
    pub(crate) xs: Vec<f64>,
    /// Position y-coordinates.
    pub(crate) ys: Vec<f64>,
    /// Position z-coordinates.
    pub(crate) zs: Vec<f64>,
    /// Wrapped phases (radians).
    pub(crate) phases: Vec<f64>,
}

impl SampleSoa {
    /// Empties every lane, keeping capacity.
    pub(crate) fn clear(&mut self) {
        self.ts.clear();
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.phases.clear();
    }
}

/// Reusable solver state for the LION pipeline.
///
/// Holds the design matrix, right-hand side, frame-coordinate buffer, and
/// least-squares scratch that [`crate::Localizer::locate_in`] and
/// friends fill on every run, plus the [`StageMetrics`] they record into.
/// Create one per worker/thread and reuse it across solves; see the
/// module docs for the reuse guarantee.
#[derive(Debug, Clone)]
pub struct Workspace {
    pub(crate) design: Matrix,
    pub(crate) rhs: Vector,
    pub(crate) metrics: StageMetrics,
    /// SoA staging for windowed solves: a [`crate::SlidingWindow`]'s
    /// reads are copied here lane-wise (capacity retained across solves)
    /// before running the standard pipeline.
    pub(crate) samples: SampleSoa,
    /// Reusable unwrapped/smoothed profile; `locate_in` and the adaptive
    /// sweep stage their preprocessing here instead of allocating a fresh
    /// profile per call.
    pub(crate) profile: PhaseProfile,
    /// The interval-independent half of the current solve: frame,
    /// reference deltas, frame coordinates and scan lines.
    pub(crate) prepared: Prepared,
    /// Sample pairs of the batch solve path.
    pub(crate) pairs: Vec<(usize, usize)>,
    /// Pair endpoints as `i32` index lanes — the gather-friendly mirror
    /// of `pairs` the SIMD row-assembly kernel consumes.
    pub(crate) pair_i: Vec<i32>,
    pub(crate) pair_j: Vec<i32>,
    /// Solution of the last batch solve (coordinates then `d_r`).
    pub(crate) solution: Vec<f64>,
    /// Per-parameter standard errors of the last batch solve.
    pub(crate) param_std: Vec<f64>,
    /// Normal equations of the batch weighted solve path.
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
            design: Matrix::zeros(0, 0),
            rhs: Vector::zeros(0),
            metrics: StageMetrics::default(),
            samples: SampleSoa::default(),
            profile: PhaseProfile::default(),
            prepared: Prepared::default(),
            pairs: Vec::new(),
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
            unwrap_ns: 1,
            solve_ns: 2,
            solves: 3,
            irls_unconverged: 1,
            ..StageMetrics::default()
        };
        let b = StageMetrics {
            unwrap_ns: 10,
            solve_ns: 20,
            solves: 30,
            equations: 7,
            irls_unconverged: 2,
            ..StageMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.unwrap_ns, 11);
        assert_eq!(a.solve_ns, 22);
        assert_eq!(a.solves, 33);
        assert_eq!(a.equations, 7);
        assert_eq!(a.irls_unconverged, 3);
        assert_eq!(a.pipeline_ns(), 11 + 22);
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
