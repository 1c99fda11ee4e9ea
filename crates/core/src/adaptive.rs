//! Adaptive parameter selection (paper Sec. IV-C1, evaluated in
//! Figs. 16–18).
//!
//! The scanning range and scanning interval materially change the estimate
//! quality: too small a range and the phase barely varies (plane-wave
//! regime); too large and off-beam samples poison the system; too small an
//! interval and noise dominates the pairwise phase difference. The paper's
//! key empirical finding is that the **mean weighted-least-squares
//! residual tracks the distance error**: the configuration whose mean
//! residual sits closest to zero is (nearly) the most accurate one. This
//! module sweeps the parameter grid, ranks trials by `|mean residual|`,
//! and averages the best few estimates.
//!
//! # The sweep
//!
//! A sweep preprocesses once: it unwraps and smooths the measurements
//! into the workspace's profile, checks the whole trajectory's geometry,
//! and centers every scanning range on the trajectory's x centroid.
//!
//! Ranges run outer and intervals inner. **Range work runs once per
//! range**: the sweep restricts the profile to the range and prepares it
//! (the sample floor, the range's own middle sample as reference, its
//! principal-component frame, the reference deltas, the frame
//! coordinates and the `StructuredScan` scan-line classification), none
//! of which depends on the interval. **Interval work runs once per
//! cell**: pairs → rows → Gram → IRLS → σ̂ at the cell's interval, read
//! from the prepared range. Both halves are the ones `locate_in` runs
//! back to back, so a cell's estimate is bit-identical to solving its
//! restricted profile alone at its interval; nothing is shared between
//! ranges. A cell that fails (too few samples or pairs, a rank
//! problem, a failed recovery) is counted as skipped; a range that fails
//! preparation skips all of its cells.
//!
//! Every scanning range is centered on the same x, so the ranges nest:
//! two ranges that keep the same number of reads keep the very same
//! reads. A cell's estimate depends only on its restricted profile and
//! its interval, so a range that keeps as many reads as an earlier one
//! copies that range's per-interval results (with `range` rewritten)
//! instead of solving them again — bit-identical to solving them.
//!
//! Whole-trajectory problems — an invalid `rank_tolerance` or
//! `side_hint`, [`CoreError::DegenerateGeometry`] — fail the sweep as a
//! whole instead of silently skipping every cell.
//! `config.reference_index` is ignored.
//! All buffers, the prepared range included, live in the [`Workspace`],
//! so the steady-state sweep performs **zero heap allocations**. A
//! cell's interval work lands in its `lion.pairs` and `lion.solve`
//! spans; range preparation lands in the `lion.adaptive` span's
//! exclusive time.
//!
//! A sweep solves its cells one after another on the calling thread.
//! Batches parallelise across sweeps instead: the engine runs one job
//! per antenna or trace on each worker, never one sweep's cells on
//! several.

use serde::{Deserialize, Serialize};

use lion_geom::Point3;

use crate::error::CoreError;
use crate::localizer::{
    analyze_geometry_small, prepare_profile_in, solve_prepared, validate_side_hint, Estimate,
    Localizer, LocalizerConfig, Prepared, SolveSpace,
};
use crate::preprocess::PhaseProfile;
use crate::workspace::Workspace;

/// The parameter grid for the adaptive sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Scanning ranges to try (full widths in meters, centered on the
    /// trajectory's x centroid). The paper sweeps 0.6–1.1 m.
    pub scanning_ranges: Vec<f64>,
    /// Scanning intervals to try (meters). The paper sweeps 0.10–0.35 m.
    pub intervals: Vec<f64>,
    /// How many of the best trials (smallest `|mean residual|`) to average
    /// into the final estimate.
    pub keep: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            scanning_ranges: vec![0.6, 0.7, 0.8, 0.9, 1.0, 1.1],
            intervals: vec![0.10, 0.15, 0.20, 0.25, 0.30, 0.35],
            keep: 3,
        }
    }
}

impl AdaptiveConfig {
    /// Starts a validating builder seeded with the paper's sweep grid
    /// (ranges 0.6–1.1 m, intervals 0.10–0.35 m, keep 3).
    ///
    /// # Example
    ///
    /// ```
    /// use lion_core::AdaptiveConfig;
    ///
    /// # fn main() -> Result<(), lion_core::CoreError> {
    /// let grid = AdaptiveConfig::builder()
    ///     .scanning_ranges(vec![0.6, 0.8])
    ///     .intervals(vec![0.2])
    ///     .keep(1)
    ///     .build()?;
    /// assert_eq!(grid.scanning_ranges.len(), 2);
    /// assert!(AdaptiveConfig::builder().keep(0).build().is_err());
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder() -> AdaptiveConfigBuilder {
        AdaptiveConfigBuilder {
            config: AdaptiveConfig::default(),
        }
    }

    /// Checks the grid invariants: non-empty ranges/intervals, every entry
    /// positive and finite, `keep ≥ 1`. The sweep runs this before
    /// touching the data.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] naming the offending
    /// parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.scanning_ranges.is_empty() || self.intervals.is_empty() {
            return Err(CoreError::InvalidConfig {
                parameter: "adaptive grid",
                found: "empty ranges or intervals".to_string(),
            });
        }
        if self.keep == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "keep",
                found: "0".to_string(),
            });
        }
        for &r in &self.scanning_ranges {
            if !(r > 0.0 && r.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    parameter: "scanning_ranges",
                    found: format!("{r}"),
                });
            }
        }
        for &i in &self.intervals {
            if !(i > 0.0 && i.is_finite()) {
                return Err(CoreError::InvalidConfig {
                    parameter: "intervals",
                    found: format!("{i}"),
                });
            }
        }
        Ok(())
    }
}

/// Validating builder for [`AdaptiveConfig`]. Created by
/// [`AdaptiveConfig::builder`]; struct-literal construction keeps
/// working.
#[derive(Debug, Clone)]
pub struct AdaptiveConfigBuilder {
    config: AdaptiveConfig,
}

impl AdaptiveConfigBuilder {
    /// Sets the scanning ranges to sweep (full widths, meters).
    pub fn scanning_ranges(mut self, ranges: Vec<f64>) -> Self {
        self.config.scanning_ranges = ranges;
        self
    }

    /// Sets the scanning intervals to sweep (meters).
    pub fn intervals(mut self, intervals: Vec<f64>) -> Self {
        self.config.intervals = intervals;
        self
    }

    /// Sets how many of the best trials to average.
    pub fn keep(mut self, keep: usize) -> Self {
        self.config.keep = keep;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`AdaptiveConfig::validate`].
    pub fn build(self) -> Result<AdaptiveConfig, CoreError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

/// One trial of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveTrial {
    /// Scanning range used (meters).
    pub range: f64,
    /// Scanning interval used (meters).
    pub interval: f64,
    /// The estimate this configuration produced.
    pub estimate: Estimate,
}

/// The outcome of an adaptive sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// The selected estimate: the position is the average of the `keep`
    /// best trials; the remaining fields are copied from the single best
    /// trial.
    pub estimate: Estimate,
    /// All successful trials, ranked by `|mean residual|` ascending.
    pub trials: Vec<AdaptiveTrial>,
    /// Number of `(range, interval)` combinations that failed (too few
    /// pairs, rank problems, …) and were skipped.
    pub skipped: usize,
}

impl Localizer {
    /// Runs the adaptive parameter sweep (see the module docs).
    ///
    /// # Errors
    ///
    /// - configuration errors from [`AdaptiveConfig`] validation and an
    ///   invalid `rank_tolerance`,
    /// - [`CoreError::NoPairs`] when every combination fails,
    /// - preprocessing errors from the underlying profile construction,
    /// - [`CoreError::DegenerateGeometry`] when the whole trajectory has
    ///   unusable geometry.
    pub fn locate_adaptive(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
    ) -> Result<AdaptiveOutcome, CoreError> {
        self.locate_adaptive_in(measurements, adaptive, &mut Workspace::new())
    }

    /// [`Localizer::locate_adaptive`] with a reusable [`Workspace`].
    /// Bit-identical results; sweep timings and counters land in `ws`.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate_adaptive`].
    pub fn locate_adaptive_in(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
        ws: &mut Workspace,
    ) -> Result<AdaptiveOutcome, CoreError> {
        let mut out = AdaptiveOutcome::default();
        self.locate_adaptive_into(measurements, adaptive, ws, &mut out)?;
        Ok(out)
    }

    /// [`Localizer::locate_adaptive_in`] into a caller-owned outcome:
    /// the trial list's capacity is reused across calls, making the
    /// steady-state sweep fully allocation-free.
    ///
    /// # Errors
    ///
    /// See [`Localizer::locate_adaptive`]. On error `out` holds no
    /// meaningful data.
    pub fn locate_adaptive_into(
        &self,
        measurements: &[(Point3, f64)],
        adaptive: &AdaptiveConfig,
        ws: &mut Workspace,
        out: &mut AdaptiveOutcome,
    ) -> Result<(), CoreError> {
        sweep(measurements, self.config(), self.space(), adaptive, ws, out)
    }
}

/// The sequential sweep: preprocesses once into the workspace-owned
/// profile, then solves every grid cell on it.
fn sweep(
    measurements: &[(Point3, f64)],
    base: &LocalizerConfig,
    space: SolveSpace,
    adaptive: &AdaptiveConfig,
    ws: &mut Workspace,
    out: &mut AdaptiveOutcome,
) -> Result<(), CoreError> {
    adaptive.validate()?;
    let mut profile = std::mem::take(&mut ws.profile);
    let result = prepare_profile_in(measurements, base, &mut profile, ws)
        .and_then(|()| sweep_profile(&profile, base, space, adaptive, ws, out));
    ws.profile = profile;
    result
}

fn sweep_profile(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    adaptive: &AdaptiveConfig,
    ws: &mut Workspace,
    out: &mut AdaptiveOutcome,
) -> Result<(), CoreError> {
    let _sweep_span = lion_obs::span!("lion.adaptive");
    out.trials.clear();
    out.skipped = 0;
    let base = &range_config(base);
    let cx = sweep_center(profile, base, space, &adaptive.scanning_ranges, ws)?;
    let copied = run_cells(profile, base, space, cx, adaptive, ws, out);
    let metrics = &mut ws.metrics;
    metrics.adaptive_trials += out.trials.len() as u64;
    metrics.adaptive_skipped += out.skipped as u64;
    metrics.adaptive_cells_reused += copied;
    lion_obs::event!(
        lion_obs::Level::Debug,
        "lion.adaptive.sweep",
        "trials" => out.trials.len(),
        "skipped" => out.skipped,
        "reused" => copied,
    );
    if out.trials.is_empty() {
        return Err(CoreError::NoPairs);
    }
    rank_trials(&mut out.trials);
    reduce_outcome(adaptive.keep, out);
    Ok(())
}

/// The whole-trajectory checks every sweep runs once, before any cell:
/// validates `rank_tolerance`, `side_hint` and the trajectory's
/// geometry, and counts the reads each scanning range keeps into the
/// workspace's range slots (one per range) and the reads it drops into
/// `reads_dropped`. Returns the range center, the trajectory's x
/// centroid (the paper centers its scanning range at x = 0 with the
/// antenna at the track middle).
fn sweep_center(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    ranges: &[f64],
    ws: &mut Workspace,
) -> Result<f64, CoreError> {
    if !(base.rank_tolerance > 0.0 && base.rank_tolerance < 1.0) {
        return Err(CoreError::InvalidConfig {
            parameter: "rank_tolerance",
            found: format!("{}", base.rank_tolerance),
        });
    }
    validate_side_hint(base.side_hint)?;
    analyze_geometry_small(profile.lanes(), space, base.rank_tolerance)?;
    // A serial sum, not the frame's lane-order centroid: the range
    // bounds `cx ± r/2` can fall exactly on a read (grid-spaced scans
    // put them there), so the center's rounding decides which reads a
    // range keeps.
    let xs = profile.xs();
    let cx = xs.iter().sum::<f64>() / xs.len() as f64;
    ws.range_slots.clear();
    for &range in ranges {
        let (lo, hi) = (cx - range / 2.0, cx + range / 2.0);
        let kept = xs.iter().filter(|&&x| x >= lo && x <= hi).count();
        ws.metrics.reads_dropped += (xs.len() - kept) as u64;
        ws.range_slots.push(RangeSlot {
            kept,
            ..RangeSlot::default()
        });
    }
    Ok(cx)
}

/// One scanning range of a sweep: how many reads it keeps and, once its
/// cells have run, where their results sit in the outcome.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RangeSlot {
    /// Reads the range keeps (the same filter as the cell restriction).
    kept: usize,
    /// The range's trials are `out.trials[first..end]`.
    first: usize,
    end: usize,
    /// The range's failed cells.
    skipped: usize,
}

/// The earlier range whose results range `k` copies, if any: the first
/// one keeping as many reads. Ranges share a center and so nest (`cx ±
/// r/2` is monotone in `r` under rounding), which makes an equal count an
/// equal sample set — the same restricted profile, hence the same
/// estimate for every interval.
fn reuse_source(slots: &[RangeSlot], k: usize) -> Option<usize> {
    slots[..k].iter().position(|s| s.kept == slots[k].kept)
}

/// Fills `out` with every grid cell's result, ranges outer and intervals
/// inner, using the range slots [`sweep_center`] counted. A range with a
/// [`reuse_source`] copies that range's trials and skip count; every
/// other range is restricted and prepared once, then solved at each
/// interval, a failed cell counting as skipped. A range that fails
/// preparation skips all of its cells. Returns the number of copied
/// trials.
fn run_cells(
    profile: &PhaseProfile,
    base: &LocalizerConfig,
    space: SolveSpace,
    cx: f64,
    adaptive: &AdaptiveConfig,
    ws: &mut Workspace,
    out: &mut AdaptiveOutcome,
) -> u64 {
    let mut slots = std::mem::take(&mut ws.range_slots);
    let mut unit = std::mem::take(&mut ws.sweep_range);
    let mut copied = 0;
    for (k, &range) in adaptive.scanning_ranges.iter().enumerate() {
        let first = out.trials.len();
        let skipped_before = out.skipped;
        if let Some(src) = reuse_source(&slots, k) {
            let RangeSlot {
                first: from,
                end: to,
                skipped,
                ..
            } = slots[src];
            for t in from..to {
                let trial = AdaptiveTrial {
                    range,
                    ..out.trials[t].clone()
                };
                out.trials.push(trial);
            }
            out.skipped += skipped;
            copied += (to - from) as u64;
        } else if unit.prepare(profile, base, space, cx, range).is_ok() {
            for &interval in &adaptive.intervals {
                match unit.solve(base, interval, ws) {
                    Ok(estimate) => out.trials.push(AdaptiveTrial {
                        range,
                        interval,
                        estimate,
                    }),
                    Err(_) => out.skipped += 1,
                }
            }
        } else {
            out.skipped += adaptive.intervals.len();
        }
        let slot = &mut slots[k];
        slot.first = first;
        slot.end = out.trials.len();
        slot.skipped = out.skipped - skipped_before;
    }
    ws.sweep_range = unit;
    ws.range_slots = slots;
    copied
}

/// The sweep's base configuration: every scanning range takes its own
/// middle sample as reference, so `reference_index` is cleared.
fn range_config(base: &LocalizerConfig) -> LocalizerConfig {
    LocalizerConfig {
        reference_index: None,
        ..base.clone()
    }
}

/// One scanning range of a sweep, prepared. Holds the profile restricted
/// to the range and the interval-independent half of its solve
/// ([`Prepared`]): frame, reference, deltas, coordinates and scan lines,
/// computed once for all of the range's intervals.
#[derive(Debug, Clone, Default)]
pub(crate) struct RangeUnit {
    profile: PhaseProfile,
    prepared: Prepared,
}

impl RangeUnit {
    /// Restricts `profile` to the range of width `range` centered on
    /// `cx` and prepares it, reusing this unit's buffers. `base` must
    /// come from [`range_config`].
    ///
    /// # Errors
    ///
    /// The range's preparation failure (too few samples, a rank
    /// problem); the unit must not be solved after one.
    fn prepare(
        &mut self,
        profile: &PhaseProfile,
        base: &LocalizerConfig,
        space: SolveSpace,
        cx: f64,
        range: f64,
    ) -> Result<(), CoreError> {
        profile.restrict_x_into(cx - range / 2.0, cx + range / 2.0, &mut self.profile);
        self.prepared
            .prepare(&self.profile, base, space, space.min_samples())
    }

    /// Solves the prepared range at `interval`: pairs, rows, Gram, IRLS
    /// and σ̂.
    fn solve(
        &self,
        base: &LocalizerConfig,
        interval: f64,
        ws: &mut Workspace,
    ) -> Result<Estimate, CoreError> {
        let mut config = base.clone();
        config.pair_strategy = base.pair_strategy.with_interval(interval);
        solve_prepared(self.profile.lanes(), &self.prepared, &config, ws)
    }
}

/// Ranks trials by `|mean residual|` ascending, breaking ties by
/// interval then range — a total order over distinct grid cells, so the
/// result is independent of cell visit order.
fn rank_trials(trials: &mut [AdaptiveTrial]) {
    trials.sort_unstable_by(|a, b| {
        a.estimate
            .mean_residual
            .abs()
            .total_cmp(&b.estimate.mean_residual.abs())
            .then(a.interval.total_cmp(&b.interval))
            .then(a.range.total_cmp(&b.range))
    });
}

/// Averages the positions of the `keep` best (already ranked) trials
/// into the outcome's estimate; the remaining fields come from the best
/// trial.
fn reduce_outcome(keep: usize, out: &mut AdaptiveOutcome) {
    let keep = keep.min(out.trials.len());
    let inv = 1.0 / keep as f64;
    let avg = out.trials[..keep].iter().fold(Point3::ORIGIN, |acc, t| {
        Point3::new(
            acc.x + t.estimate.position.x * inv,
            acc.y + t.estimate.position.y * inv,
            acc.z + t.estimate.position.z * inv,
        )
    });
    out.estimate = out.trials[0].estimate.clone();
    out.estimate.position = avg;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pairs::PairStrategy;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn phase_of(target: Point3, p: Point3) -> f64 {
        (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
    }

    fn linear_scan(target: Point3, half_range: f64, step: f64) -> Vec<(Point3, f64)> {
        let n = (2.0 * half_range / step) as usize;
        (0..=n)
            .map(|i| {
                let p = Point3::new(-half_range + i as f64 * step, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect()
    }

    fn cfg() -> LocalizerConfig {
        LocalizerConfig {
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval: 0.2 },
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        }
    }

    #[test]
    fn adaptive_sweep_matches_truth_on_clean_data() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let outcome = Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &AdaptiveConfig::default())
            .unwrap();
        assert!(
            outcome.estimate.distance_error(target) < 1e-5,
            "error {}",
            outcome.estimate.distance_error(target)
        );
        assert!(!outcome.trials.is_empty());
        // Trials are sorted by |mean residual|.
        for w in outcome.trials.windows(2) {
            assert!(w[0].estimate.mean_residual.abs() <= w[1].estimate.mean_residual.abs() + 1e-15);
        }
    }

    #[test]
    fn range_restriction_reduces_sample_count() {
        let target = Point3::new(0.0, 0.8, 0.0);
        let m = linear_scan(target, 1.25, 0.01); // 2.5 m track
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![0.2],
            keep: 1,
        };
        let outcome = Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        // With a 0.6 m range and 0.2 m interval there are ~40 pairs, far
        // fewer than the full 250-sample scan would give.
        assert!(outcome.trials[0].estimate.equation_count < 60);
    }

    #[test]
    fn empty_grid_rejected() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.5, 0.01);
        let bad = AdaptiveConfig {
            scanning_ranges: vec![],
            intervals: vec![0.2],
            keep: 1,
        };
        assert!(Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &bad)
            .is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![],
            keep: 1,
        };
        assert!(Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &bad)
            .is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.6],
            intervals: vec![0.2],
            keep: 0,
        };
        assert!(Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &bad)
            .is_err());
        let bad = AdaptiveConfig {
            scanning_ranges: vec![-0.6],
            intervals: vec![0.2],
            keep: 1,
        };
        assert!(Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &bad)
            .is_err());
    }

    #[test]
    fn all_failures_reported_as_no_pairs() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.3, 0.01);
        // Intervals longer than the whole range: every combination fails.
        let bad = AdaptiveConfig {
            scanning_ranges: vec![0.4],
            intervals: vec![5.0],
            keep: 1,
        };
        assert!(matches!(
            Localizer::new(cfg(), SolveSpace::TwoD).locate_adaptive(&m, &bad),
            Err(CoreError::NoPairs)
        ));
    }

    #[test]
    fn skipped_counts_unusable_ranges() {
        let m = linear_scan(Point3::new(0.0, 0.8, 0.0), 0.5, 0.01);
        let adaptive = AdaptiveConfig {
            // 1 mm range keeps ~0 samples → whole row skipped.
            scanning_ranges: vec![0.001, 0.8],
            intervals: vec![0.2, 0.3],
            keep: 1,
        };
        let outcome = Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        assert!(outcome.skipped >= 2);
        assert!(!outcome.trials.is_empty());
    }

    #[test]
    fn keep_larger_than_trials_is_fine() {
        let target = Point3::new(0.0, 0.8, 0.0);
        let m = linear_scan(target, 0.5, 0.01);
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.8],
            intervals: vec![0.2],
            keep: 50,
        };
        let outcome = Localizer::new(cfg(), SolveSpace::TwoD)
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        assert!(outcome.estimate.distance_error(target) < 1e-5);
    }

    #[test]
    fn reads_dropped_counts_each_range_once() {
        let target = Point3::new(0.0, 0.8, 0.0);
        let m = linear_scan(target, 1.25, 0.01);
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.6, 1.0],
            intervals: vec![0.2, 0.3],
            keep: 1,
        };
        let cx = m.iter().map(|(p, _)| p.x).sum::<f64>() / m.len() as f64;
        let expected: u64 = adaptive
            .scanning_ranges
            .iter()
            .map(|r| {
                let (lo, hi) = (cx - r / 2.0, cx + r / 2.0);
                m.iter().filter(|(p, _)| p.x < lo || p.x > hi).count() as u64
            })
            .sum();
        let loc = Localizer::new(cfg(), SolveSpace::TwoD);
        let mut ws = Workspace::new();
        loc.locate_adaptive_in(&m, &adaptive, &mut ws).unwrap();
        assert_eq!(ws.take_metrics().reads_dropped, expected);
    }

    #[test]
    fn single_line_3d_sweep_is_degenerate_not_no_pairs() {
        // A single straight line cannot fix a 3D position (paper
        // Sec. III-C2): the whole-trajectory check must say so instead of
        // every cell failing into `NoPairs`.
        let m = linear_scan(Point3::new(0.1, 0.8, 0.2), 0.6, 0.005);
        let loc = Localizer::new(cfg(), SolveSpace::ThreeD);
        let grid = AdaptiveConfig::default();
        assert!(matches!(
            loc.locate_adaptive(&m, &grid),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }

    #[test]
    fn non_finite_side_hint_fails_the_sweep() {
        let m = linear_scan(Point3::new(0.1, 0.8, 0.0), 0.6, 0.005);
        let mut c = cfg();
        c.side_hint = Some(Point3::new(f64::NAN, 0.5, 0.0));
        let loc = Localizer::new(c, SolveSpace::TwoD);
        let grid = AdaptiveConfig::default();
        assert!(matches!(
            loc.locate_adaptive(&m, &grid),
            Err(CoreError::InvalidConfig {
                parameter: "side_hint",
                ..
            })
        ));
    }

    #[test]
    fn repeated_sweeps_with_reused_workspace_are_bit_identical() {
        let target = Point3::new(0.1, 0.8, 0.0);
        let m = linear_scan(target, 0.6, 0.005);
        let loc = Localizer::new(cfg(), SolveSpace::TwoD);
        let grid = AdaptiveConfig::default();
        let mut ws = Workspace::new();
        let mut first = AdaptiveOutcome::default();
        loc.locate_adaptive_into(&m, &grid, &mut ws, &mut first)
            .unwrap();
        let mut second = AdaptiveOutcome::default();
        loc.locate_adaptive_into(&m, &grid, &mut ws, &mut second)
            .unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn adaptive_3d_on_planar_circle() {
        let target = Point3::new(0.1, 0.2, 0.7);
        let m: Vec<(Point3, f64)> = (0..400)
            .map(|i| {
                let a = i as f64 * TAU / 400.0;
                let p = Point3::new(0.35 * a.cos(), 0.35 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut c = cfg();
        c.side_hint = Some(Point3::new(0.0, 0.0, 0.5));
        let adaptive = AdaptiveConfig {
            scanning_ranges: vec![0.7],
            intervals: vec![0.15, 0.25],
            keep: 2,
        };
        let outcome = Localizer::new(c, SolveSpace::ThreeD)
            .locate_adaptive(&m, &adaptive)
            .unwrap();
        assert!(
            outcome.estimate.distance_error(target) < 1e-4,
            "error {}",
            outcome.estimate.distance_error(target)
        );
    }
}
