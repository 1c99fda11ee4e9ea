//! Signal preprocessing (paper Sec. IV-A): phase unwrapping and smoothing.
//!
//! A reader reports phases modulo 2π. Because the tag moves much less than
//! half a wavelength between consecutive reads (10 cm/s at >100 Hz ≪
//! 16 cm), consecutive-sample jumps of ≥ π radians must be wrap artifacts
//! and can be removed by adding/subtracting multiples of 2π — after which
//! the profile tracks the true distance variation continuously.

use lion_geom::Point3;
use lion_linalg::stats;

use crate::error::CoreError;

/// Unwraps a wrapped phase sequence (paper Sec. IV-A1).
///
/// Whenever the jump between consecutive values is ≥ π radians, multiples
/// of 2π are added or subtracted until it is below π. The first value is
/// kept as-is.
///
/// # Example
///
/// ```
/// use std::f64::consts::PI;
/// // A true phase decreasing through zero is reported wrapped near 2π.
/// let wrapped = [0.3, 0.1, 2.0 * PI - 0.1, 2.0 * PI - 0.3];
/// let un = lion_core::preprocess::unwrap_phases(&wrapped);
/// let expected = [0.3, 0.1, -0.1, -0.3];
/// for (u, e) in un.iter().zip(expected) {
///     assert!((u - e).abs() < 1e-12);
/// }
/// ```
pub fn unwrap_phases(wrapped: &[f64]) -> Vec<f64> {
    let mut out = wrapped.to_vec();
    let mut revs = Vec::with_capacity(wrapped.len());
    lion_linalg::simd::phase_unwrap_in_place(&mut out, &mut revs);
    out
}

/// Re-wraps an angle into `[0, 2π)` — the inverse direction of
/// [`unwrap_phases`] for a single value.
pub fn wrap_phase(theta: f64) -> f64 {
    stats::wrap_angle(theta)
}

/// One step of the unwrap chain: the unwrapped value for `wrapped` given
/// the previous sample's wrapped and unwrapped values.
///
/// This is how [`crate::IncrementalState`] extends an existing chain when
/// the window slides, instead of re-running [`unwrap_phases`] from the
/// front. The jump is normalized into
/// `[-π, π)` by adding or subtracting `2π`, so for wrapped phases in
/// `[0, 2π)` the recovered integer number of wraps is the batch path's;
/// the *accumulation* differs (`prev_unwrapped + jump` here vs the batch
/// path's running `theta + offset`), which makes the continued chain
/// equal to the batch chain only up to floating-point association — one
/// source of the documented 1e-6 incremental-vs-replay tolerance
/// (DESIGN.md §14).
///
/// A jump of `3π` or more, which only a phase outside `[0, 2π)` can
/// cause, is first reduced modulo `2π` in one step, so the normalization
/// ends for every finite input: at magnitudes like `1e300`, subtracting
/// `2π` changes nothing and a turn-by-turn loop would never end.
pub fn unwrap_step(prev_wrapped: f64, prev_unwrapped: f64, wrapped: f64) -> f64 {
    use std::f64::consts::{PI, TAU};
    let mut jump = wrapped - prev_wrapped;
    if jump.abs() >= TAU + PI {
        jump = (jump + PI).rem_euclid(TAU) - PI;
    }
    while jump >= PI {
        jump -= TAU;
    }
    while jump < -PI {
        jump += TAU;
    }
    prev_unwrapped + jump
}

/// The centered moving-average value at one index, by direct summation
/// over the same `[lo, hi)` span [`stats::moving_average_into`] uses.
///
/// Lets an incremental re-solver re-smooth only the indices whose
/// averaging span changed when the window slid. Direct summation and the
/// batch path's prefix-sum difference agree only up to floating-point
/// association — the other source of the documented 1e-6 tolerance
/// (DESIGN.md §14).
///
/// # Panics
///
/// Panics when `i` is out of bounds.
pub fn smoothed_at(values: &[f64], window: usize, i: usize) -> f64 {
    if window <= 1 || values.len() <= 1 {
        return values[i];
    }
    assert!(i < values.len(), "smoothing index out of bounds");
    let half = window / 2;
    let lo = i.saturating_sub(half);
    let hi = (i + half + (window % 2)).min(values.len()).max(lo + 1);
    let sum: f64 = values[lo..hi].iter().sum();
    sum / (hi - lo) as f64
}

/// A preprocessed phase profile: tag positions with **unwrapped** (and
/// optionally smoothed) phases, ready for the linear model.
///
/// Construct with [`PhaseProfile::from_wrapped`], then optionally
/// [`PhaseProfile::smooth`]. Subsets for the adaptive parameter sweep are
/// taken *after* unwrapping via [`PhaseProfile::restrict_x`] /
/// [`PhaseProfile::decimate`], so wrapping continuity is never broken by
/// filtering.
#[derive(Debug, Clone)]
pub struct PhaseProfile {
    positions: Vec<Point3>,
    /// Structure-of-arrays mirrors of `positions`: one contiguous lane
    /// per axis, kept in sync by every constructor so the solve pipeline
    /// can stream coordinates through the `lion_linalg::simd` kernels
    /// without gathering from the `Point3` array-of-structs view.
    xs: Vec<f64>,
    ys: Vec<f64>,
    zs: Vec<f64>,
    phases: Vec<f64>,
    wavelength: f64,
    /// Revolution-count scratch for the vectorized unwrap; capacity is
    /// retained across rebuilds.
    unwrap_scratch: Vec<f64>,
}

/// The SoA axis lanes and unwrap scratch are derived state — two
/// profiles are equal when their samples and wavelength are.
impl PartialEq for PhaseProfile {
    fn eq(&self, other: &Self) -> bool {
        self.positions == other.positions
            && self.phases == other.phases
            && self.wavelength == other.wavelength
    }
}

impl Default for PhaseProfile {
    /// An empty placeholder profile (no samples, wavelength 1). Exists so
    /// a [`crate::Workspace`] can own a reusable profile and the locate
    /// paths can `mem::take` it without allocating; every use refills it
    /// through [`PhaseProfile::rebuild_from_wrapped`] before solving.
    fn default() -> Self {
        PhaseProfile {
            positions: Vec::new(),
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            phases: Vec::new(),
            wavelength: 1.0,
            unwrap_scratch: Vec::new(),
        }
    }
}

impl PhaseProfile {
    /// Builds a profile from `(position, wrapped phase)` measurements taken
    /// at carrier wavelength `wavelength` (meters).
    ///
    /// # Errors
    ///
    /// - [`CoreError::TooFewMeasurements`] for fewer than 2 samples,
    /// - [`CoreError::NonFiniteMeasurement`] for NaN/inf input,
    /// - [`CoreError::InvalidConfig`] for a non-positive wavelength.
    pub fn from_wrapped(
        measurements: &[(Point3, f64)],
        wavelength: f64,
    ) -> Result<Self, CoreError> {
        let mut profile = PhaseProfile::default();
        profile.rebuild_from_wrapped(measurements, wavelength)?;
        Ok(profile)
    }

    /// Refills this profile from wrapped measurements, reusing its
    /// buffers — the allocation-free counterpart of
    /// [`PhaseProfile::from_wrapped`], used by the workspace-staged
    /// locate paths. Validation and unwrap arithmetic are identical
    /// (same operations in the same order), so the resulting phases are
    /// bit-identical to a fresh `from_wrapped` build.
    ///
    /// On error the profile is left empty.
    ///
    /// # Errors
    ///
    /// Same as [`PhaseProfile::from_wrapped`].
    pub fn rebuild_from_wrapped(
        &mut self,
        measurements: &[(Point3, f64)],
        wavelength: f64,
    ) -> Result<(), CoreError> {
        self.clear_samples();
        if measurements.len() < 2 {
            return Err(CoreError::TooFewMeasurements {
                got: measurements.len(),
                needed: 2,
            });
        }
        if !(wavelength > 0.0 && wavelength.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "wavelength",
                found: format!("{wavelength}"),
            });
        }
        for (i, (p, theta)) in measurements.iter().enumerate() {
            if !p.is_finite() || !theta.is_finite() {
                return Err(CoreError::NonFiniteMeasurement { index: i });
            }
        }
        self.wavelength = wavelength;
        for &(p, theta) in measurements {
            self.push_sample(p, theta);
        }
        lion_linalg::simd::phase_unwrap_in_place(&mut self.phases, &mut self.unwrap_scratch);
        Ok(())
    }

    /// Empties the sample buffers while keeping their capacity.
    fn clear_samples(&mut self) {
        self.positions.clear();
        self.xs.clear();
        self.ys.clear();
        self.zs.clear();
        self.phases.clear();
    }

    /// Appends one sample to both the AoS and SoA views.
    fn push_sample(&mut self, p: Point3, phase: f64) {
        self.positions.push(p);
        self.xs.push(p.x);
        self.ys.push(p.y);
        self.zs.push(p.z);
        self.phases.push(phase);
    }

    /// Builds a profile whose SoA lanes are derived from already-owned
    /// positions/phases — the internal constructor behind
    /// [`PhaseProfile::from_unwrapped`] and the filtering subset makers.
    fn from_parts(positions: Vec<Point3>, phases: Vec<f64>, wavelength: f64) -> PhaseProfile {
        let mut profile = PhaseProfile {
            positions,
            xs: Vec::new(),
            ys: Vec::new(),
            zs: Vec::new(),
            phases,
            wavelength,
            unwrap_scratch: Vec::new(),
        };
        profile.xs.extend(profile.positions.iter().map(|p| p.x));
        profile.ys.extend(profile.positions.iter().map(|p| p.y));
        profile.zs.extend(profile.positions.iter().map(|p| p.z));
        profile
    }

    /// Builds a profile from positions and **already unwrapped** phases.
    ///
    /// # Errors
    ///
    /// Same validations as [`PhaseProfile::from_wrapped`], plus a
    /// [`CoreError::InvalidConfig`] when lengths differ.
    pub fn from_unwrapped(
        positions: Vec<Point3>,
        phases: Vec<f64>,
        wavelength: f64,
    ) -> Result<Self, CoreError> {
        if positions.len() != phases.len() {
            return Err(CoreError::InvalidConfig {
                parameter: "positions/phases",
                found: format!("{} vs {}", positions.len(), phases.len()),
            });
        }
        if positions.len() < 2 {
            return Err(CoreError::TooFewMeasurements {
                got: positions.len(),
                needed: 2,
            });
        }
        if !(wavelength > 0.0 && wavelength.is_finite()) {
            return Err(CoreError::InvalidConfig {
                parameter: "wavelength",
                found: format!("{wavelength}"),
            });
        }
        for (i, p) in positions.iter().enumerate() {
            if !p.is_finite() || !phases[i].is_finite() {
                return Err(CoreError::NonFiniteMeasurement { index: i });
            }
        }
        Ok(PhaseProfile::from_parts(positions, phases, wavelength))
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Returns `true` when the profile has no samples (unreachable through
    /// the validating constructors, but kept for API completeness).
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// The tag positions.
    pub fn positions(&self) -> &[Point3] {
        &self.positions
    }

    /// SoA view of the position x-coordinates.
    pub(crate) fn xs(&self) -> &[f64] {
        &self.xs
    }

    /// SoA view of the position y-coordinates.
    pub(crate) fn ys(&self) -> &[f64] {
        &self.ys
    }

    /// SoA view of the position z-coordinates.
    pub(crate) fn zs(&self) -> &[f64] {
        &self.zs
    }

    /// The unwrapped (and possibly smoothed) phases.
    pub fn phases(&self) -> &[f64] {
        &self.phases
    }

    /// Carrier wavelength (meters).
    pub fn wavelength(&self) -> f64 {
        self.wavelength
    }

    /// Applies a centered moving-average filter to the phases (paper
    /// Sec. IV-A2). A window of 0 or 1 is a no-op.
    pub fn smooth(&mut self, window: usize) {
        self.phases = stats::moving_average(&self.phases, window);
    }

    /// Applies the moving-average filter through caller-provided scratch
    /// buffers — the allocation-free counterpart of
    /// [`PhaseProfile::smooth`], bit-identical by construction (both run
    /// [`stats::moving_average`]'s arithmetic). `prefix` holds the
    /// prefix sums, `tmp` the filtered output before it is swapped in.
    pub fn smooth_with_scratch(
        &mut self,
        window: usize,
        prefix: &mut Vec<f64>,
        tmp: &mut Vec<f64>,
    ) {
        stats::moving_average_into(&self.phases, window, prefix, tmp);
        std::mem::swap(&mut self.phases, tmp);
    }

    /// Distance differences `Δd_t = (λ/4π)·(θ_t − θ_ref)` relative to the
    /// sample at `reference` (paper Eq. 6).
    ///
    /// # Panics
    ///
    /// Panics when `reference` is out of bounds.
    pub fn delta_distances(&self, reference: usize) -> Vec<f64> {
        let mut out = Vec::new();
        self.delta_distances_into(reference, &mut out);
        out
    }

    /// [`PhaseProfile::delta_distances`] into a caller-provided buffer,
    /// reusing its allocation.
    ///
    /// # Panics
    ///
    /// Panics when `reference` is out of bounds.
    pub fn delta_distances_into(&self, reference: usize, out: &mut Vec<f64>) {
        assert!(reference < self.len(), "reference index out of bounds");
        let scale = self.wavelength / (4.0 * std::f64::consts::PI);
        let theta_r = self.phases[reference];
        out.clear();
        out.extend(self.phases.iter().map(|t| scale * (t - theta_r)));
    }

    /// Keeps samples whose x-coordinate lies in `[min_x, max_x]` — the
    /// paper's "scanning range" restriction, applied after unwrapping.
    pub fn restrict_x(&self, min_x: f64, max_x: f64) -> PhaseProfile {
        let mut out = PhaseProfile::default();
        self.restrict_x_into(min_x, max_x, &mut out);
        out
    }

    /// [`PhaseProfile::restrict_x`] into a caller-owned profile, reusing
    /// its buffers — what each adaptive-sweep cell runs, so the
    /// steady-state sweep allocates nothing. The kept samples keep their
    /// sequence order and `out` takes this profile's wavelength.
    pub fn restrict_x_into(&self, min_x: f64, max_x: f64, out: &mut PhaseProfile) {
        out.clear_samples();
        out.wavelength = self.wavelength;
        for (&p, &phase) in self.positions.iter().zip(&self.phases) {
            if p.x >= min_x && p.x <= max_x {
                out.push_sample(p, phase);
            }
        }
    }

    /// Keeps every `step`-th sample (step 0 behaves like 1).
    pub fn decimate(&self, step: usize) -> PhaseProfile {
        let step = step.max(1);
        PhaseProfile::from_parts(
            self.positions.iter().copied().step_by(step).collect(),
            self.phases.iter().copied().step_by(step).collect(),
            self.wavelength,
        )
    }

    /// Keeps samples satisfying a position predicate.
    pub fn filter_positions(&self, mut keep: impl FnMut(Point3) -> bool) -> PhaseProfile {
        let idx: Vec<usize> = (0..self.len())
            .filter(|&i| keep(self.positions[i]))
            .collect();
        PhaseProfile::from_parts(
            idx.iter().map(|&i| self.positions[i]).collect(),
            idx.iter().map(|&i| self.phases[i]).collect(),
            self.wavelength,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    fn wrap(t: f64) -> f64 {
        stats::wrap_angle(t)
    }

    #[test]
    fn unwrap_recovers_linear_ramp() {
        // A steadily increasing true phase, reported wrapped.
        let truth: Vec<f64> = (0..200).map(|i| 0.05 * i as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap(t)).collect();
        let un = unwrap_phases(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            assert!((u - t).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn unwrap_recovers_descending_ramp() {
        let truth: Vec<f64> = (0..200).map(|i| 5.0 - 0.07 * i as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap(t)).collect();
        let un = unwrap_phases(&wrapped);
        for (u, t) in un.iter().zip(&truth) {
            assert!((u - t).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_recovers_v_shape() {
        // Distance to an antenna above the track: phase falls then rises.
        let truth: Vec<f64> = (-100..100)
            .map(|i| {
                let x = i as f64 * 0.002;
                let d = (x * x + 0.64_f64).sqrt();
                4.0 * PI * d / 0.3256
            })
            .collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap(t)).collect();
        let un = unwrap_phases(&wrapped);
        // Unwrapped differs from truth only by a constant multiple of 2π.
        let k = (un[0] - truth[0]) / TAU;
        assert!((k - k.round()).abs() < 1e-9);
        for (u, t) in un.iter().zip(&truth) {
            assert!((u - t - k.round() * TAU).abs() < 1e-9);
        }
    }

    #[test]
    fn unwrap_handles_empty_and_single() {
        assert!(unwrap_phases(&[]).is_empty());
        assert_eq!(unwrap_phases(&[1.0]), vec![1.0]);
    }

    #[test]
    fn unwrap_is_identity_when_continuous() {
        let phases = [1.0, 1.2, 1.4, 1.1, 0.8];
        assert_eq!(unwrap_phases(&phases), phases.to_vec());
    }

    #[test]
    fn profile_construction_validates() {
        let m = vec![(Point3::ORIGIN, 0.1)];
        assert!(matches!(
            PhaseProfile::from_wrapped(&m, 0.3256),
            Err(CoreError::TooFewMeasurements { .. })
        ));
        let m = vec![
            (Point3::ORIGIN, 0.1),
            (Point3::new(0.1, 0.0, 0.0), f64::NAN),
        ];
        assert!(matches!(
            PhaseProfile::from_wrapped(&m, 0.3256),
            Err(CoreError::NonFiniteMeasurement { index: 1 })
        ));
        let m = vec![(Point3::ORIGIN, 0.1), (Point3::new(0.1, 0.0, 0.0), 0.2)];
        assert!(PhaseProfile::from_wrapped(&m, -1.0).is_err());
        assert!(PhaseProfile::from_wrapped(&m, 0.3256).is_ok());
    }

    #[test]
    fn from_unwrapped_validates_lengths() {
        assert!(PhaseProfile::from_unwrapped(vec![Point3::ORIGIN], vec![0.1, 0.2], 0.3,).is_err());
        let p = PhaseProfile::from_unwrapped(
            vec![Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0)],
            vec![0.1, 7.0],
            0.3,
        )
        .unwrap();
        assert_eq!(p.phases(), &[0.1, 7.0]); // no unwrapping applied
    }

    #[test]
    fn delta_distances_match_formula() {
        let lambda = 0.3256;
        let positions = vec![
            Point3::ORIGIN,
            Point3::new(0.1, 0.0, 0.0),
            Point3::new(0.2, 0.0, 0.0),
        ];
        let phases = vec![0.0, TAU, 2.0 * TAU];
        let p = PhaseProfile::from_unwrapped(positions, phases, lambda).unwrap();
        let dd = p.delta_distances(0);
        assert!((dd[0]).abs() < 1e-12);
        // 2π of round-trip phase is λ/2 of distance.
        assert!((dd[1] - lambda / 2.0).abs() < 1e-12);
        assert!((dd[2] - lambda).abs() < 1e-12);
        // Different reference shifts all values.
        let dd1 = p.delta_distances(1);
        assert!((dd1[0] + lambda / 2.0).abs() < 1e-12);
        assert!((dd1[1]).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "reference index")]
    fn delta_distances_checks_reference() {
        let p = PhaseProfile::from_unwrapped(
            vec![Point3::ORIGIN, Point3::new(1.0, 0.0, 0.0)],
            vec![0.0, 1.0],
            0.3,
        )
        .unwrap();
        let _ = p.delta_distances(5);
    }

    #[test]
    fn smoothing_reduces_wiggle() {
        let positions: Vec<Point3> = (0..100)
            .map(|i| Point3::new(i as f64 * 0.01, 0.0, 0.0))
            .collect();
        let phases: Vec<f64> = (0..100)
            .map(|i| i as f64 * 0.05 + if i % 2 == 0 { 0.05 } else { -0.05 })
            .collect();
        let mut p = PhaseProfile::from_unwrapped(positions, phases, 0.3256).unwrap();
        let rough: f64 = p.phases().windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        p.smooth(5);
        let smooth: f64 = p.phases().windows(2).map(|w| (w[1] - w[0]).abs()).sum();
        assert!(smooth < rough);
        assert_eq!(p.len(), 100);
    }

    #[test]
    fn restrict_and_decimate() {
        let positions: Vec<Point3> = (0..11)
            .map(|i| Point3::new((i as f64 - 5.0) / 10.0, 0.0, 0.0))
            .collect();
        let phases: Vec<f64> = (0..11).map(|i| i as f64 * 0.1).collect();
        let p = PhaseProfile::from_unwrapped(positions, phases, 0.3256).unwrap();
        let r = p.restrict_x(-0.2, 0.2);
        assert_eq!(r.len(), 5);
        assert!(r.positions().iter().all(|q| q.x.abs() <= 0.2 + 1e-12));
        // Refilling a used profile gives the same subset, lanes included.
        let mut reused = p.clone();
        p.restrict_x_into(-0.2, 0.2, &mut reused);
        assert_eq!(reused, r);
        assert_eq!(reused.xs(), r.xs());
        let d = p.decimate(2);
        assert_eq!(d.len(), 6);
        assert_eq!(d.positions()[1].x, p.positions()[2].x);
        assert_eq!(p.decimate(0).len(), p.len());
        let f = p.filter_positions(|q| q.x > 0.0);
        assert_eq!(f.len(), 5);
    }

    #[test]
    fn rebuild_matches_from_wrapped_bitwise() {
        let m: Vec<(Point3, f64)> = (0..50)
            .map(|i| {
                let x = i as f64 * 0.01;
                (Point3::new(x, 0.0, 0.0), wrap(0.3 * i as f64))
            })
            .collect();
        let mut fresh = PhaseProfile::from_wrapped(&m, 0.3256).unwrap();
        let mut staged = PhaseProfile::default();
        staged.rebuild_from_wrapped(&m, 0.3256).unwrap();
        assert_eq!(staged, fresh);
        // Scratch-based smoothing stays bit-identical to `smooth`.
        fresh.smooth(9);
        let (mut prefix, mut tmp) = (Vec::new(), Vec::new());
        staged.smooth_with_scratch(9, &mut prefix, &mut tmp);
        assert_eq!(staged, fresh);
        // Buffered delta distances match the allocating path exactly.
        let mut deltas = Vec::new();
        staged.delta_distances_into(3, &mut deltas);
        assert_eq!(deltas, fresh.delta_distances(3));
        // A failed rebuild leaves the profile empty.
        assert!(staged.rebuild_from_wrapped(&m[..1], 0.3256).is_err());
        assert!(staged.is_empty());
    }

    #[test]
    fn unwrap_step_continues_a_chain() {
        let truth: Vec<f64> = (0..120).map(|i| 0.4 * i as f64).collect();
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap(t)).collect();
        let batch = unwrap_phases(&wrapped);
        // Continue step-by-step from the first sample only.
        let mut chain = vec![batch[0]];
        for i in 1..wrapped.len() {
            let next = unwrap_step(wrapped[i - 1], chain[i - 1], wrapped[i]);
            chain.push(next);
        }
        for (c, b) in chain.iter().zip(&batch) {
            assert!((c - b).abs() < 1e-9, "{c} vs {b}");
        }
    }

    /// Runs `f` on its own thread and returns its result, failing the
    /// test instead of hanging it when `f` has not returned in 10 s (the
    /// stalled thread is then left behind; it cannot be joined).
    fn returns_within_10s<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
        let (done, finished) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let out = f();
            let _ = done.send(());
            out
        });
        let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
        if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = waited {
            panic!("did not return within 10 s");
        }
        worker.join().expect("worker panicked")
    }

    #[test]
    fn huge_finite_phase_does_not_stall_the_unwrap() {
        // At 1e300, subtracting 2π changes nothing: a turn-by-turn
        // normalization would never end.
        let step = returns_within_10s(|| unwrap_step(0.0, 0.0, 1e300));
        assert!((-PI..PI).contains(&step));
    }

    #[test]
    fn smoothed_at_matches_moving_average() {
        let values: Vec<f64> = (0..37).map(|i| (i as f64 * 0.7).sin() + i as f64).collect();
        for window in [0usize, 1, 2, 3, 5, 8, 37, 100] {
            let batch = stats::moving_average(&values, window);
            for (i, b) in batch.iter().enumerate() {
                let direct = smoothed_at(&values, window, i);
                assert!(
                    (direct - b).abs() < 1e-12,
                    "window {window} index {i}: {direct} vs {b}"
                );
            }
        }
    }

    #[test]
    fn wrap_phase_range() {
        assert!((wrap_phase(-0.1) - (TAU - 0.1)).abs() < 1e-12);
        assert!((wrap_phase(TAU + 0.1) - 0.1).abs() < 1e-12);
    }
}
