//! Profile quality diagnostics: catching unwrap slips and implausible
//! phase jumps before they poison the linear system.
//!
//! Physics provides a hard invariant the pipeline can check: by the
//! triangle inequality, the tag–antenna distance cannot change by more
//! than the tag's own displacement, so between consecutive samples
//!
//! ```text
//! |Δd| = (λ/4π)·|θᵢ₊₁ − θᵢ|  ≤  ‖pᵢ₊₁ − pᵢ‖
//! ```
//!
//! must hold (up to noise). A violation of ~λ/2 is the signature of an
//! **unwrap slip** — the failure mode of fast tags, sparse reads, or
//! channel hops that the paper's Sec. IV-A1 assumptions rule out on its
//! rig but which any deployment should monitor.

use serde::{Deserialize, Serialize};

use crate::preprocess::PhaseProfile;

/// One detected violation of the distance-change bound.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepViolation {
    /// Index of the first sample of the offending step.
    pub index: usize,
    /// Implied distance change `(λ/4π)·|Δθ|` (meters).
    pub implied: f64,
    /// Actual tag displacement `‖Δp‖` (meters).
    pub moved: f64,
}

impl StepViolation {
    /// How far the implied change exceeds the physical bound (meters).
    pub fn excess(&self) -> f64 {
        self.implied - self.moved
    }

    /// Whether the excess is consistent with a full 2π unwrap slip
    /// (≈ λ/2 of implied distance) rather than mere noise.
    pub fn looks_like_unwrap_slip(&self, wavelength: f64) -> bool {
        self.excess() > 0.35 * wavelength
    }
}

/// Summary of a profile's physical consistency.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProfileQuality {
    /// Steps whose implied distance change exceeds the tag displacement by
    /// more than the configured slack.
    pub violations: Vec<StepViolation>,
    /// Number of consecutive-sample steps checked.
    pub steps: usize,
    /// Largest excess over the bound (meters); 0 for a clean profile.
    pub max_excess: f64,
    /// Root-mean-square of the per-step excess over *all* steps (clean
    /// steps contribute 0) — a scalar noise/corruption score.
    pub rms_excess: f64,
}

impl ProfileQuality {
    /// Fraction of steps that satisfy the bound.
    pub fn fraction_ok(&self) -> f64 {
        if self.steps == 0 {
            return 1.0;
        }
        1.0 - self.violations.len() as f64 / self.steps as f64
    }

    /// Whether the profile looks safe to feed to the localizer: no step
    /// resembling an unwrap slip and at least 95% of steps within bound.
    pub fn is_trustworthy(&self, wavelength: f64) -> bool {
        self.fraction_ok() >= 0.95
            && !self
                .violations
                .iter()
                .any(|v| v.looks_like_unwrap_slip(wavelength))
    }
}

/// Checks every consecutive-sample step of `profile` against the triangle
/// inequality bound, with `slack` meters of tolerance for phase noise
/// (a good default is 3σ·λ/4π ≈ 8 mm for σ = 0.1 rad).
///
/// # Example
///
/// ```
/// use lion_core::preprocess::PhaseProfile;
/// use lion_core::quality::validate_profile;
/// use lion_geom::Point3;
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let lambda = 0.3256;
/// // A tag moving 1 mm per sample cannot legally produce phase jumps
/// // implying 1 cm of distance change.
/// let positions: Vec<Point3> =
///     (0..50).map(|i| Point3::new(i as f64 * 0.001, 0.0, 0.0)).collect();
/// let mut phases: Vec<f64> = (0..50).map(|i| i as f64 * 0.03).collect();
/// phases[25] += 2.0 * std::f64::consts::PI; // planted unwrap slip
/// let profile = PhaseProfile::from_unwrapped(positions, phases, lambda)?;
/// let q = validate_profile(&profile, 0.003);
/// assert_eq!(q.violations.len(), 2); // the slip corrupts two steps
/// assert!(!q.is_trustworthy(lambda));
/// # Ok(())
/// # }
/// ```
pub fn validate_profile(profile: &PhaseProfile, slack: f64) -> ProfileQuality {
    let scale = profile.wavelength() / (4.0 * std::f64::consts::PI);
    let lanes = profile.lanes();
    let phases = profile.phases();
    let mut violations = Vec::new();
    let mut max_excess = 0.0_f64;
    let mut sq_sum = 0.0_f64;
    let steps = lanes.len().saturating_sub(1);
    for i in 0..steps {
        let implied = scale * (phases[i + 1] - phases[i]).abs();
        let moved = lanes.point(i).distance(lanes.point(i + 1));
        let excess = implied - moved;
        if excess > slack.max(0.0) {
            violations.push(StepViolation {
                index: i,
                implied,
                moved,
            });
            max_excess = max_excess.max(excess);
            sq_sum += excess * excess;
        }
    }
    ProfileQuality {
        violations,
        steps,
        max_excess,
        rms_excess: if steps > 0 {
            (sq_sum / steps as f64).sqrt()
        } else {
            0.0
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_geom::Point3;
    use std::f64::consts::PI;

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    fn clean_profile(n: usize) -> PhaseProfile {
        // A physically consistent profile: an antenna at (0, 0.8) and a
        // tag stepping 1 mm at a time.
        let antenna = Point3::new(0.0, 0.8, 0.0);
        let positions: Vec<Point3> = (0..n)
            .map(|i| Point3::new(-0.2 + i as f64 * 0.001, 0.0, 0.0))
            .collect();
        let phases: Vec<f64> = positions
            .iter()
            .map(|p| 4.0 * PI * antenna.distance(*p) / LAMBDA)
            .collect();
        PhaseProfile::from_unwrapped(positions, phases, LAMBDA).expect("valid")
    }

    #[test]
    fn clean_profile_passes() {
        let q = validate_profile(&clean_profile(200), 1e-4);
        assert!(q.violations.is_empty());
        assert_eq!(q.fraction_ok(), 1.0);
        assert_eq!(q.max_excess, 0.0);
        assert_eq!(q.rms_excess, 0.0);
        assert!(q.is_trustworthy(LAMBDA));
        assert_eq!(q.steps, 199);
    }

    #[test]
    fn planted_slip_is_flagged_and_classified() {
        let profile = clean_profile(200);
        let mut phases = profile.phases().to_vec();
        for p in phases.iter_mut().skip(100) {
            *p += 2.0 * PI; // everything after index 99 slipped by 2π
        }
        let slipped = PhaseProfile::from_unwrapped(profile.points().collect(), phases, LAMBDA)
            .expect("valid");
        let q = validate_profile(&slipped, 1e-3);
        assert_eq!(q.violations.len(), 1);
        let v = q.violations[0];
        assert_eq!(v.index, 99);
        // A 2π jump implies λ/2 ≈ 16.3 cm of motion in one 1 mm step.
        assert!(
            (v.implied - LAMBDA / 2.0).abs() < 2e-3,
            "implied {}",
            v.implied
        );
        assert!(v.looks_like_unwrap_slip(LAMBDA));
        assert!(!q.is_trustworthy(LAMBDA));
        assert!(q.max_excess > 0.15);
    }

    #[test]
    fn noise_below_slack_is_tolerated() {
        let profile = clean_profile(100);
        let mut phases = profile.phases().to_vec();
        for (i, p) in phases.iter_mut().enumerate() {
            *p += if i % 2 == 0 { 0.05 } else { -0.05 }; // ±0.05 rad ripple
        }
        let noisy = PhaseProfile::from_unwrapped(profile.points().collect(), phases, LAMBDA)
            .expect("valid");
        // 0.1 rad of jump ↔ 2.6 mm implied; slack of 5 mm absorbs it.
        let q = validate_profile(&noisy, 0.005);
        assert!(q.violations.is_empty(), "{:?}", q.violations.first());
        // But a tight slack flags the ripple.
        let strict = validate_profile(&noisy, 1e-4);
        assert!(!strict.violations.is_empty());
        // Ripple violations do not look like unwrap slips.
        assert!(strict
            .violations
            .iter()
            .all(|v| !v.looks_like_unwrap_slip(LAMBDA)));
    }

    #[test]
    fn static_tag_profile_all_jumps_are_violations() {
        // Tag never moves but phases drift: every step violates the bound.
        let positions = vec![Point3::new(0.0, 0.5, 0.0); 10];
        let phases: Vec<f64> = (0..10).map(|i| i as f64 * 0.5).collect();
        let p = PhaseProfile::from_unwrapped(positions, phases, LAMBDA).expect("valid");
        let q = validate_profile(&p, 1e-6);
        assert_eq!(q.violations.len(), 9);
        assert_eq!(q.fraction_ok(), 0.0);
    }

    #[test]
    fn quality_on_two_sample_profile() {
        let p = PhaseProfile::from_unwrapped(
            vec![Point3::ORIGIN, Point3::new(0.001, 0.0, 0.0)],
            vec![0.0, 0.01],
            LAMBDA,
        )
        .expect("valid");
        let q = validate_profile(&p, 0.001);
        assert_eq!(q.steps, 1);
        assert!(q.fraction_ok() >= 0.0);
    }
}
