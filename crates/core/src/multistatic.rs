//! Multistatic tag localization with the LION model — an extension beyond
//! the paper.
//!
//! The paper's case study (Sec. V-F1) locates a static tag from several
//! calibrated antennas with a *differential hologram*. But the geometry is
//! symmetric to LION's own setting: antennas at known positions reading
//! one tag constrain the tag to circles around the antennas, so the same
//! radical-line linearization applies — with one complication. Between a
//! *moving* tag's consecutive reads, phase can be unwrapped by continuity;
//! between *different antennas* there is no continuity, so each antenna's
//! offset-corrected phase fixes its distance only modulo λ/2:
//!
//! ```text
//! d_j = d_ref + (λ/4π)·(θ'_j − θ'_ref) + n_j·(λ/2),   n_j ∈ ℤ
//! ```
//!
//! With antennas a meter or so apart, the relative integers `n_j` are
//! small, so this module enumerates `n ∈ [−max, max]^(J−1)`, solves the
//! LION linear system for each hypothesis, and ranks hypotheses by
//! residual, breaking ties toward the side hint. The whole search costs
//! microseconds, versus the hologram's grid scan.
//!
//! **Identifiability.** The pairwise radical-line rows of `J` antennas
//! have rank `J − 1`. Residuals can expose a wrong integer hypothesis only
//! when `J − 1` exceeds the unknown count (3 for a full-rank 2D solve,
//! 2 for a collinear array): every hypothesis of an exactly-determined
//! system fits perfectly, exactly like GNSS integer ambiguities without
//! redundant satellites. With the paper's minimal 3-antenna rig the
//! solver therefore returns the feasible lattice candidate closest to the
//! side hint — fine when the tag area is known to within the alias
//! spacing (≈ 10–40 cm here) — while `J ≥ 5` (or `J ≥ 4` collinear)
//! resolves the integers from the data alone.

use lion_geom::Point3;
use serde::{Deserialize, Serialize};

use crate::error::CoreError;
use crate::localizer::{Estimate, LocalizerConfig};
use crate::pairs::PairStrategy;
use crate::preprocess::PhaseProfile;
use crate::solver::SolveSpace;

/// Configuration for the multistatic solver.
#[derive(Debug, Clone, PartialEq)]
pub struct MultistaticConfig {
    /// Carrier wavelength (meters).
    pub wavelength: f64,
    /// Half-width of the integer-ambiguity search per non-reference
    /// antenna: `n_j ∈ [−max_ambiguity, max_ambiguity]`. The needed range
    /// is `⌈(max distance difference)/(λ/2)⌉`; 6 covers antennas within
    /// ~1 m of path difference at UHF.
    pub max_ambiguity: i32,
    /// Rough tag location: disambiguates the mirror solution (antennas in
    /// a line cannot tell front from back) and breaks residual ties.
    pub side_hint: Option<Point3>,
    /// Relative singular-value threshold for the geometry analysis (see
    /// [`LocalizerConfig::rank_tolerance`]).
    pub rank_tolerance: f64,
    /// Optional axis-aligned feasible region `(center, half_extent)`:
    /// candidates outside it are discarded. This encodes the same prior a
    /// hologram's bounded search volume does, and is what makes minimal
    /// (non-redundant) arrays usable.
    pub region: Option<(Point3, f64)>,
}

impl Default for MultistaticConfig {
    fn default() -> Self {
        MultistaticConfig {
            wavelength: 299_792_458.0 / 920.625e6,
            max_ambiguity: 6,
            side_hint: None,
            rank_tolerance: 0.05,
            region: None,
        }
    }
}

/// Result of a multistatic localization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultistaticEstimate {
    /// Estimated tag position.
    pub position: Point3,
    /// Estimated distance from the tag to the reference (first) antenna.
    pub reference_distance: f64,
    /// Winning integer ambiguities, one per non-reference antenna.
    pub ambiguities: Vec<i32>,
    /// Weighted RMS residual of the winning hypothesis.
    pub rms_residual: f64,
    /// Number of ambiguity hypotheses evaluated.
    pub hypotheses: usize,
}

/// Locates a static tag from offset-corrected phases of `J ≥ 3` antennas.
///
/// `readings` are `(antenna phase center, offset-corrected wrapped phase)`
/// — i.e. [`crate::Calibration::corrected_phase`] outputs. The first
/// reading is the ambiguity reference.
///
/// # Errors
///
/// - [`CoreError::TooFewMeasurements`] for fewer than 3 antennas,
/// - [`CoreError::NonFiniteMeasurement`] for NaN/inf readings,
/// - [`CoreError::InvalidConfig`] for a non-positive wavelength or
///   negative ambiguity range,
/// - [`CoreError::DegenerateGeometry`] when no hypothesis admits a
///   feasible solution (all discriminants negative / solves fail).
pub fn locate_tag(
    readings: &[(Point3, f64)],
    config: &MultistaticConfig,
) -> Result<MultistaticEstimate, CoreError> {
    let j = readings.len();
    if j < 3 {
        return Err(CoreError::TooFewMeasurements { got: j, needed: 3 });
    }
    for (i, (p, t)) in readings.iter().enumerate() {
        if !p.is_finite() || !t.is_finite() {
            return Err(CoreError::NonFiniteMeasurement { index: i });
        }
    }
    if !(config.wavelength > 0.0 && config.wavelength.is_finite()) {
        return Err(CoreError::InvalidConfig {
            parameter: "wavelength",
            found: format!("{}", config.wavelength),
        });
    }
    if config.max_ambiguity < 0 {
        return Err(CoreError::InvalidConfig {
            parameter: "max_ambiguity",
            found: format!("{}", config.max_ambiguity),
        });
    }
    let positions: Vec<Point3> = readings.iter().map(|(p, _)| *p).collect();
    // Pair every antenna with every other (tiny J).
    let min_spacing = {
        let mut m = f64::INFINITY;
        for a in 0..j {
            for b in (a + 1)..j {
                m = m.min(positions[a].distance(positions[b]));
            }
        }
        m
    };
    // NaN-safe: comparison is false for NaN spacings.
    let spacing_ok = min_spacing > 1e-6;
    if !spacing_ok {
        return Err(CoreError::DegenerateGeometry {
            detail: "two antennas coincide".to_string(),
        });
    }
    let localizer_cfg = LocalizerConfig {
        wavelength: config.wavelength,
        smoothing_window: 1,
        pair_strategy: PairStrategy::AllWithMinSeparation {
            min_separation: min_spacing * 0.5,
            max_pairs: j * (j - 1) / 2,
        },
        reference_index: Some(0),
        side_hint: config.side_hint,
        rank_tolerance: config.rank_tolerance,
        // Plain least squares, deliberately: with only a handful of
        // equations, the IRLS weights can drive disagreeing equations to
        // zero and make *wrong* integer hypotheses fit perfectly — the
        // residual must honestly reflect the misfit to rank hypotheses.
        weighting: crate::localizer::Weighting::LeastSquares,
        solver: crate::solver::SolverKind::Linear,
    };
    let tau = std::f64::consts::TAU;
    let span = config.max_ambiguity;
    let width = (2 * span + 1) as usize;
    let combos = width.pow((j - 1) as u32);
    let mut candidates: Vec<MultistaticEstimate> = Vec::new();
    let mut hypothesis_phases = vec![0.0_f64; j];
    hypothesis_phases[0] = readings[0].1;
    for combo in 0..combos {
        let mut idx = combo;
        let mut ambiguities = Vec::with_capacity(j - 1);
        for phase_slot in hypothesis_phases
            .iter_mut()
            .skip(1)
            .zip(readings.iter().skip(1))
        {
            let (slot, reading) = phase_slot;
            let n = (idx % width) as i32 - span;
            idx /= width;
            ambiguities.push(n);
            *slot = reading.1 + n as f64 * tau;
        }
        let Ok(profile) = PhaseProfile::from_unwrapped(
            positions.clone(),
            hypothesis_phases.clone(),
            config.wavelength,
        ) else {
            continue;
        };
        let Ok(est) = crate::localizer::run_with_min(&profile, &localizer_cfg, SolveSpace::TwoD, 3)
        else {
            continue;
        };
        // Feasibility: the tag must be in front of a positive reference
        // distance and inside the declared region, if any. (NaN-safe: the
        // comparison is false for NaN.)
        let dr_ok = est.reference_distance > 0.0;
        if !dr_ok {
            continue;
        }
        if let Some((center, half)) = config.region {
            if (est.position.x - center.x).abs() > half
                || (est.position.y - center.y).abs() > half
                || (est.position.z - center.z).abs() > half
            {
                continue;
            }
        }
        candidates.push(MultistaticEstimate {
            position: est.position,
            reference_distance: est.reference_distance,
            ambiguities,
            rms_residual: est.weighted_rms,
            hypotheses: combos,
        });
    }
    // Wrong-integer hypotheses can be *exactly* self-consistent (they
    // describe a real point on the solution lattice), so residual alone
    // cannot always discriminate. Keep every hypothesis whose residual is
    // within a band of the best and let the prior (side hint, else
    // proximity to the array) choose among those aliases.
    let min_rms = candidates
        .iter()
        .map(|c| c.rms_residual)
        .fold(f64::INFINITY, f64::min);
    let band = min_rms * 2.0 + 1e-9;
    let anchor = config.side_hint.unwrap_or_else(|| {
        // Centroid of the array as a weak prior.
        let inv = 1.0 / j as f64;
        positions.iter().fold(Point3::ORIGIN, |acc, p| {
            Point3::new(acc.x + p.x * inv, acc.y + p.y * inv, acc.z + p.z * inv)
        })
    });
    candidates
        .into_iter()
        .filter(|c| c.rms_residual <= band)
        .min_by(|a, b| {
            a.position
                .distance(anchor)
                .partial_cmp(&b.position.distance(anchor))
                .expect("finite positions")
        })
        .ok_or_else(|| CoreError::DegenerateGeometry {
            detail: "no ambiguity hypothesis produced a feasible solution".to_string(),
        })
}

/// Re-export of the diagnostic [`Estimate`] type alias used internally.
pub type MultistaticDiagnostics = Estimate;

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::{PI, TAU};

    const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

    /// Offset-corrected wrapped phase for a tag seen from an antenna.
    fn phase_of(antenna: Point3, tag: Point3) -> f64 {
        (4.0 * PI * antenna.distance(tag) / LAMBDA).rem_euclid(TAU)
    }

    fn cfg(hint: Point3) -> MultistaticConfig {
        MultistaticConfig {
            side_hint: Some(hint),
            ..MultistaticConfig::default()
        }
    }

    #[test]
    fn three_collinear_antennas_recover_the_tag() {
        // The paper's rig: antennas at x = -0.3, 0, 0.3; tag at (-0.1, 0.8).
        let tag = Point3::new(-0.1, 0.8, 0.0);
        let readings: Vec<(Point3, f64)> = [-0.3_f64, 0.0, 0.3]
            .iter()
            .map(|&x| {
                let a = Point3::new(x, 0.0, 0.0);
                (a, phase_of(a, tag))
            })
            .collect();
        let est = locate_tag(&readings, &cfg(Point3::new(0.0, 0.7, 0.0))).unwrap();
        assert!(
            est.position.distance(tag) < 0.002,
            "error {} at {}",
            est.position.distance(tag),
            est.position
        );
        assert!(est.rms_residual < 1e-6);
        assert_eq!(est.ambiguities.len(), 2);
        assert!((est.reference_distance - readings[0].0.distance(tag)).abs() < 0.002);
    }

    #[test]
    fn redundant_array_resolves_ambiguities_from_data_alone() {
        // Five non-collinear antennas: rank 4 > 3 unknowns, so the true
        // integer hypothesis is the only one with a (near-)zero residual —
        // even with a deliberately misleading hint.
        let tag = Point3::new(0.15, 0.9, 0.0);
        let antennas = [
            Point3::new(-0.3, 0.0, 0.0),
            Point3::new(0.3, 0.0, 0.0),
            Point3::new(0.0, 0.25, 0.0),
            Point3::new(-0.15, 0.12, 0.0),
            Point3::new(0.2, 0.3, 0.0),
        ];
        let readings: Vec<(Point3, f64)> =
            antennas.iter().map(|&a| (a, phase_of(a, tag))).collect();
        // Hint placed away from the tag: redundancy must win regardless.
        let mut c = cfg(Point3::new(-0.2, 0.6, 0.0));
        c.max_ambiguity = 4; // keep the 9^4 ≈ 6.5k-combo search quick
        let est = locate_tag(&readings, &c).unwrap();
        assert!(
            est.position.distance(tag) < 0.005,
            "error {} at {}",
            est.position.distance(tag),
            est.position
        );
        assert!(est.rms_residual < 1e-9);
    }

    #[test]
    fn minimal_array_is_hint_limited() {
        // With 4 antennas (rank 3 = unknowns) every hypothesis fits
        // exactly; the solver falls back to the hint, which must then be
        // within the alias spacing of the truth.
        let tag = Point3::new(0.15, 0.9, 0.0);
        let antennas = [
            Point3::new(-0.3, 0.0, 0.0),
            Point3::new(0.3, 0.0, 0.0),
            Point3::new(0.0, 0.25, 0.0),
            Point3::new(-0.15, 0.12, 0.0),
        ];
        let readings: Vec<(Point3, f64)> =
            antennas.iter().map(|&a| (a, phase_of(a, tag))).collect();
        // A hint close to the truth resolves the lattice choice.
        let est = locate_tag(&readings, &cfg(Point3::new(0.12, 0.88, 0.0))).unwrap();
        assert!(
            est.position.distance(tag) < 0.01,
            "error {}",
            est.position.distance(tag)
        );
    }

    #[test]
    fn noise_tolerance_with_hint() {
        // 0.05 rad phase noise (≈ 1.3 mm of distance) on each reading.
        let tag = Point3::new(-0.05, 0.75, 0.0);
        let noise = [0.03, -0.05, 0.04];
        let readings: Vec<(Point3, f64)> = [-0.3_f64, 0.0, 0.3]
            .iter()
            .zip(noise)
            .map(|(&x, dn)| {
                let a = Point3::new(x, 0.0, 0.0);
                (a, (phase_of(a, tag) + dn).rem_euclid(TAU))
            })
            .collect();
        let est = locate_tag(&readings, &cfg(Point3::new(0.0, 0.7, 0.0))).unwrap();
        // With only 3 collinear antennas the depth dilution is large; a few
        // centimeters is the expected scale (compare the hologram's 4.7 cm
        // in the paper's calibrated case study).
        assert!(
            est.position.distance(tag) < 0.08,
            "error {}",
            est.position.distance(tag)
        );
    }

    #[test]
    fn region_prior_prunes_aliases() {
        // Minimal collinear array plus a region box: aliases outside the
        // box are discarded even when the hint is vague.
        let tag = Point3::new(-0.1, 0.8, 0.0);
        let readings: Vec<(Point3, f64)> = [-0.3_f64, 0.0, 0.3]
            .iter()
            .map(|&x| {
                let a = Point3::new(x, 0.0, 0.0);
                (a, phase_of(a, tag))
            })
            .collect();
        let c = MultistaticConfig {
            side_hint: Some(Point3::new(0.0, 0.7, 0.0)),
            region: Some((Point3::new(0.0, 0.8, 0.0), 0.2)),
            ..MultistaticConfig::default()
        };
        let est = locate_tag(&readings, &c).unwrap();
        assert!(
            (est.position.x - tag.x).abs() <= 0.3 && (est.position.y - tag.y).abs() <= 0.2,
            "inside the region: {}",
            est.position
        );
        // A region that excludes every candidate errors out.
        let c = MultistaticConfig {
            region: Some((Point3::new(5.0, 5.0, 0.0), 0.05)),
            ..MultistaticConfig::default()
        };
        assert!(matches!(
            locate_tag(&readings, &c),
            Err(CoreError::DegenerateGeometry { .. })
        ));
    }

    #[test]
    fn validation_errors() {
        let a = Point3::new(0.0, 0.0, 0.0);
        let b = Point3::new(0.3, 0.0, 0.0);
        assert!(matches!(
            locate_tag(&[(a, 0.1), (b, 0.2)], &MultistaticConfig::default()),
            Err(CoreError::TooFewMeasurements { .. })
        ));
        let readings = vec![(a, 0.1), (b, 0.2), (Point3::new(0.6, 0.0, 0.0), f64::NAN)];
        assert!(matches!(
            locate_tag(&readings, &MultistaticConfig::default()),
            Err(CoreError::NonFiniteMeasurement { index: 2 })
        ));
        let readings = vec![(a, 0.1), (a, 0.2), (b, 0.3)];
        assert!(matches!(
            locate_tag(&readings, &MultistaticConfig::default()),
            Err(CoreError::DegenerateGeometry { .. })
        ));
        let bad = MultistaticConfig {
            wavelength: -1.0,
            ..MultistaticConfig::default()
        };
        let readings = vec![(a, 0.1), (b, 0.2), (Point3::new(0.6, 0.0, 0.0), 0.3)];
        assert!(locate_tag(&readings, &bad).is_err());
        let bad = MultistaticConfig {
            max_ambiguity: -1,
            ..MultistaticConfig::default()
        };
        assert!(locate_tag(&readings, &bad).is_err());
    }

    #[test]
    fn winning_ambiguities_match_geometry() {
        // Verify the chosen integers reproduce the true distance
        // differences.
        let tag = Point3::new(0.1, 0.85, 0.0);
        let antennas = [
            Point3::new(-0.3, 0.0, 0.0),
            Point3::new(0.0, 0.0, 0.0),
            Point3::new(0.3, 0.0, 0.0),
        ];
        let readings: Vec<(Point3, f64)> =
            antennas.iter().map(|&a| (a, phase_of(a, tag))).collect();
        let est = locate_tag(&readings, &cfg(Point3::new(0.0, 0.7, 0.0))).unwrap();
        let scale = LAMBDA / (4.0 * PI);
        for (k, &n) in est.ambiguities.iter().enumerate() {
            let j = k + 1;
            let true_dd = antennas[j].distance(tag) - antennas[0].distance(tag);
            let implied = scale * (readings[j].1 - readings[0].1 + n as f64 * TAU);
            assert!(
                (implied - true_dd).abs() < 1e-3,
                "antenna {j}: implied {implied} vs true {true_dd}"
            );
        }
    }
}
