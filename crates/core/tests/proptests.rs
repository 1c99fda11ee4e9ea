//! Property-based tests of the LION pipeline invariants.

use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

use lion_core::preprocess::{unwrap_phases, wrap_phase, PhaseProfile};
use lion_core::{
    GridConfig, GridSolver, Localizer, LocalizerConfig, PairStrategy, SolveSpace, Workspace,
};
use lion_geom::Point3;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn phase_of(target: Point3, p: Point3) -> f64 {
    (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
}

fn clean_config() -> LocalizerConfig {
    LocalizerConfig {
        smoothing_window: 1,
        pair_strategy: PairStrategy::Interval { interval: 0.15 },
        ..LocalizerConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn unwrap_inverts_wrapping_of_smooth_profiles(
        start in -10.0_f64..10.0,
        steps in proptest::collection::vec(-2.5_f64..2.5, 1..200),
    ) {
        // Any profile whose per-sample step is < π survives the wrap/unwrap
        // round trip up to a constant 2π multiple.
        let mut truth = vec![start];
        for s in &steps {
            let prev = *truth.last().expect("nonempty");
            truth.push(prev + s);
        }
        let wrapped: Vec<f64> = truth.iter().map(|&t| wrap_phase(t)).collect();
        let unwrapped = unwrap_phases(&wrapped);
        let k = (unwrapped[0] - truth[0]) / TAU;
        prop_assert!((k - k.round()).abs() < 1e-9);
        for (u, t) in unwrapped.iter().zip(&truth) {
            prop_assert!((u - t - k.round() * TAU).abs() < 1e-9, "{u} vs {t}");
        }
    }

    #[test]
    fn unwrapped_jumps_are_below_pi(
        wrapped in proptest::collection::vec(0.0_f64..TAU, 2..150),
    ) {
        let un = unwrap_phases(&wrapped);
        for w in un.windows(2) {
            prop_assert!((w[1] - w[0]).abs() < PI + 1e-12);
        }
        // Re-wrapping returns the original values.
        for (u, w) in un.iter().zip(&wrapped) {
            let d = (wrap_phase(*u) - w).abs();
            prop_assert!(d < 1e-9 || (TAU - d) < 1e-9);
        }
    }

    #[test]
    fn noise_free_lion_recovers_random_2d_geometry(
        tx in -1.0_f64..1.0,
        ty in 0.5_f64..1.5,
        radius in 0.2_f64..0.5,
        phase_offset in 0.0_f64..TAU,
    ) {
        // Circular scan, antenna anywhere in front: exact recovery.
        let target = Point3::new(tx, ty, 0.0);
        let m: Vec<(Point3, f64)> = (0..240)
            .map(|i| {
                let a = i as f64 * TAU / 240.0;
                let p = Point3::new(radius * a.cos(), radius * a.sin(), 0.0);
                (p, wrap_phase(phase_of(target, p) + phase_offset))
            })
            .collect();
        let est = Localizer::new(clean_config(), SolveSpace::TwoD).locate(&m).expect("locates");
        prop_assert!(
            est.distance_error(target) < 1e-5,
            "error {} for target {target}",
            est.distance_error(target)
        );
        // Constant hardware offsets must not bias the estimate at all.
    }

    #[test]
    fn noise_free_lion_recovers_linear_scan_2d(
        tx in -0.3_f64..0.3,
        ty in 0.4_f64..1.5,
    ) {
        let target = Point3::new(tx, ty, 0.0);
        let m: Vec<(Point3, f64)> = (0..300)
            .map(|i| {
                let p = Point3::new(-0.45 + i as f64 * 0.003, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 1.0, 0.0));
        let est = Localizer::new(cfg, SolveSpace::TwoD).locate(&m).expect("locates");
        prop_assert!(est.lower_dimension);
        prop_assert!(
            est.distance_error(target) < 1e-5,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn noise_free_lion_recovers_3d_from_planar_circle(
        tx in -0.3_f64..0.3,
        ty in -0.3_f64..0.3,
        tz in 0.4_f64..1.2,
    ) {
        let target = Point3::new(tx, ty, tz);
        let m: Vec<(Point3, f64)> = (0..300)
            .map(|i| {
                let a = i as f64 * TAU / 300.0;
                let p = Point3::new(0.4 * a.cos(), 0.4 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut cfg = clean_config();
        cfg.side_hint = Some(Point3::new(0.0, 0.0, 1.0));
        let est = Localizer::new(cfg, SolveSpace::ThreeD).locate(&m).expect("locates");
        prop_assert!(est.lower_dimension);
        prop_assert!(
            est.distance_error(target) < 1e-4,
            "error {}",
            est.distance_error(target)
        );
    }

    #[test]
    fn estimate_reference_distance_matches_geometry(
        tx in -0.5_f64..0.5,
        ty in 0.5_f64..1.2,
    ) {
        let target = Point3::new(tx, ty, 0.0);
        let m: Vec<(Point3, f64)> = (0..200)
            .map(|i| {
                let a = i as f64 * TAU / 200.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let est = Localizer::new(clean_config(), SolveSpace::TwoD).locate(&m).expect("locates");
        let true_dr = target.distance(est.reference_position);
        prop_assert!((est.reference_distance - true_dr).abs() < 1e-5);
    }

    #[test]
    fn profile_restrict_preserves_order_and_values(
        min_x in -0.5_f64..0.0,
        max_x in 0.0_f64..0.5,
    ) {
        let m: Vec<(Point3, f64)> = (0..100)
            .map(|i| (Point3::new(-0.5 + i as f64 * 0.01, 0.0, 0.0), 0.05 * i as f64))
            .collect();
        let profile = PhaseProfile::from_wrapped(&m, LAMBDA).expect("valid");
        let r = profile.restrict_x(min_x, max_x);
        prop_assert!(r.len() <= profile.len());
        for w in r.positions().windows(2) {
            prop_assert!(w[0].x <= w[1].x);
        }
        for p in r.positions() {
            prop_assert!(p.x >= min_x - 1e-12 && p.x <= max_x + 1e-12);
        }
    }

    #[test]
    fn pair_strategies_respect_index_order(
        n in 10_usize..200,
        interval in 0.01_f64..0.5,
    ) {
        let positions: Vec<Point3> =
            (0..n).map(|i| Point3::new(i as f64 * 0.005, 0.0, 0.0)).collect();
        for strategy in [
            PairStrategy::Interval { interval },
            PairStrategy::AllWithMinSeparation { min_separation: interval, max_pairs: 500 },
        ] {
            for (i, j) in strategy.pairs(&positions) {
                prop_assert!(i < j);
                prop_assert!(j < n);
                prop_assert!(positions[i].distance(positions[j]) >= interval - 1e-12);
            }
        }
    }

    #[test]
    fn mirror_candidates_are_symmetric(
        tx in -0.2_f64..0.2,
        ty in 0.4_f64..1.0,
    ) {
        // Hinting the wrong side must return the exact mirror image.
        let target = Point3::new(tx, ty, 0.0);
        let m: Vec<(Point3, f64)> = (0..200)
            .map(|i| {
                let p = Point3::new(-0.4 + i as f64 * 0.004, 0.0, 0.0);
                (p, phase_of(target, p))
            })
            .collect();
        let mut up = clean_config();
        up.side_hint = Some(Point3::new(0.0, 1.0, 0.0));
        let mut down = clean_config();
        down.side_hint = Some(Point3::new(0.0, -1.0, 0.0));
        let e_up = Localizer::new(up, SolveSpace::TwoD).locate(&m).expect("locates");
        let e_down = Localizer::new(down, SolveSpace::TwoD).locate(&m).expect("locates");
        prop_assert!((e_up.position.x - e_down.position.x).abs() < 1e-7);
        prop_assert!((e_up.position.y + e_down.position.y).abs() < 1e-7);
    }

    #[test]
    fn grid_refinement_never_ranks_below_the_coarse_pass(
        tx in -0.6_f64..0.6,
        ty in 0.5_f64..1.4,
        sigma in 0.0_f64..0.3,
        seed in 0_u64..1u64 << 32,
    ) {
        // Each refinement level carries its incumbent best forward, so
        // the traced per-level score sequence must be non-increasing
        // (up to the deterministic tie band) for any geometry and any
        // phase-noise level — the coarse pass is never beaten by a
        // *worse* refined candidate.
        let target = Point3::new(tx, ty, 0.0);
        let mut lcg = seed.wrapping_mul(2).wrapping_add(1);
        let mut noise = move || {
            lcg = lcg.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((lcg >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 2.0
        };
        let m: Vec<(Point3, f64)> = (0..200)
            .map(|i| {
                let a = i as f64 * TAU / 200.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                (p, wrap_phase(phase_of(target, p) + sigma * noise()))
            })
            .collect();
        let cfg = clean_config();
        let mut profile = PhaseProfile::from_wrapped(&m, cfg.wavelength).expect("valid");
        profile.smooth(cfg.smoothing_window);
        let mut scores = Vec::new();
        GridSolver::default()
            .solve_profile_traced(&profile, &cfg, SolveSpace::TwoD, &mut Workspace::new(), &mut scores)
            .expect("grid solves");
        prop_assert_eq!(scores.len(), GridConfig::default().levels);
        for w in scores.windows(2) {
            prop_assert!(
                w[1] <= w[0] * (1.0 + 1e-9) + 1e-18,
                "refinement regressed: {:?}",
                scores
            );
        }
        prop_assert!(
            *scores.last().expect("levels > 0") <= scores[0] * (1.0 + 1e-9) + 1e-18,
            "final level ranks below the coarse pass: {:?}",
            scores
        );
    }
}
