//! Property-based tests of the LION pipeline invariants.

use proptest::prelude::*;
use std::f64::consts::{PI, TAU};

use lion_core::preprocess::{unwrap_phases, wrap_phase, PhaseProfile};
use lion_core::window::{PushOutcome, SlidingWindow, WindowDelta};
use lion_core::{Localizer, LocalizerConfig, PairStrategy, SolveSpace, Weighting};
use lion_geom::Point3;
use lion_linalg::IrlsConfig;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn phase_of(target: Point3, p: Point3) -> f64 {
    (4.0 * PI * target.distance(p) / LAMBDA).rem_euclid(TAU)
}

/// Hostile floats: a raw bit pattern (any sign, exponent and payload,
/// NaNs and infinities included) or a special value a quarter of the
/// time each, else `sane`, so accepted configurations are drawn often
/// enough to exercise the solve behind them.
fn hostile_f64(sane: f64) -> impl Strategy<Value = f64> {
    const SPECIALS: [f64; 8] = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MIN_POSITIVE,
        f64::MAX,
        1.0,
    ];
    (0_u64..u64::MAX, 0_usize..4).prop_map(move |(bits, pick)| match pick {
        0 => f64::from_bits(bits),
        1 => SPECIALS[(bits % SPECIALS.len() as u64) as usize],
        _ => sane,
    })
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
        for w in r.xs().windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        for &x in r.xs() {
            prop_assert!(x >= min_x - 1e-12 && x <= max_x + 1e-12);
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
    fn validation_never_panics_and_rejects_non_finite_input(
        wavelength in hostile_f64(LAMBDA),
        hint_x in hostile_f64(0.0),
        hint_y in hostile_f64(0.5),
        hint_z in hostile_f64(0.0),
        rank_tolerance in hostile_f64(0.05),
        interval in hostile_f64(0.15),
        irls_tolerance in hostile_f64(1e-8),
    ) {
        let cfg = LocalizerConfig {
            wavelength,
            smoothing_window: 1,
            pair_strategy: PairStrategy::Interval { interval },
            weighting: Weighting::Weighted(IrlsConfig {
                tolerance: irls_tolerance,
                ..IrlsConfig::default()
            }),
            side_hint: Some(Point3::new(hint_x, hint_y, hint_z)),
            rank_tolerance,
            ..LocalizerConfig::default()
        };
        if cfg.validate().is_ok() {
            for v in [wavelength, hint_x, hint_y, hint_z, rank_tolerance, interval, irls_tolerance] {
                prop_assert!(v.is_finite(), "accepted a non-finite value: {cfg:?}");
            }
            // A clean 0.6 m line, so the side hint picks the mirror.
            let target = Point3::new(0.1, 0.8, 0.0);
            let m: Vec<(Point3, f64)> = (0..240)
                .map(|i| {
                    let p = Point3::new(-0.3 + i as f64 * 0.0025, 0.0, 0.0);
                    (p, phase_of(target, p))
                })
                .collect();
            let _ = Localizer::new(cfg, SolveSpace::TwoD).locate(&m);
        }
    }
}

/// Reference model of [`SlidingWindow`]: a sorted `Vec` with the same
/// admission rules, written the obvious way (binary-search insertion
/// instead of the window's back-to-front scan, `Vec::remove` instead of
/// a ring buffer).
#[derive(Default)]
struct WindowModel {
    reads: Vec<(f64, Point3, f64)>,
    capacity: usize,
    evicted: u64,
    rejected_late: u64,
    rejected_non_finite: u64,
    pending: WindowDelta,
}

impl WindowModel {
    fn push(&mut self, time: f64, position: Point3, phase: f64) -> PushOutcome {
        if !(time.is_finite() && position.is_finite() && phase.is_finite()) {
            self.rejected_non_finite += 1;
            return PushOutcome::NonFinite;
        }
        let mut outcome = PushOutcome::Inserted;
        if self.reads.len() == self.capacity {
            if time < self.reads[0].0 {
                self.rejected_late += 1;
                return PushOutcome::TooLate;
            }
            self.reads.remove(0);
            self.evicted += 1;
            self.pending.evicted += 1;
            outcome = PushOutcome::Evicted;
        }
        // Ties go after equal timestamps.
        let at = self.reads.partition_point(|r| r.0 <= time);
        self.pending.appended += 1;
        self.pending.spliced |= at < self.reads.len();
        self.reads.insert(at, (time, position, phase));
        outcome
    }

    fn clear(&mut self) {
        self.reads.clear();
        self.pending.spliced = true;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn window_matches_sorted_vec_model(
        capacity in 1_usize..12,
        ops in proptest::collection::vec((0_usize..32, 0_u64..u64::MAX, 0.0_f64..TAU), 0..300),
    ) {
        let mut window = SlidingWindow::new(capacity).expect("nonzero capacity");
        let mut model = WindowModel { capacity, ..WindowModel::default() };
        // `clock` is the newest in-order timestamp so far; every other
        // kind of read is placed relative to it.
        let mut clock = 0.0_f64;
        let mut staged = Vec::new();
        for (seq, &(kind, r, phase)) in ops.iter().enumerate() {
            // A unique x per read, so equal timestamps stay distinguishable
            // and their order is checked too.
            let mut position = Point3::new(seq as f64, 0.5, 0.0);
            let mut phase = phase;
            let time = match kind {
                0..=13 => {
                    clock += 0.5 * (1 + r % 3) as f64;
                    clock
                }
                // A duplicate of the newest in-order timestamp.
                14..=18 => clock,
                // A little backward: usually spliced, sometimes too late.
                19..=23 => clock - 0.5 * (1 + r % 8) as f64,
                // Anywhere in the stream's history.
                24..=28 => 0.5 * (r % (2 * clock as u64 + 1)) as f64,
                // One non-finite field.
                29 | 30 => {
                    let bad = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][(r / 5 % 3) as usize];
                    let mut time = clock;
                    match r % 5 {
                        0 => time = bad,
                        1 => position.x = bad,
                        2 => position.y = bad,
                        3 => position.z = bad,
                        _ => phase = bad,
                    }
                    time
                }
                _ => {
                    window.clear();
                    model.clear();
                    continue;
                }
            };
            prop_assert_eq!(window.push(time, position, phase), model.push(time, position, phase));
            prop_assert_eq!(window.len(), model.reads.len());
            prop_assert_eq!(window.evicted(), model.evicted);
            prop_assert_eq!(window.rejected_late(), model.rejected_late);
            prop_assert_eq!(window.rejected_non_finite(), model.rejected_non_finite);
            window.write_measurements_into(&mut staged);
            let expected: Vec<(Point3, f64)> = model.reads.iter().map(|r| (r.1, r.2)).collect();
            prop_assert_eq!(&staged, &expected);
            if (r >> 40) % 4 == 0 {
                prop_assert_eq!(window.take_slide_delta(), std::mem::take(&mut model.pending));
            }
        }
        prop_assert_eq!(window.take_slide_delta(), std::mem::take(&mut model.pending));
    }
}
