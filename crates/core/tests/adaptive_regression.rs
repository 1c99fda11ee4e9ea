//! Accuracy regression for the adaptive sweep on fig16-style noisy data.
//!
//! On noisy measurements the per-cell mean residuals differ by far more
//! than floating-point noise, so the `|mean residual|` ranking — the
//! property the paper's adaptive parameter selection rests on — decides
//! which cells are averaged. The averaged estimate must stay close to the
//! planted antenna.

use std::f64::consts::{PI, TAU};

use lion_core::{AdaptiveConfig, Localizer2d, LocalizerConfig, PairStrategy};
use lion_geom::Point3;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// Deterministic LCG standard-normal-ish draws (sum of 12 uniforms).
struct Lcg(u64);

impl Lcg {
    fn normal(&mut self) -> f64 {
        let mut sum = 0.0;
        for _ in 0..12 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            sum += (self.0 >> 11) as f64 / (1u64 << 53) as f64;
        }
        sum - 6.0
    }
}

/// A fig16-style workload: a tag array scanned along a ±0.75 m track in
/// front of an antenna at (0, 0.8, 0), with Gaussian phase noise.
fn fig16_measurements(target: Point3, sigma: f64, seed: u64) -> Vec<(Point3, f64)> {
    let mut rng = Lcg(seed);
    (0..=300)
        .map(|i| {
            let p = Point3::new(-0.75 + i as f64 * 0.005, 0.0, 0.0);
            let phase = 4.0 * PI * target.distance(p) / LAMBDA + sigma * rng.normal();
            (p, phase.rem_euclid(TAU))
        })
        .collect()
}

fn cfg() -> LocalizerConfig {
    LocalizerConfig {
        pair_strategy: PairStrategy::Interval { interval: 0.2 },
        side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
        ..LocalizerConfig::default()
    }
}

#[test]
fn sweep_stays_accurate_on_noisy_data() {
    let target = Point3::new(0.1, 0.8, 0.0);
    let loc = Localizer2d::new(cfg());
    let grid = AdaptiveConfig::default();
    let m = fig16_measurements(target, 0.1, 99);
    let outcome = loc.locate_adaptive(&m, &grid).expect("sweep succeeds");
    // The paper reports ~0.04 m median error under comparable noise;
    // allow generous headroom while still catching gross regressions.
    let err = outcome.estimate.distance_error(target);
    assert!(err < 0.15, "noisy-sweep error {err}");
}
