//! Conveyor scenario: a calibrated antenna locates the start position of
//! each tagged item moving past it — the paper's industrial motivation.
//!
//! Localizing a tag with one antenna is the relative-frame mirror of
//! localizing an antenna with one tag: the item's *trajectory shape* is
//! known (the conveyor), so LION solves for the antenna position in the
//! item-start frame and subtracts. The example also times LION against
//! the Tagoram-style hologram on the same data.
//!
//! ```bash
//! cargo run --release --example conveyor_tracking
//! ```

use std::time::Instant;

use lion::baselines::hologram::{self, HologramConfig, SearchVolume};
use lion::prelude::*;

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

fn main() -> Result<(), lion::Error> {
    // Calibrated antenna 0.8 m above the belt (we aim at the true phase
    // center, as one would after running the calibration example).
    let antenna_center = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(antenna_center).build();
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("item"))
        .environment(Environment::indoor_lab())
        .noise(NoiseModel::indoor_default())
        .seed(2024)
        .build()?;

    println!("item | true start | LION estimate | error | LION time | DAH time");
    let mut lion_total = 0.0;
    let mut dah_total = 0.0;
    for item in 0..8 {
        // Items enter the read zone at slightly different positions.
        let p0 = Point3::new(-0.55 + 0.03 * item as f64, 0.0, 0.0);
        let belt = LineSegment::new(p0, Point3::new(p0.x + 0.8, 0.0, 0.0))?;
        let trace = scenario.scan(&belt, 0.1, 100.0)?;
        // Known shape: express positions relative to the unknown start.
        let relative: Vec<(Point3, f64)> = trace
            .samples()
            .iter()
            .map(|s| (Point3::new(s.position.x - p0.x, 0.0, 0.0), s.phase))
            .collect();

        let hint = Point3::new(0.4, 0.8, 0.0);
        let config = LocalizerConfig {
            side_hint: Some(hint),
            ..LocalizerConfig::default()
        };
        let t0 = Instant::now();
        let est = Localizer::new(config, SolveSpace::TwoD).locate(&relative)?;
        let lion_time = t0.elapsed().as_secs_f64();
        lion_total += lion_time;
        let start = Point3::new(
            antenna_center.x - est.position.x,
            antenna_center.y - est.position.y,
            0.0,
        );
        let error = start.to_xy().distance(p0.to_xy());

        // The hologram route, for comparison (decimated input, 1 mm grid).
        let dec: Vec<(Point3, f64)> = relative.iter().step_by(20).copied().collect();
        let t0 = Instant::now();
        let _ = hologram::locate(
            &dec,
            SearchVolume::square_2d(hint, 0.1),
            &HologramConfig {
                grid_size: 0.001,
                wavelength: LAMBDA,
                augmented: true,
            },
        )?;
        let dah_time = t0.elapsed().as_secs_f64();
        dah_total += dah_time;

        println!(
            "{item:>4} | ({:+.3}, 0.000) | ({:+.3}, {:+.3}) | {:>5.1} mm | {:>7.2} ms | {:>7.1} ms",
            p0.x,
            start.x,
            start.y,
            error * 1000.0,
            lion_time * 1e3,
            dah_time * 1e3,
        );
    }
    println!(
        "\ntotals: LION {:.1} ms vs DAH {:.0} ms ({:.0}x speedup at equal-or-better accuracy)",
        lion_total * 1e3,
        dah_total * 1e3,
        dah_total / lion_total.max(1e-9)
    );
    Ok(())
}
