//! Rotating-tag scanning (paper Sec. V-F2, Fig. 21): LION is trajectory-
//! agnostic, so a turntable replaces the linear slide when that is more
//! convenient.
//!
//! A tag spins on a turntable 0.7 m in front of the antenna; LION locates
//! the antenna from one revolution. The error shrinks as the rotation
//! radius grows, and concentrates along the center→antenna direction.
//!
//! ```bash
//! cargo run --release --example rotating_tag
//! ```

use lion::prelude::*;

fn main() -> Result<(), lion::Error> {
    let target = Point3::new(0.0, 0.7, 0.0);
    let antenna = Antenna::builder(target).build();
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("spinner").with_phase_offset(0.4))
        .seed(21)
        .build()?;

    println!("radius | estimate           | err_x  | err_y  | total");
    for radius in [0.05, 0.10, 0.15, 0.20] {
        let turntable = CircularArc::turntable(Point3::ORIGIN, radius)?;
        // Average a few revolutions per radius.
        let mut ex = 0.0;
        let mut ey = 0.0;
        let mut et = 0.0;
        let mut last = Point3::ORIGIN;
        const REVS: usize = 5;
        for _ in 0..REVS {
            let trace = scenario.scan(&turntable, 0.1, 100.0)?;
            let config = LocalizerConfig {
                side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
                // Pair spacing must fit on the circle.
                pair_strategy: lion::core::PairStrategy::Interval {
                    interval: (radius * 0.9_f64).min(0.2),
                },
                ..LocalizerConfig::default()
            };
            let est = Localizer::new(config, SolveSpace::TwoD).locate(&trace.to_measurements())?;
            ex += (est.position.x - target.x).abs() / REVS as f64;
            ey += (est.position.y - target.y).abs() / REVS as f64;
            et += est.distance_error(target) / REVS as f64;
            last = est.position;
        }
        println!(
            "{:.2} m | ({:+.4}, {:.4}) | {:5.2} cm | {:5.2} cm | {:5.2} cm",
            radius,
            last.x,
            last.y,
            ex * 100.0,
            ey * 100.0,
            et * 100.0
        );
    }
    println!("\nas in the paper: y-error (toward the antenna) dominates and");
    println!("both errors shrink as the rotation radius grows.");
    Ok(())
}
