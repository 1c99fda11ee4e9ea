//! Quickstart: locate an RFID antenna's true phase center with LION.
//!
//! A simulated antenna is mounted at a known physical position, but — like
//! real hardware — actually transmits from a phase center a couple of
//! centimeters away. One tag pass along a linear slide is enough for LION
//! to pinpoint the phase center in 2D.
//!
//! ```bash
//! cargo run --release --example quickstart
//! ```

use lion::prelude::*;

fn main() -> Result<(), lion::Error> {
    // The installer measured the antenna at (0, 0.8) m... but the phase
    // center hides 2.1 cm to the side and 1.2 cm closer to the track.
    let physical_center = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(physical_center)
        .phase_center_displacement(0.021, -0.012, 0.0)
        .phase_offset(2.74)
        .build();
    let truth = antenna.phase_center();

    // One pass of a tag along a 0.8 m track at 10 cm/s, read at 100 Hz.
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-quickstart").with_phase_offset(1.3))
        .seed(7)
        .build()?;
    let track = LineSegment::along_x(-0.4, 0.4, 0.0, 0.0)?;
    let trace = scenario.scan(&track, 0.1, 100.0)?;
    println!("collected {} phase samples", trace.len());

    // LION: unwrap, pair, solve the radical-line system, recover the
    // perpendicular coordinate from the reference distance.
    let config = LocalizerConfig {
        side_hint: Some(physical_center),
        ..LocalizerConfig::default()
    };
    let estimate = Localizer::new(config, SolveSpace::TwoD).locate(&trace.to_measurements())?;

    println!("physical center : {physical_center}");
    println!("true phase center: {truth}");
    println!("LION estimate    : {}", estimate.position);
    println!(
        "error vs truth   : {:.2} mm  (vs {:.1} mm if you trusted the physical center)",
        estimate.position.to_xy().distance(truth.to_xy()) * 1000.0,
        physical_center.to_xy().distance(truth.to_xy()) * 1000.0
    );
    println!(
        "solved {} radical-line equations in {} reweighting iterations",
        estimate.equation_count, estimate.iterations
    );
    Ok(())
}
