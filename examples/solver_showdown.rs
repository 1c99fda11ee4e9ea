//! Side-by-side comparison of the solver backends behind the
//! [`Solver`] seam.
//!
//! The same simulated scan is solved by the paper's linear backend
//! (radical-line system + IRLS) and the coarse-to-fine likelihood grid,
//! at several phase-noise levels. The linear backend is orders of
//! magnitude faster; the grid needs no pairing strategy and degrades
//! differently under noise — the accuracy-vs-latency dial the
//! [`SolverKind`] knob exposes (see DESIGN §12 and the README's
//! "Choosing a solver").
//!
//! ```bash
//! cargo run --release --example solver_showdown
//! ```

use lion::prelude::*;
use std::time::Instant;

fn main() -> Result<(), lion::Error> {
    let truth = Point3::new(0.12, 0.85, 0.0);
    let track = LineSegment::along_x(-0.4, 0.4, 0.0, 0.0)?;

    println!("target (hidden phase center): {truth}");
    println!();
    println!("noise σ  | backend | error      | time      | iters");
    println!("---------|---------|------------|-----------|------");

    for sigma in [0.0_f64, 0.05, 0.15] {
        let antenna = Antenna::builder(truth).build();
        let noise = NoiseModel {
            phase_noise_std: sigma,
            ..NoiseModel::noiseless()
        };
        let trace = ScenarioBuilder::new()
            .antenna(antenna)
            .tag(Tag::new("E51-showdown"))
            .noise(noise)
            .seed(42)
            .build()?
            .scan(&track, 0.1, 100.0)?;
        let m = trace.to_measurements();

        for kind in [SolverKind::Linear, SolverKind::Grid(GridConfig::default())] {
            let config = LocalizerConfig::builder()
                .side_hint(Point3::new(0.0, 1.0, 0.0))
                .solver(kind)
                .build()?;
            let localizer = Localizer::new(config, SolveSpace::TwoD);
            let t = Instant::now();
            let estimate = localizer.locate(&m)?;
            let elapsed = t.elapsed();
            println!(
                "{sigma:>5.2}    | {:<7} | {:>7.2} mm | {:>7.2} ms | {}",
                kind.label(),
                estimate.distance_error(truth) * 1e3,
                elapsed.as_secs_f64() * 1e3,
                estimate.iterations,
            );
        }
    }

    println!();
    println!(
        "The grid pays its latency for robustness knobs (search region,\n\
         contrast gate) and pairing-free scoring; the linear model is\n\
         the right default. Select per workload via\n\
         LocalizerConfig::builder().solver(...)."
    );
    Ok(())
}
