//! Batch localization on a conveyor line with the parallel engine.
//!
//! A portal antenna reads every case rolling past on a belt. Each case's
//! trace is an independent localization problem — exactly the shape the
//! [`Engine`] is built for: one [`Job`] per case, fanned across worker
//! threads, results back in submission order, bit-identical to a serial
//! run, with the stage counters and job timings aggregated into a
//! [`MetricsReport`].
//!
//! With an output directory argument the run also exports its telemetry
//! — a JSON-lines registry snapshot and a Prometheus text exposition —
//! which `just telemetry` and `examples/telemetry_dashboard.rs` consume:
//!
//! ```bash
//! cargo run --release --example conveyor_batch
//! cargo run --release --example conveyor_batch -- target/telemetry
//! ```

use std::path::Path;
use std::time::Instant;

use lion::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The portal: one antenna looking down at the belt from 0.8 m.
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(antenna_pos)
        .phase_center_displacement(0.013, -0.008, 0.0)
        .build();
    let truth = antenna.phase_center();

    // 96 cases roll past; each gets its own noisy trace. Traces are
    // simulated up front (serially, so the RNG stream is reproducible) —
    // the engine then parallelizes the pure solve work.
    let track = LineSegment::along_x(-0.45, 0.45, 0.0, 0.0)?;
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-conveyor"))
        .noise(NoiseModel::paper_default())
        .seed(20_108)
        .build()?;
    // Every eighth case runs the adaptive range/interval sweep — the
    // QC station double-checking a sample of cases — so the batch also
    // exercises the sweep and its trial counters.
    let mut jobs = Vec::new();
    for case in 0..96 {
        let trace = scenario.scan(&track, 0.25, 120.0)?;
        let measurements = trace.to_measurements();
        let config = LocalizerConfig::paper();
        jobs.push(if case % 8 == 0 {
            Job::adaptive_2d(measurements, config, AdaptiveConfig::default())
        } else {
            Job::locate_2d(measurements, config)
        });
    }

    // Serial reference.
    let serial_start = Instant::now();
    let serial = Engine::serial().run(&jobs);
    let serial_elapsed = serial_start.elapsed();

    // Parallel run on every available core.
    let engine = Engine::new();
    let parallel_start = Instant::now();
    let parallel = engine.run(&jobs);
    let parallel_elapsed = parallel_start.elapsed();

    println!("== conveyor batch: 96 cases ==");
    println!(
        "serial   ({} worker):  {:8.2} ms",
        serial.report.workers,
        serial_elapsed.as_secs_f64() * 1e3
    );
    println!(
        "parallel ({} workers): {:8.2} ms  ({:.2}x)",
        parallel.report.workers,
        parallel_elapsed.as_secs_f64() * 1e3,
        serial_elapsed.as_secs_f64() / parallel_elapsed.as_secs_f64().max(1e-9)
    );

    // Determinism: the parallel estimates are bit-identical to serial.
    let identical = serial
        .results
        .iter()
        .zip(&parallel.results)
        .all(|(s, p)| match (s, p) {
            (Ok(a), Ok(b)) => a.position() == b.position(),
            (Err(_), Err(_)) => true,
            _ => false,
        });
    println!("parallel == serial (bitwise): {identical}");
    assert!(identical, "engine must be deterministic");

    // Accuracy: every case pins the same hidden phase center.
    let mean_error: f64 = parallel
        .results
        .iter()
        .filter_map(|r| r.as_ref().ok())
        .map(|o| o.position().distance(truth))
        .sum::<f64>()
        / parallel.results.len() as f64;
    println!("mean phase-center error: {:.2} mm", mean_error * 1e3);

    println!("\n== engine metrics ==\n{}", parallel.report);

    // The sweep's trial counters: grid cells solved and skipped.
    let totals = &parallel.report.total;
    println!(
        "adaptive sweep: {} trials ({} skipped)",
        totals.adaptive_trials, totals.adaptive_skipped,
    );

    // Optional telemetry export: `conveyor_batch -- <dir>` writes the
    // registry snapshot as JSON lines and Prometheus text.
    if let Some(dir) = std::env::args().nth(1) {
        let dir = Path::new(&dir);
        let registry = Registry::new();
        parallel.report.record_into(&registry);
        let snapshot = registry.snapshot();
        let jsonl = dir.join("snapshot.jsonl");
        let prom = dir.join("metrics.prom");
        lion::obs::export::append_json_line(&jsonl, "conveyor_batch", &snapshot)?;
        lion::obs::export::write_prometheus(&prom, &snapshot)?;
        println!(
            "\ntelemetry written: {} and {}",
            jsonl.display(),
            prom.display()
        );
    }
    Ok(())
}
