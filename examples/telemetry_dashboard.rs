//! A compact latency dashboard for one batch run.
//!
//! Runs the conveyor workload, exports the telemetry registry snapshot
//! to a JSON line, parses it back (exactly what an external collector
//! would do with `target/telemetry/snapshot.jsonl`), and renders a
//! per-stage percentile table from the round-tripped data — proving the
//! export is lossless enough to drive a dashboard.
//!
//! ```bash
//! cargo run --release --example telemetry_dashboard
//! # record a causal trace + health report + registry snapshot:
//! cargo run --release --example telemetry_dashboard -- --trace target/trace
//! # expose the run over the live scrape plane, holding after the batch:
//! cargo run --release --example telemetry_dashboard -- --serve 127.0.0.1:9185 --hold
//! ```
//!
//! With `--trace <dir>` the run installs the flight recorder and feeds a
//! calibration-health [`Doctor`] one observation per job, then writes
//! `<dir>/telemetry_dashboard.trace.json` (Chrome trace-event JSON —
//! load it at <https://ui.perfetto.dev>), `<dir>/health.json`, and
//! `<dir>/snapshot.jsonl`.
//!
//! With `--serve <addr>` the run starts the HTTP scrape server before
//! the batch, installs the telemetry hub with the metrics history plane
//! enabled, and publishes the batch report into the global registry, so
//! `/metrics`, `/snapshot`, `/trace`, `/profile`, and `/query` all
//! carry the run. Add `--hold` to keep serving after the
//! table renders (Enter stops).

use lion::obs::export::{append_json_line, parse_json_line, to_json_line, write_chrome_trace};
use lion::obs::SolveObservation;
use lion::prelude::*;
use std::path::PathBuf;

/// Parses `--trace <dir>` from the command line, if present.
fn trace_dir_from_args() -> Option<PathBuf> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--trace" {
            return Some(PathBuf::from(
                args.next().expect("--trace requires a directory"),
            ));
        }
    }
    None
}

/// Parses `--serve <addr>` from the command line, if present.
fn serve_addr_from_args() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--serve" {
            return Some(args.next().expect("--serve requires an address"));
        }
    }
    None
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let trace_dir = trace_dir_from_args();
    let server = serve_addr_from_args()
        .map(TelemetryServer::bind)
        .transpose()?;
    // Serving wants span rings for /trace and /profile even without
    // --trace; --trace's own (larger) recorder wins when both are given.
    let recorder = trace_dir
        .as_ref()
        .map(|_| install_flight_recorder(1 << 16))
        .or_else(|| server.as_ref().map(|_| install_flight_recorder(1 << 14)));
    // Serving also installs the telemetry hub with the history plane
    // enabled, so `/query` has stored samples to range over.
    let hub = server.as_ref().map(|_| {
        let hub = install_telemetry_hub(SloConfig::default());
        hub.enable_history(HistoryConfig::default());
        hub
    });
    if let Some(server) = &server {
        println!(
            "serving http://{}/metrics (and /health /snapshot /trace /profile /query)",
            server.local_addr()
        );
    }
    // Collect span durations too: the engine emits an `engine.job` span
    // per job, and the core stages emit lion.unwrap/smooth/pairs/solve.
    let collector = std::sync::Arc::new(lion::obs::CollectingSubscriber::new());
    lion::obs::set_global_subscriber(collector.clone());

    let antenna = Antenna::builder(Point3::new(0.0, 0.8, 0.0))
        .phase_center_displacement(0.013, -0.008, 0.0)
        .build();
    let track = LineSegment::along_x(-0.45, 0.45, 0.0, 0.0)?;
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-dashboard"))
        .noise(NoiseModel::paper_default())
        .seed(41_213)
        .build()?;
    // A sample of jobs runs the adaptive sweep so the dashboard shows
    // the sweep's trial counters alongside the stage latencies.
    let mut jobs = Vec::new();
    for case in 0..64 {
        let trace = scenario.scan(&track, 0.25, 120.0)?;
        let measurements = trace.to_measurements();
        let config = LocalizerConfig::paper();
        jobs.push(if case % 8 == 0 {
            Job::adaptive_2d(measurements, config, AdaptiveConfig::default())
        } else {
            Job::locate_2d(measurements, config)
        });
    }
    let outcome = Engine::new().run(&jobs);
    lion::obs::clear_global_subscriber();

    // Export → parse round trip, as an external collector would see it.
    let registry = Registry::new();
    outcome.report.record_into(&registry);
    let line = to_json_line("telemetry_dashboard", &registry.snapshot());
    let (label, snapshot) = parse_json_line(&line)?;
    // Publish the batch report to the global registry too, so a scraper
    // hitting /metrics or /snapshot sees the same stage histograms.
    outcome.report.record_into(lion::obs::global());
    if let Some(hub) = &hub {
        // One history sample of the just-published report, so `/query`
        // serves the run's counters and stage histograms as points.
        hub.sample_tick();
    }

    println!("== telemetry dashboard: {label} ==");
    println!(
        "jobs {} | failed {} | workers {}",
        snapshot.counter("engine.jobs").unwrap_or(0),
        snapshot.counter("engine.failed").unwrap_or(0),
        snapshot.gauge("engine.workers").unwrap_or(0.0),
    );
    println!(
        "adaptive: {} trials | {} skipped",
        snapshot.counter("engine.adaptive_trials").unwrap_or(0),
        snapshot.counter("engine.adaptive_skipped").unwrap_or(0),
    );
    println!();
    println!(
        "{:<12} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "jobs", "p50 µs", "p90 µs", "p99 µs", "max µs"
    );
    for stage in [
        "unwrap",
        "smooth",
        "pairs",
        "solve",
        "adaptive",
        "job_busy",
        "queue_wait",
        "execute",
    ] {
        let Some(hist) = snapshot.histogram(&format!("engine.stage.{stage}_ns")) else {
            continue;
        };
        let us = |ns: u64| ns as f64 / 1e3;
        println!(
            "{:<12} {:>8} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            stage,
            hist.count(),
            us(hist.p50()),
            us(hist.p90()),
            us(hist.p99()),
            us(hist.max()),
        );
    }

    // The span view of the same run, straight from the subscriber.
    println!("\n== span durations (collected live) ==");
    for (name, hist) in collector.span_histograms() {
        println!(
            "{:<14} n={:<5} p50 {:>8.1} µs  p99 {:>8.1} µs",
            name,
            hist.count(),
            hist.p50() as f64 / 1e3,
            hist.p99() as f64 / 1e3,
        );
    }

    // `--trace <dir>`: dump the causal trace, a batch-level health
    // report (one observation per job), and the registry snapshot.
    if let (Some(dir), Some(recorder)) = (trace_dir, recorder) {
        std::fs::create_dir_all(&dir)?;
        let tail = recorder.drain();
        lion::obs::uninstall_flight_recorder();
        let mut doctor = Doctor::new(DoctorConfig::default());
        for (i, result) in outcome.results.iter().enumerate() {
            let estimate = result.as_ref().ok().and_then(|output| output.estimate());
            doctor.observe(SolveObservation {
                time: i as f64,
                mean_residual: estimate.map_or(f64::NAN, |e| e.mean_residual),
                converged: estimate.is_some(),
                reads_in: 1,
                shed: u64::from(result.is_err()),
                resolve_fallback: None,
            });
        }
        let trace_path = dir.join("telemetry_dashboard.trace.json");
        write_chrome_trace(&trace_path, tail.records())?;
        let health = doctor.report();
        let health_path = dir.join("health.json");
        std::fs::write(&health_path, health.to_json())?;
        let snapshot_path = dir.join("snapshot.jsonl");
        append_json_line(&snapshot_path, "telemetry_dashboard", &snapshot)?;
        println!();
        print!("{health}");
        println!(
            "trace written    : {} ({} spans/events, {} dropped)",
            trace_path.display(),
            tail.records().len(),
            tail.total_dropped(),
        );
        println!("health written   : {}", health_path.display());
        println!("snapshot written : {}", snapshot_path.display());
        println!("view the trace at https://ui.perfetto.dev (open trace file)");
    }
    if let Some(server) = server {
        if std::env::args().any(|a| a == "--hold") {
            println!("\nserving until Enter is pressed...");
            let mut line = String::new();
            std::io::stdin().read_line(&mut line)?;
        }
        server.shutdown();
        uninstall_telemetry_hub();
    }
    Ok(())
}
