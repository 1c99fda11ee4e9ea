//! Online calibration of a conveyor portal, one read at a time.
//!
//! The batch sibling (`conveyor_batch.rs`) waits for each case's full
//! trace before solving. A live portal can't wait: reads trickle in —
//! out of order, some lost — and the operator wants a running antenna
//! estimate *now*, plus a signal that it has settled. That is the
//! streaming pipeline:
//!
//! [`SampleSource`] (simulated reader: bounded out-of-order delivery +
//! i.i.d. read loss) → [`StreamLocalizer`] (bounded sliding window,
//! cadence re-solves, hysteresis convergence) → estimates.
//!
//! ```bash
//! cargo run --release --example conveyor_stream
//! # record a causal trace + health report + registry snapshot:
//! cargo run --release --example conveyor_stream -- --trace target/trace
//! # live telemetry plane: run a whole portal fleet and scrape it:
//! cargo run --release --example conveyor_stream -- --serve 127.0.0.1:9184 --hold
//! ```
//!
//! With `--trace <dir>` the run installs the flight recorder and a
//! calibration-health [`Doctor`], then writes `<dir>/conveyor_stream.trace.json`
//! (Chrome trace-event JSON — load it at <https://ui.perfetto.dev>),
//! `<dir>/health.json`, and `<dir>/snapshot.jsonl`.
//!
//! With `--serve <addr>` the run switches to **fleet mode**: it installs
//! the telemetry hub + flight recorder, enables the metrics history
//! plane (embedded time-series store + background sampler), starts the
//! HTTP scrape server, and drives twelve doctored portal streams through
//! [`Engine::run_streams`] while `/metrics`, `/health`, `/snapshot`,
//! `/trace`, `/profile`, and `/query` answer live. Add `--hold` to keep the server up after the fleet
//! drains (press Enter to stop) — port `0` picks an ephemeral port and
//! prints it.

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

/// One portal's read feed: a calibration tag rides the belt past an
/// antenna at `x_offset`, with seeded delivery jitter and loss.
fn portal_reads(x_offset: f64, seed: u64) -> Result<Vec<StreamRead>, Box<dyn std::error::Error>> {
    let antenna = Antenna::builder(Point3::new(x_offset, 0.8, 0.0))
        .phase_center_displacement(0.013, -0.008, 0.0)
        .build();
    let track = LineSegment::along_x(x_offset - 0.45, x_offset + 0.45, 0.0, 0.0)?;
    let trace = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-fleet"))
        .noise(NoiseModel::paper_default())
        .seed(seed)
        .build()?
        .scan(&track, 0.25, 120.0)?;
    Ok(SampleSource::replay(&trace)
        .with_shuffle(6, seed)
        .with_drop_probability(0.10, seed)
        .map(StreamRead::from)
        .collect())
}

/// Fleet mode: twelve doctored portal streams under the live scrape
/// plane. Every solve feeds the hub's SLO window; every stream's health
/// report lands in the fleet rollup.
fn serve_fleet(addr: &str) -> Result<(), Box<dyn std::error::Error>> {
    let hold = std::env::args().any(|a| a == "--hold");
    lion::obs::install_flight_recorder(1 << 14);
    let hub = install_telemetry_hub(SloConfig::default());
    // History plane: the embedded time-series store (raw/10s/1m tiers)
    // and a background sampler that snapshots the registry once a second
    // while held.
    hub.enable_history(HistoryConfig::default());
    let sampler = hub.start_background_sampler(std::time::Duration::from_millis(250));
    let server = TelemetryServer::bind(addr)?;
    println!("== conveyor fleet: live telemetry ==");
    println!("scrape  http://{}/metrics", server.local_addr());
    for route in ["health", "snapshot", "trace", "profile", "query"] {
        println!("        http://{}/{route}", server.local_addr());
    }
    println!();

    // Twelve labelled portals along the line. Portals 9-11 run starved
    // ingress queues so the shed watchdog has something to fire on.
    let mut jobs = Vec::new();
    for portal in 0..12u64 {
        let config = StreamConfig::builder()
            .window_capacity(320)
            .min_window_len(48)
            .cadence(Cadence::EveryReads(25))
            .label(format!("portal-{portal}"))
            .build()?;
        let reads = portal_reads(0.6 * portal as f64, 20_200 + portal)?;
        let mut job = StreamJob::new(reads, config).with_doctor(DoctorConfig::default());
        if portal >= 9 {
            job = job.with_burst(100).with_queue_capacity(25);
        }
        jobs.push(job);
    }
    let engine = Engine::builder().workers(4).build()?;
    let outcomes = engine.run_streams(&jobs);
    let solved = outcomes.iter().filter(|o| o.is_ok()).count();
    println!("fleet drained: {solved}/{} streams solved", outcomes.len());
    let report = hub.fleet_report();
    report.record_into(lion::obs::global());
    print!("{report}");
    if let Some(tsdb) = hub.tsdb() {
        let stats = tsdb.stats();
        println!(
            "history: {} series, {} points stored ({} evicted), {} bytes of {} cap",
            stats.series,
            stats.inserted_points,
            stats.evicted_points,
            stats.bytes,
            stats.memory_cap_bytes,
        );
    }

    if hold {
        println!();
        println!("serving until Enter is pressed...");
        let mut line = String::new();
        std::io::stdin().read_line(&mut line)?;
    }
    sampler.stop();
    server.shutdown();
    uninstall_telemetry_hub();
    lion::obs::uninstall_flight_recorder();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if let Some(addr) = serve_addr_from_args() {
        return serve_fleet(&addr);
    }
    let trace_dir = trace_dir_from_args();
    let recorder = trace_dir.as_ref().map(|_| install_flight_recorder(1 << 16));
    let mut doctor = trace_dir
        .as_ref()
        .map(|_| Doctor::new(DoctorConfig::default()));
    // The portal: one antenna over the belt, its true phase center a
    // hidden ~1.5 cm off the physical mount.
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = Antenna::builder(antenna_pos)
        .phase_center_displacement(0.013, -0.008, 0.0)
        .build();
    let truth = antenna.phase_center();

    // A calibration tag rides the belt through the read zone.
    let track = LineSegment::along_x(-0.45, 0.45, 0.0, 0.0)?;
    let mut scenario = ScenarioBuilder::new()
        .antenna(antenna)
        .tag(Tag::new("E51-stream"))
        .noise(NoiseModel::paper_default())
        .seed(20_108)
        .build()?;
    let trace = scenario.scan(&track, 0.25, 120.0)?;
    let total_simulated = trace.samples().len();

    // The "live" feed: reads delivered up to 6 positions out of order,
    // 10% lost outright. Both effects are seeded — rerun and you get the
    // identical stream.
    let source = SampleSource::replay(&trace)
        .with_shuffle(6, 7)
        .with_drop_probability(0.10, 7);

    // The pipeline: keep the freshest 320 reads, re-solve every 25, call
    // it converged after 3 consecutive solves that each moved < 15 mm
    // (noisy portal reads; tighten for a quieter site).
    let config = StreamConfig::builder()
        .window_capacity(320)
        .min_window_len(48)
        .cadence(Cadence::EveryReads(25))
        .convergence(ConvergenceConfig {
            enter_eps: 15e-3,
            exit_eps: 50e-3,
            hold: 3,
        })
        .build()?;
    let mut stream = StreamLocalizer::new(config)?;

    println!("== conveyor stream: online calibration ==");
    println!("true phase center: ({:+.4}, {:+.4}) m", truth.x, truth.y);
    println!();
    println!("  seq   reads  window   span(s)    x(m)      y(m)    err(mm)  conf  state");

    let mut first_converged_at: Option<u64> = None;
    let mut observed_reads = 0u64;
    // One root span over the whole feed: every stage span the pipeline
    // emits (window → unwrap → … → solve) nests under it, so the
    // recorded Chrome trace shows one job tree instead of loose roots.
    let feed_span = lion::obs::span!("conveyor.feed");
    for sample in source {
        let emitted = match stream.push(StreamRead::from(sample)) {
            Ok(emitted) => emitted,
            // A transiently degenerate window (warm-up) is not fatal to
            // a live pipeline: keep feeding reads.
            Err(_) => continue,
        };
        if let Some(est) = emitted {
            if let Some(doctor) = doctor.as_mut() {
                doctor.observe(SolveObservation {
                    time: est.trigger_time,
                    mean_residual: est.mean_residual,
                    converged: est.converged,
                    reads_in: est.reads_seen - observed_reads,
                    shed: 0,
                    resolve_fallback: None,
                });
                observed_reads = est.reads_seen;
            }
            let err_mm = est.position.distance(truth) * 1e3;
            println!(
                "  {:3}  {:6}  {:6}  {:7.3}  {:+.4}  {:+.4}  {:7.2}  {:.2}  {}",
                est.seq,
                est.reads_seen,
                est.window_len,
                est.window_span,
                est.position.x,
                est.position.y,
                err_mm,
                est.confidence,
                if est.converged {
                    "converged"
                } else {
                    "settling"
                },
            );
            if est.converged && first_converged_at.is_none() {
                first_converged_at = Some(est.reads_seen);
            }
        }
    }
    // End of belt: solve whatever the window still holds.
    let final_estimate = stream.flush()?.expect("stream saw reads");
    drop(feed_span);

    println!();
    println!("reads simulated     : {total_simulated}");
    println!(
        "reads delivered     : {} ({} lost in the air)",
        stream.reads_seen(),
        total_simulated as u64 - stream.reads_seen()
    );
    println!("reads rejected late : {}", stream.rejected_late());
    println!("estimates emitted   : {}", stream.estimates_emitted());
    match first_converged_at {
        Some(reads) => println!("converged after     : {reads} reads"),
        None => println!("converged after     : (never)"),
    }
    println!(
        "final estimate      : ({:+.4}, {:+.4}) m, {:.2} mm off truth",
        final_estimate.position.x,
        final_estimate.position.y,
        final_estimate.position.distance(truth) * 1e3
    );
    if let Some(offset) = final_estimate.phase_offset {
        println!(
            "phase offset        : {:.4} rad (spread {:.4})",
            offset,
            final_estimate.offset_spread.unwrap_or(f64::NAN)
        );
    }

    // The pipeline instrumented itself: solve latency and read→estimate
    // lag live in the global registry.
    let snapshot = lion::obs::global().snapshot();
    for name in [
        lion::stream::SOLVE_HISTOGRAM,
        lion::stream::STREAM_LAG_HISTOGRAM,
    ] {
        if let Some(h) = snapshot.histogram(name) {
            println!(
                "{name}: n={} p50={}ns p99={}ns",
                h.count(),
                h.quantile(0.5),
                h.quantile(0.99),
            );
        }
    }

    // `--trace <dir>`: dump everything observability collected.
    if let (Some(dir), Some(recorder)) = (trace_dir, recorder) {
        std::fs::create_dir_all(&dir)?;
        let tail = recorder.drain();
        lion::obs::uninstall_flight_recorder();
        let trace_path = dir.join("conveyor_stream.trace.json");
        lion::obs::export::write_chrome_trace(&trace_path, tail.records())?;
        let health = doctor.expect("doctor runs alongside the recorder").report();
        let health_path = dir.join("health.json");
        std::fs::write(&health_path, health.to_json())?;
        let snapshot_path = dir.join("snapshot.jsonl");
        lion::obs::export::append_json_line(&snapshot_path, "conveyor_stream", &snapshot)?;
        println!();
        print!("{health}");
        println!(
            "trace written       : {} ({} spans/events, {} dropped)",
            trace_path.display(),
            tail.records().len(),
            tail.total_dropped(),
        );
        println!("health written      : {}", health_path.display());
        println!("snapshot written    : {}", snapshot_path.display());
        println!("view the trace at https://ui.perfetto.dev (open trace file)");
    }
    Ok(())
}
