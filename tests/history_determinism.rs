//! Determinism of the history plane across worker counts: with the same
//! jobs and the same injected clock schedule, every stream's health
//! report and the stored time series are **bit-identical** whether the
//! engine ran the streams on 1, 2, or 4 workers.
//!
//! Kept as a single test function: it owns the process-global registry
//! and telemetry hub for its whole duration.

use std::f64::consts::{PI, TAU};

use lion::obs::fleet::HistoryConfig;
use lion::prelude::*;

fn clean_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
    let lambda = StreamConfig::default().localizer.wavelength;
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / lambda) % TAU,
                ..StreamRead::default()
            }
        })
        .collect()
}

/// Six labelled, doctored streams; the last one floods a tiny ingress
/// queue so its doctor deterministically fires `ingress_shed`.
fn jobs() -> Vec<StreamJob> {
    (0..6)
        .map(|i| {
            let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
            let config = StreamConfig::builder()
                .label(format!("portal-{i}"))
                .build()
                .expect("valid");
            let job = StreamJob::new(clean_reads(antenna, 300), config)
                .with_doctor(DoctorConfig::default());
            if i == 5 {
                job.with_burst(100).with_queue_capacity(25)
            } else {
                job
            }
        })
        .collect()
}

/// Everything the history plane produced for one run, flattened to
/// comparable strings. Only deterministic series are queried — solve
/// latencies are wall-clock and differ run to run, so no query here
/// references them.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    health: Vec<HealthReport>,
    series: Vec<String>,
}

fn run_with_workers(workers: usize) -> RunArtifacts {
    lion::obs::global().clear();
    let hub = install_telemetry_hub(SloConfig::default());
    let clock = ManualClock::new(0);
    let tsdb = hub.enable_history(HistoryConfig {
        clock: clock.clone(),
        sample_period_ns: 1_000_000_000,
        ..HistoryConfig::default()
    });

    // The engine brackets the run with sampler due-checks at fixed
    // lifecycle points; with the clock pinned at 0 exactly one sample
    // (t=0) is taken regardless of worker count or wall time.
    let engine = Engine::builder().workers(workers).build().expect("valid");
    let outcomes = engine.run_streams(&jobs());
    assert_eq!(outcomes.len(), 6);
    let health: Vec<HealthReport> = outcomes
        .into_iter()
        .map(|outcome| outcome.expect("stream runs").health.expect("doctored"))
        .collect();

    // Scripted clock schedule: one due sample per second of a
    // hand-driven gauge, after the run's own t=0 sample.
    for (t_ns, fault) in [
        (1_000_000_000u64, 1.0),
        (2_000_000_000, 1.0),
        (3_000_000_000, 1.0),
        (4_000_000_000, 0.1),
    ] {
        clock.set(t_ns);
        lion::obs::global().gauge_set("test.fault", fault);
        assert_eq!(hub.sample_tick(), Some(t_ns), "tick at {t_ns}");
    }

    // Every deterministic series the engine recorded, rendered through
    // the same point JSON the `/query` route serves.
    let mut series = Vec::new();
    for info in tsdb.series_list() {
        // Per-stream series (stream-time stamped), fleet verdict gauges,
        // and the hand-driven fault gauge are deterministic; the bare
        // registry samples (e.g. `lion.stream.solve_ns` latencies) are
        // wall-clock and excluded.
        if !((info.name.starts_with("lion.stream.") && info.name.contains("{stream=\""))
            || info.name.starts_with("fleet.rule.")
            || info.name == "test.fault")
        {
            continue;
        }
        let points = tsdb
            .query(&info.name, Tier::Raw, 0, u64::MAX)
            .expect("listed series exists");
        let lines = match points {
            lion::obs::SeriesPoints::Gauge(ps) => {
                ps.iter().map(|p| p.to_json()).collect::<Vec<_>>()
            }
            lion::obs::SeriesPoints::Counter(ps) => {
                ps.iter().map(|p| p.to_json()).collect::<Vec<_>>()
            }
            lion::obs::SeriesPoints::Histogram(ps) => {
                ps.iter().map(|p| p.to_json()).collect::<Vec<_>>()
            }
        };
        series.push(format!("{} {}", info.name, lines.join(" ")));
    }

    uninstall_telemetry_hub();
    lion::obs::global().clear();
    RunArtifacts { health, series }
}

#[test]
fn health_and_history_are_identical_across_worker_counts() {
    let baseline = run_with_workers(1);

    // The scripted schedule landed in the store at exactly the
    // manual-clock timestamps.
    let fault = baseline
        .series
        .iter()
        .find(|s| s.starts_with("test.fault "))
        .expect("test.fault stored");
    for t_ns in ["1000000000", "2000000000", "3000000000", "4000000000"] {
        assert!(fault.contains(&format!("\"t_ns\":{t_ns},")), "{fault}");
    }
    // The flooded portal's Doctor fired its shed rule.
    assert!(
        baseline.health[5].firing().contains(&"ingress_shed"),
        "{}",
        baseline.health[5]
    );
    // ... and the fleet rollup's shed verdict reached the store.
    let shed = baseline
        .series
        .iter()
        .find(|s| s.starts_with("fleet.rule.ingress_shed.firing "))
        .expect("fleet shed gauge stored");
    assert!(shed.contains("\"last\":1,"), "{shed}");
    // The engine recorded per-stream series under the configured labels.
    assert!(
        baseline
            .series
            .iter()
            .any(|s| s.starts_with("lion.stream.residual{stream=\"portal-0\"}")),
        "{:#?}",
        baseline.series
    );
    assert!(!baseline.series.is_empty());

    for workers in [2, 4] {
        let run = run_with_workers(workers);
        assert_eq!(baseline, run, "history plane diverged at {workers} workers");
    }
}
