//! Determinism of the history plane across worker counts: with the same
//! jobs, the same injected clock schedule, and the same alert rules, every
//! stream's health report, the stored time series, the alert state
//! machine's transition log, and the rendered `/alerts` JSON are
//! **bit-identical** whether the engine ran the streams on 1, 2, or 4
//! workers.
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
/// latencies are wall-clock and differ run to run, so no rule or query
/// here references them.
#[derive(Debug, PartialEq)]
struct RunArtifacts {
    health: Vec<HealthReport>,
    transitions: Vec<String>,
    alerts_json: String,
    summary: String,
    series: Vec<String>,
}

fn alert_rules() -> Vec<AlertRule> {
    vec![
        // A fleet-health alert: the doctor rollup's shed verdict.
        AlertRule::above(
            "fleet_ingress_shed",
            AlertExpr::GaugeLast {
                series: "fleet.rule.ingress_shed.firing".to_string(),
            },
            0.0,
        )
        .annotate("doctor_rule", "ingress_shed"),
        // A plain threshold alert with a `for` duration and hysteresis,
        // driven by a gauge the test sets by hand.
        AlertRule::above(
            "test_fault",
            AlertExpr::GaugeLast {
                series: "test.fault".to_string(),
            },
            0.5,
        )
        .clear_at(0.25)
        .for_duration(1_500_000_000),
    ]
}

fn run_with_workers(workers: usize) -> RunArtifacts {
    lion::obs::global().clear();
    let hub = install_telemetry_hub(SloConfig::default());
    let clock = ManualClock::new(0);
    let tsdb = hub.enable_history(HistoryConfig {
        clock: clock.clone(),
        sample_period_ns: 1_000_000_000,
        alert_rules: alert_rules(),
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

    // Scripted clock schedule: breach at 1s (pending), still short of the
    // 1.5s `for` at 2s, firing at 3s, resolved at 4s.
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

    let (transitions, alerts_json, summary) = hub
        .with_alerts(|alerts| {
            (
                alerts
                    .transitions()
                    .map(|t| format!("{t:?}"))
                    .collect::<Vec<_>>(),
                alerts.to_json(),
                alerts.summary(),
            )
        })
        .expect("history enabled");

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
    RunArtifacts {
        health,
        transitions,
        alerts_json,
        summary,
        series,
    }
}

#[test]
fn alert_transitions_and_history_are_identical_across_worker_counts() {
    let baseline = run_with_workers(1);

    // The scripted schedule walked the full state machine.
    assert!(
        baseline.summary.contains("firing"),
        "summary: {}",
        baseline.summary
    );
    assert!(
        baseline
            .transitions
            .iter()
            .any(|t| t.contains("test_fault") && t.contains("Pending")),
        "{:?}",
        baseline.transitions
    );
    assert!(
        baseline
            .transitions
            .iter()
            .any(|t| t.contains("test_fault") && t.contains("Firing")),
        "{:?}",
        baseline.transitions
    );
    assert!(
        baseline.alerts_json.contains("\"resolved\""),
        "{}",
        baseline.alerts_json
    );
    // The flooded portal's Doctor fired its shed rule.
    assert!(
        baseline.health[5].firing().contains(&"ingress_shed"),
        "{}",
        baseline.health[5]
    );
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
