//! Calibration-health watchdog integration tests: a clean streamed run
//! reports all rules healthy, and a mid-stream phase-offset ramp
//! (injected by the simulator) trips `residual_drift` within one
//! watchdog window — through the real engine + doctor wiring, not the
//! unit-level `Doctor` API.

use lion::obs::RuleStatus;
use lion::prelude::*;
use lion::sim::PhaseSample;
use std::f64::consts::{PI, TAU};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// A noiseless circular scan as simulator samples: 100 Hz, `n` reads.
fn circle_samples(antenna: Point3, n: usize) -> Vec<PhaseSample> {
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            PhaseSample {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA).rem_euclid(TAU),
                rssi_dbm: -55.0,
                frequency_hz: 920.625e6,
            }
        })
        .collect()
}

fn doctored_job(reads: Vec<StreamRead>) -> StreamJob {
    // Noiseless fixture: smoothing off keeps the solves exact, so the
    // residuals reflect injected faults only. Incremental resolve mode
    // so the doctor's fourth rule (`resolve_fallback`) sees data — in
    // replay mode it is insufficient-data by design.
    let config = StreamConfig::builder()
        .localizer(LocalizerConfig {
            smoothing_window: 1,
            ..LocalizerConfig::default()
        })
        .window_capacity(200)
        .min_window_len(40)
        .cadence(Cadence::EveryReads(20))
        .resolve_mode(ResolveMode::Incremental)
        .build()
        .expect("valid config");
    StreamJob::new(reads, config).with_doctor(DoctorConfig::default())
}

fn run_health(reads: Vec<StreamRead>) -> HealthReport {
    let outcome = Engine::serial()
        .run_streams(&[doctored_job(reads)])
        .pop()
        .unwrap()
        .expect("stream runs");
    assert!(!outcome.estimates.is_empty(), "cadence solves happened");
    outcome.health.expect("doctor attached to the job")
}

#[test]
fn clean_run_reports_all_rules_healthy() {
    let samples = circle_samples(Point3::new(1.2, 0.4, 0.0), 300);
    let trace = PhaseTrace::new(samples, LAMBDA);
    let reads: Vec<StreamRead> = SampleSource::replay(&trace).map(StreamRead::from).collect();
    let health = run_health(reads);
    assert!(health.healthy, "clean run degraded: {health}");
    assert!(health.firing().is_empty());
    // Enough solves that every rule judged (none left insufficient).
    for rule in &health.rules {
        assert_eq!(rule.status, RuleStatus::Healthy, "{}: {health}", rule.rule);
    }
}

#[test]
fn injected_phase_ramp_trips_residual_drift_within_one_window() {
    let samples = circle_samples(Point3::new(1.2, 0.4, 0.0), 300);
    let trace = PhaseTrace::new(samples, LAMBDA);
    // The simulator ramps the antenna's phase offset from t = 2.0 s:
    // 50 rad/s shreds intra-window phase coherence, so solves past the
    // onset carry residuals far above the clean baseline. The doctor's
    // baseline froze earlier (8 solves ≈ reads 40..180, all clean).
    let reads: Vec<StreamRead> = SampleSource::replay(&trace)
        .with_phase_ramp(2.0, 50.0)
        .map(StreamRead::from)
        .collect();
    let health = run_health(reads);
    assert!(!health.healthy, "drift went unflagged: {health}");
    assert!(
        health.firing().contains(&"residual_drift"),
        "expected residual_drift to fire: {health}"
    );
    let rule = health.rule("residual_drift").expect("rule present");
    assert!(
        rule.value > rule.threshold,
        "ratio {} must exceed threshold {}",
        rule.value,
        rule.threshold
    );
    // The report renders deterministically and round-trips the in-repo
    // JSON parser.
    let json = health.to_json();
    let doc = lion::obs::json::parse(&json).expect("valid JSON");
    assert_eq!(
        doc.get("healthy"),
        Some(&lion::obs::json::Json::Bool(false))
    );
    let rules = doc.get("rules").and_then(|v| v.as_array()).expect("rules");
    let names: Vec<&str> = rules
        .iter()
        .filter_map(|r| r.get("rule").and_then(|v| v.as_str()))
        .collect();
    assert_eq!(
        names,
        [
            "residual_drift",
            "convergence_stall",
            "ingress_shed",
            "resolve_fallback"
        ],
        "rule order is fixed"
    );
}

#[test]
fn health_is_absent_without_a_doctor() {
    let samples = circle_samples(Point3::new(1.2, 0.4, 0.0), 200);
    let trace = PhaseTrace::new(samples, LAMBDA);
    let reads: Vec<StreamRead> = SampleSource::replay(&trace).map(StreamRead::from).collect();
    let job = StreamJob::new(reads, StreamConfig::default());
    let outcome = Engine::serial()
        .run_streams(&[job])
        .pop()
        .unwrap()
        .expect("stream runs");
    assert!(outcome.health.is_none(), "no doctor, no report");
}
