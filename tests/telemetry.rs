//! End-to-end observability: spans flow from the core pipeline and the
//! engine workers to a globally installed subscriber, batch reports carry
//! latency distributions, and registry snapshots survive both export
//! formats.

use std::f64::consts::{PI, TAU};
use std::sync::{Arc, Mutex, MutexGuard};

use lion::obs::export::{parse_json_line, to_json_line, to_prometheus};
use lion::prelude::*;

fn clean_trace(antenna: Point3) -> Vec<(Point3, f64)> {
    let lambda = LocalizerConfig::paper().wavelength;
    (0..150)
        .map(|i| {
            let a = i as f64 * TAU / 150.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            (p, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
        })
        .collect()
}

fn batch_jobs(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let antenna = Point3::new(1.0 + 0.02 * i as f64, 0.0, 0.0);
            Job::locate_2d(clean_trace(antenna), LocalizerConfig::paper())
        })
        .collect()
}

/// Serializes the engine runs of this binary's tests: while the
/// global-subscriber test has its collector installed, the spans of any
/// job another test runs at the same time reach it too and inflate its
/// counts.
static ENGINE_RUNS: Mutex<()> = Mutex::new(());

fn engine_runs() -> MutexGuard<'static, ()> {
    // The guarded value is `()`, so a test that panicked holding the
    // lock leaves nothing inconsistent behind.
    ENGINE_RUNS
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// The one test that installs the process-global subscriber (kept as a
/// single function so parallel tests in this binary can't race on it).
#[test]
fn spans_reach_a_global_subscriber_from_worker_threads() {
    let _serial = engine_runs();
    let collector = Arc::new(lion::obs::CollectingSubscriber::new());
    lion::obs::set_global_subscriber(collector.clone());
    let mut jobs = batch_jobs(12);
    jobs.push(Job::locate_2d(Vec::new(), LocalizerConfig::paper()));
    let outcome = Engine::builder()
        .workers(4)
        .build()
        .expect("valid")
        .run(&jobs);
    lion::obs::clear_global_subscriber();

    // Engine workers are spawned threads — spans still reach the global
    // subscriber, one engine.job span per job.
    let spans = collector.span_histograms();
    let get = |name: &str| {
        spans
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, h)| h.clone())
            .unwrap_or_else(|| panic!("missing span {name}: {spans:?}"))
    };
    assert_eq!(get("engine.job").count(), 13);
    // The failing job errors before reaching the solver, so the solve
    // span fires once per *successful* job (unwrap is entered before the
    // empty-trace validation rejects, so it sees the failing job too).
    assert_eq!(get("lion.solve").count(), 12);
    assert_eq!(get("lion.unwrap").count(), 13);
    assert!(get("lion.solve").p99() >= get("lion.solve").p50());

    // The report's distributions agree with the subscriber's view on
    // cardinality, and the failure taxonomy names the injected error.
    assert_eq!(outcome.report.stages.solve.count(), 13);
    assert_eq!(outcome.report.failed, 1);
    assert_eq!(outcome.report.failures_by_kind.len(), 1);
    assert_eq!(outcome.report.failures_by_kind[0].1, 1);
    assert!(outcome.report.to_string().contains("failures:"));

    // With the subscriber gone, telemetry is off again.
    assert!(!lion::obs::enabled());
}

#[test]
fn report_distributions_cover_every_job_and_round_trip() {
    let _serial = engine_runs();
    let jobs = batch_jobs(8);
    let outcome = Engine::serial().run(&jobs);
    let report = &outcome.report;
    for (name, hist) in report.stages.named() {
        assert_eq!(hist.count(), 8, "stage {name}");
    }
    // Queue-wait and execute come from the engine's own clocks.
    assert!(report.stages.execute.sum() > 0);
    assert_eq!(outcome.timings.len(), 8);
    // Serde round trip (via the hand-rolled JSON codec) is lossless.
    let back = MetricsReport::from_json_str(&report.to_json_string()).expect("well-formed");
    assert_eq!(*report, back);
    assert_eq!(back.stages.solve.p99(), report.stages.solve.p99());
}

#[test]
fn registry_snapshot_exports_to_both_formats() {
    let _serial = engine_runs();
    let outcome = Engine::serial().run(&batch_jobs(4));
    let registry = Registry::new();
    outcome.report.record_into(&registry);
    let snapshot = registry.snapshot();

    let line = to_json_line("batch", &snapshot);
    let (label, parsed) = parse_json_line(&line).expect("parses");
    assert_eq!(label, "batch");
    assert_eq!(parsed.counter("engine.jobs"), Some(4));
    assert_eq!(
        parsed.histogram("engine.stage.solve_ns").map(|h| h.count()),
        snapshot
            .histogram("engine.stage.solve_ns")
            .map(|h| h.count()),
    );

    let prom = to_prometheus(&snapshot);
    assert!(prom.contains("# TYPE engine_jobs_total counter"), "{prom}");
    assert!(prom.contains("engine_jobs_total 4"), "{prom}");
    assert!(prom.contains("engine_stage_solve_ns_bucket"), "{prom}");
    assert!(prom.contains("le=\"+Inf\""), "{prom}");
}
