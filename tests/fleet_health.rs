//! Fleet-wide telemetry integration: `Engine::run_streams` feeding the
//! installed telemetry hub, scraped over the live HTTP plane.
//!
//! One test drives a ≥ 8-stream fleet (some streams deliberately
//! starved so watchdogs fire) with the hub and scrape server up, then
//! asserts `/health` carries the full rollup — per-rule firing counts,
//! healthy/degraded totals, SLO budget burn — and that the engine's
//! outcomes are bit-identical to a hub-less run of the same jobs (the
//! telemetry plane observes; it must not perturb). It also checks the
//! shipped Prometheus rule file against the `/metrics` scrape, so an
//! alert cannot name a metric the exporter does not serve.
//!
//! A second test checks that the hub's SLO window holds one sample per
//! solve, each the time the `lion.stream.solve_ns` histogram recorded
//! for that solve.
//!
//! The hub, registry, and recorder are process globals, so every test
//! here holds the `GLOBALS` lock for its whole run.

use lion::engine::StreamOutcome;
use lion::prelude::*;
use std::collections::BTreeMap;
use std::f64::consts::{PI, TAU};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Serializes the tests over the process-global hub and registry.
static GLOBALS: Mutex<()> = Mutex::new(());

fn hold_globals() -> MutexGuard<'static, ()> {
    GLOBALS.lock().unwrap_or_else(PoisonError::into_inner)
}

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// A noiseless circular scan around `antenna`: 100 Hz, `n` reads.
fn circle_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA).rem_euclid(TAU),
                ..StreamRead::default()
            }
        })
        .collect()
}

fn fleet_jobs() -> Vec<StreamJob> {
    let config = StreamConfig::builder()
        .window_capacity(200)
        .min_window_len(40)
        .cadence(Cadence::EveryReads(20))
        .build()
        .expect("valid config");
    (0..10)
        .map(|i| {
            let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
            let mut job = StreamJob::new(circle_reads(antenna, 300), config.clone())
                .with_doctor(DoctorConfig::default());
            if i >= 8 {
                // Starved ingress: 100-read bursts into 25 slots shed
                // 75%, so `ingress_shed` fires on these two streams.
                job = job.with_burst(100).with_queue_capacity(25);
            }
            job
        })
        .collect()
}

/// The Prometheus rule file shipped for deployments.
const RULES: &str = include_str!("../deploy/prometheus/lion-rules.yml");

/// Metric names in a PromQL expression: the identifiers that are not
/// numbers, keywords, function calls or aggregations (followed by `(`,
/// `by` or `without`), `{...}` label matchers or `by (...)`-style
/// grouping labels.
fn metric_names(expr: &str) -> Vec<&str> {
    const GROUPING: [&str; 6] = [
        "by",
        "without",
        "on",
        "ignoring",
        "group_left",
        "group_right",
    ];
    const KEYWORDS: [&str; 5] = ["and", "or", "unless", "bool", "offset"];
    let is_ident = |c: char| c.is_ascii_alphanumeric() || c == '_' || c == ':';
    let mut names = Vec::new();
    let (mut start, mut last, mut skip_until) = (0, "", None);
    for (i, c) in expr.char_indices().chain([(expr.len(), ' ')]) {
        if is_ident(c) {
            continue;
        }
        let ident = &expr[start..i];
        start = i + c.len_utf8();
        if !ident.is_empty() {
            last = ident;
        }
        let next = expr[i..].trim_start();
        let next_word = next.split(|c: char| !is_ident(c)).next().unwrap_or("");
        let is_operator = next.starts_with('(') || ["by", "without"].contains(&next_word);
        if skip_until.is_none()
            && !is_operator
            && ident.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && !GROUPING.contains(&ident)
            && !KEYWORDS.contains(&ident)
        {
            names.push(ident);
        }
        match c {
            '{' => skip_until = Some('}'),
            '(' if GROUPING.contains(&last) => skip_until = Some(')'),
            c if Some(c) == skip_until => skip_until = None,
            _ => {}
        }
    }
    names
}

fn scrape(addr: std::net::SocketAddr, path: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream
        .write_all(
            format!("GET {path} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n").as_bytes(),
        )
        .expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let text = String::from_utf8(response).expect("utf8 response");
    let (head, body) = text.split_once("\r\n\r\n").expect("head/body split");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
    body.to_string()
}

#[test]
fn fleet_rollup_is_scrapeable_and_does_not_perturb_outcomes() {
    let _globals = hold_globals();
    let jobs = fleet_jobs();
    let engine = Engine::builder().workers(4).build().expect("valid engine");

    // Baseline: the same fleet with no telemetry plane attached.
    let baseline = engine.run_streams(&jobs);

    // Live plane up: hub + scrape server (the recorder stays out — the
    // profile/trace routes are covered by the obs crate's own tests).
    let hub = install_telemetry_hub(lion::obs::SloConfig::default());
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral");
    let observed = engine.run_streams(&jobs);

    // The plane observes without perturbing: bit-identical estimates.
    for (b, o) in baseline.iter().zip(&observed) {
        let (b, o) = (b.as_ref().unwrap(), o.as_ref().unwrap());
        assert_eq!(b.estimates.len(), o.estimates.len());
        for (x, y) in b.estimates.iter().zip(&o.estimates) {
            assert_eq!(x.position, y.position);
            assert_eq!(x.seq, y.seq);
        }
    }

    // `/health` carries the rollup of all 10 doctored streams.
    let health = scrape(server.local_addr(), "/health");
    let doc = lion::obs::json::parse(health.trim()).expect("health JSON parses");
    assert_eq!(
        doc.get("hub_installed").and_then(|v| v.as_bool()),
        Some(true)
    );
    let fleet = doc.get("fleet").expect("fleet rollup present");
    let streams = fleet.get("streams").and_then(|v| v.as_u64()).unwrap();
    assert!(streams >= 8, "only {streams} streams aggregated");

    // Per-rule firing counts: the two starved streams trip ingress_shed
    // and nothing reports the clean streams unhealthy.
    let rules = fleet
        .get("rules")
        .and_then(|v| v.as_array())
        .expect("rules array");
    let firing = |name: &str| {
        rules
            .iter()
            .find(|r| r.get("rule").and_then(|v| v.as_str()) == Some(name))
            .and_then(|r| r.get("firing"))
            .and_then(|v| v.as_u64())
            .unwrap_or_else(|| panic!("rule {name} missing from rollup"))
    };
    assert_eq!(firing("ingress_shed"), 2, "{health}");
    assert_eq!(firing("convergence_stall"), 0, "{health}");
    let healthy = fleet.get("healthy").and_then(|v| v.as_u64()).unwrap();
    assert!(healthy >= 8, "{health}");

    // SLO budget burn is present and finite (every solve fed the window).
    let slo = fleet.get("slo").expect("slo verdict");
    assert!(slo.get("window_len").and_then(|v| v.as_u64()).unwrap() > 0);
    assert!(slo.get("burn_rate").and_then(|v| v.as_f64()).is_some());

    // The same rollup reaches Prometheus as fleet gauges.
    let metrics = scrape(server.local_addr(), "/metrics");
    assert!(
        metrics.contains(&format!("fleet_streams {streams}")),
        "{metrics}"
    );
    assert!(metrics.contains("fleet_rule_ingress_shed_firing 2"));
    assert!(metrics.contains("# TYPE fleet_slo_burn_rate gauge"));

    // The shipped Prometheus rule file alerts on names this exporter
    // really serves: every metric in an `expr:` line is a gauge here.
    assert_eq!(
        metric_names(r#"sum by (job) (rate(a_total{job="x"}[5m])) > 0.5 and on (i) b"#),
        ["a_total", "b"]
    );
    let exprs: Vec<&str> = RULES
        .lines()
        .filter_map(|line| line.trim().strip_prefix("expr:"))
        .collect();
    assert!(!exprs.is_empty(), "no expr: lines in the rule file");
    for expr in exprs {
        let names = metric_names(expr);
        assert!(!names.is_empty(), "no metric in `{expr}`");
        for name in names {
            assert!(
                metrics.contains(&format!("# TYPE {name} gauge")),
                "rule metric {name} is not a gauge on /metrics"
            );
        }
    }

    // And the rollup is submission-order deterministic: the worst shed
    // offender is one of the two starved slots, by stream id.
    let worst = rules
        .iter()
        .find(|r| r.get("rule").and_then(|v| v.as_str()) == Some("ingress_shed"))
        .and_then(|r| r.get("worst_stream"))
        .and_then(|v| v.as_str())
        .expect("worst offender recorded");
    assert!(worst == "stream-8" || worst == "stream-9", "{worst}");

    server.shutdown();
    let hub_again = uninstall_telemetry_hub().expect("hub was installed");
    assert_eq!(hub_again.fleet_report().streams, hub.fleet_report().streams);
}

/// The global `lion.stream.solve_ns` histogram as it stands.
fn solve_histogram() -> Histogram {
    lion::obs::global()
        .snapshot()
        .histogram(lion::stream::SOLVE_HISTOGRAM)
        .cloned()
        .unwrap_or_default()
}

/// Per-bucket counts recorded between two snapshots of one histogram.
fn bucket_delta(before: &Histogram, after: &Histogram) -> BTreeMap<u64, u64> {
    let earlier: BTreeMap<u64, u64> = before.nonzero_buckets().collect();
    after
        .nonzero_buckets()
        .map(|(bound, n)| (bound, n - earlier.get(&bound).copied().unwrap_or(0)))
        .filter(|&(_, n)| n > 0)
        .collect()
}

#[test]
fn every_solve_feeds_one_slo_sample_timed_by_the_solve_histogram() {
    let _globals = hold_globals();
    let engine = Engine::builder().workers(2).build().expect("valid engine");
    let hub = install_telemetry_hub(lion::obs::SloConfig {
        window: 1 << 16,
        ..lion::obs::SloConfig::default()
    });

    // A clean fleet: every solve emits an estimate, and each emitted
    // solve adds one SLO sample equal to its `solve_ns` sample.
    let before = solve_histogram();
    let outcomes = engine.run_streams(&fleet_jobs());
    let after = solve_histogram();
    let outcomes: Vec<StreamOutcome> = outcomes.into_iter().map(|o| o.unwrap()).collect();
    let emitted: u64 = outcomes.iter().map(|o| o.estimates.len() as u64).sum();
    assert!(emitted > 0);
    assert!(outcomes.iter().all(|o| o.solve_errors == 0));
    let samples: Vec<u64> = hub.with_fleet(|fleet| fleet.slo().latencies_ns().collect());
    assert_eq!(hub.fleet_report().slo.total, emitted);
    assert_eq!(samples.len() as u64, emitted);
    assert_eq!(after.count() - before.count(), emitted);
    assert_eq!(after.sum() - before.sum(), samples.iter().sum::<u64>());
    let mut sampled = Histogram::new();
    for &ns in &samples {
        sampled.record(ns);
    }
    assert_eq!(
        bucket_delta(&before, &after),
        sampled.nonzero_buckets().collect::<BTreeMap<_, _>>()
    );

    // A stream that never moves cannot be solved: each failed solve adds
    // one failure to the window and no latency sample.
    let still: Vec<StreamRead> = circle_reads(Point3::new(1.2, 0.4, 0.0), 120)
        .into_iter()
        .map(|read| StreamRead {
            position: Point3::new(0.3, 0.0, 0.0),
            ..read
        })
        .collect();
    let config = StreamConfig::builder()
        .cadence(Cadence::EveryReads(20))
        .build()
        .expect("valid config");
    let mixed = [
        StreamJob::new(still, config.clone()),
        StreamJob::new(circle_reads(Point3::new(1.1, 0.4, 0.0), 200), config),
    ];
    let outcomes: Vec<StreamOutcome> = engine
        .run_streams(&mixed)
        .into_iter()
        .map(|o| o.unwrap())
        .collect();
    let emitted_again: u64 = outcomes.iter().map(|o| o.estimates.len() as u64).sum();
    let errors: u64 = outcomes.iter().map(|o| o.solve_errors).sum();
    assert!(errors > 0 && emitted_again > 0);
    let slo = hub.fleet_report().slo;
    assert_eq!(slo.total, emitted + emitted_again + errors);
    assert_eq!(
        slo.failures_by_kind.iter().map(|(_, n)| n).sum::<u64>(),
        errors
    );
    let samples_now = hub.with_fleet(|fleet| fleet.slo().latencies_ns().count()) as u64;
    assert_eq!(samples_now, emitted + emitted_again);

    uninstall_telemetry_hub().expect("hub was installed");
}
