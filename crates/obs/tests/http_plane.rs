//! Integration tests for the HTTP scrape plane: a raw `TcpStream`
//! client against a real [`TelemetryServer`] on an ephemeral port.
//!
//! The server reads process-global state (registry, telemetry hub,
//! flight recorder), so the tests serialize on one mutex.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use lion_obs::http::TelemetryServer;
use lion_obs::{DoctorConfig, SloConfig};

fn global_state_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One raw HTTP/1.1 exchange: write the request bytes, read to EOF,
/// split head from body.
fn exchange(server: &TelemetryServer, request: &str) -> (String, Vec<u8>) {
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let split = response
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head");
    let head = String::from_utf8(response[..split].to_vec()).expect("utf8 head");
    (head, response[split + 4..].to_vec())
}

fn get(server: &TelemetryServer, path: &str) -> (String, Vec<u8>) {
    exchange(
        server,
        &format!("GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
    )
}

fn header_value<'a>(head: &'a str, name: &str) -> Option<&'a str> {
    head.lines().find_map(|line| {
        let (key, value) = line.split_once(':')?;
        key.eq_ignore_ascii_case(name).then(|| value.trim())
    })
}

#[test]
fn all_five_routes_serve_parseable_bodies_with_correct_types() {
    let _serial = global_state_lock();
    // Give every route something real to serve.
    lion_obs::global().clear();
    lion_obs::global().counter_add("plane.requests", 7);
    lion_obs::global().histogram_record("plane.latency_ns", 1234);
    let recorder = lion_obs::install_flight_recorder(1024);
    {
        let _outer = lion_obs::span!("plane.job");
        let _inner = lion_obs::span!("plane.solve");
    }
    let hub = lion_obs::install_telemetry_hub(SloConfig::default());
    hub.with_fleet(|fleet| {
        let mut doctor = lion_obs::Doctor::new(DoctorConfig::default());
        doctor.observe(lion_obs::SolveObservation {
            time: 0.0,
            mean_residual: 1e-3,
            converged: true,
            solve_ns: 900,
            reads_in: 30,
            shed: 0,
            solver_disagreement_m: None,
            resolve_fallback: None,
        });
        fleet.ingest("portal-7", &doctor.report());
        fleet.observe_solve(900);
        fleet.observe_failure("too_few_measurements");
    });

    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");

    // /metrics: Prometheus text with the version content type, carrying
    // both the raw metric and the refreshed fleet gauges.
    let (head, body) = get(&server, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("text/plain; version=0.0.4; charset=utf-8")
    );
    assert_eq!(
        header_value(&head, "Content-Length"),
        Some(body.len().to_string().as_str())
    );
    let metrics = String::from_utf8(body).expect("utf8 metrics");
    assert!(metrics.contains("# TYPE plane_requests_total counter"));
    assert!(metrics.contains("plane_requests_total 7"));
    assert!(metrics.contains("fleet_streams 1"));

    // /health: JSON envelope with the fleet rollup and SLO budget burn.
    let (head, body) = get(&server, "/health");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/json")
    );
    let health = String::from_utf8(body).expect("utf8 health");
    let doc = lion_obs::json::parse(health.trim()).expect("health parses");
    assert_eq!(
        doc.get("hub_installed").and_then(|v| v.as_bool()),
        Some(true)
    );
    let fleet = doc.get("fleet").expect("fleet present");
    assert_eq!(fleet.get("streams").and_then(|v| v.as_u64()), Some(1));
    assert!(fleet
        .get("slo")
        .and_then(|s| s.get("burn_rate"))
        .and_then(|v| v.as_f64())
        .is_some());

    // /snapshot: one JSON line that round-trips through the parser.
    let (head, body) = get(&server, "/snapshot");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/x-ndjson")
    );
    let line = String::from_utf8(body).expect("utf8 snapshot");
    let (label, snapshot) =
        lion_obs::export::parse_json_line(line.trim()).expect("snapshot parses");
    assert_eq!(label, "global");
    assert_eq!(snapshot.counter("plane.requests"), Some(7));

    // /trace: Chrome trace JSON holding the recorded spans.
    let (head, body) = get(&server, "/trace");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/json")
    );
    let trace = String::from_utf8(body).expect("utf8 trace");
    let doc = lion_obs::json::parse(&trace).expect("trace parses");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");
    assert!(events.len() >= 2, "{} events", events.len());

    // /profile: collapsed stacks — `frames SP number` per line, with the
    // recorded parent;child chain present.
    let (head, body) = get(&server, "/profile");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("text/plain; charset=utf-8")
    );
    let profile = String::from_utf8(body).expect("utf8 profile");
    assert!(profile.contains("plane.job;plane.solve "));
    for line in profile.lines() {
        let (stack, weight) = line.rsplit_once(' ').expect("stack SP weight");
        assert!(!stack.is_empty());
        weight.parse::<u64>().expect("numeric weight");
    }

    // Scraping twice is non-draining and deterministic.
    let (_, again) = get(&server, "/profile");
    assert_eq!(String::from_utf8(again).expect("utf8"), profile);

    server.shutdown();
    lion_obs::uninstall_telemetry_hub();
    lion_obs::uninstall_flight_recorder();
    drop(recorder);
    lion_obs::global().clear();
}

#[test]
fn unknown_routes_404_and_non_get_405_with_allow() {
    let _serial = global_state_lock();
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");

    let (head, _) = get(&server, "/nope");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");

    let (head, _) = exchange(
        &server,
        "POST /metrics HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n",
    );
    assert!(
        head.starts_with("HTTP/1.1 405 Method Not Allowed"),
        "{head}"
    );
    assert_eq!(header_value(&head, "Allow"), Some("GET, HEAD"));

    let (head, _) = exchange(&server, "DELETE /bogus HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");

    let (head, _) = exchange(&server, "this is not http\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 400 Bad Request"), "{head}");

    // An oversized request head is named for what it is: 414, not a
    // generic 400.
    let huge_target = format!("/metrics?pad={}", "x".repeat(9 * 1024));
    let (head, _) = exchange(
        &server,
        &format!("GET {huge_target} HTTP/1.1\r\nHost: test\r\n\r\n"),
    );
    assert!(head.starts_with("HTTP/1.1 414 URI Too Long"), "{head}");

    // The index lists the routes.
    let (head, body) = get(&server, "/");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let index = String::from_utf8(body).expect("utf8 index");
    for route in [
        "/metrics",
        "/health",
        "/snapshot",
        "/trace",
        "/profile",
        "/query",
        "/alerts",
    ] {
        assert!(index.contains(route), "index missing {route}");
    }
    server.shutdown();
}

#[test]
fn oversized_head_with_a_split_blank_line_is_answered_promptly() {
    let _serial = global_state_lock();
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("timeout");
    // A 9 KiB head whose terminating blank line straddles two writes:
    // the server must see `\r\n\r` + `\n` as the end of the head instead
    // of waiting out its socket timeout.
    let started = Instant::now();
    let head = format!(
        "GET /metrics?pad={} HTTP/1.1\r\nHost: test\r\n\r",
        "x".repeat(9 * 1024)
    );
    stream.write_all(head.as_bytes()).expect("send head");
    std::thread::sleep(Duration::from_millis(100));
    stream.write_all(b"\n").expect("send last byte");
    let mut response = Vec::new();
    stream.read_to_end(&mut response).expect("read");
    let elapsed = started.elapsed();
    let text = String::from_utf8_lossy(&response);
    assert!(text.starts_with("HTTP/1.1 414 URI Too Long"), "{text}");
    assert!(elapsed < Duration::from_secs(1), "414 took {elapsed:?}");
    server.shutdown();
}

#[test]
fn head_answers_every_route_with_headers_and_no_body() {
    let _serial = global_state_lock();
    lion_obs::global().clear();
    lion_obs::global().counter_add("plane.requests", 3);
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");

    for path in [
        "/",
        "/metrics",
        "/health",
        "/snapshot",
        "/trace",
        "/profile",
        "/query",
        "/alerts",
    ] {
        let (head, body) = exchange(
            &server,
            &format!("HEAD {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"),
        );
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{path}: {head}");
        assert!(body.is_empty(), "{path}: HEAD returned a body");
        // Content-Length advertises what the GET would carry.
        let advertised: usize = header_value(&head, "Content-Length")
            .expect("Content-Length present")
            .parse()
            .expect("numeric length");
        let (get_head, get_body) = get(&server, path);
        assert!(get_head.starts_with("HTTP/1.1 200 OK"), "{path}");
        assert_eq!(advertised, get_body.len(), "{path}: length mismatch");
    }

    // HEAD on an unknown route: 404 head, still no body.
    let (head, body) = exchange(&server, "HEAD /nope HTTP/1.1\r\nHost: test\r\n\r\n");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");
    assert!(body.is_empty());

    server.shutdown();
    lion_obs::global().clear();
}

#[test]
fn query_and_alerts_serve_the_history_plane() {
    let _serial = global_state_lock();
    lion_obs::global().clear();
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");

    // Without a hub the routes answer with explicit not-installed
    // envelopes rather than errors.
    let (head, body) = get(&server, "/query");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(String::from_utf8(body)
        .expect("utf8")
        .contains("\"history_installed\":false"));
    let (head, body) = get(&server, "/alerts");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert!(String::from_utf8(body)
        .expect("utf8")
        .contains("\"alerts_installed\":false"));

    // Install the hub with history and feed it deterministic samples on
    // a manual clock.
    let hub = lion_obs::install_telemetry_hub(SloConfig::default());
    let clock = lion_obs::ManualClock::new(0);
    let tsdb = hub.enable_history(lion_obs::fleet::HistoryConfig {
        clock: clock.clone(),
        alert_rules: vec![lion_obs::AlertRule::above(
            "hot_gauge",
            lion_obs::AlertExpr::GaugeLast {
                series: "plane.load".to_string(),
            },
            0.5,
        )
        .clear_at(0.25)],
        ..Default::default()
    });
    tsdb.push_gauge("plane.load", 1_000_000_000, 0.9);
    hub.sample_tick();

    // /query without params lists the stored series.
    let (head, body) = get(&server, "/query");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/x-ndjson")
    );
    let listing = String::from_utf8(body).expect("utf8 listing");
    assert!(listing.contains("\"series\":\"plane.load\""), "{listing}");
    assert!(listing.contains("\"stats\":{"), "{listing}");

    // /query?series=… returns a meta line plus one line per point, each
    // parseable JSON.
    let (head, body) = get(
        &server,
        "/query?series=plane.load&tier=raw&from=0&to=2000000000",
    );
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    let text = String::from_utf8(body).expect("utf8 points");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2, "{text}");
    let meta = lion_obs::json::parse(lines[0]).expect("meta parses");
    assert_eq!(
        meta.get("series").and_then(|v| v.as_str()),
        Some("plane.load")
    );
    assert_eq!(meta.get("points").and_then(|v| v.as_u64()), Some(1));
    let point = lion_obs::json::parse(lines[1]).expect("point parses");
    assert_eq!(
        point.get("t_ns").and_then(|v| v.as_u64()),
        Some(1_000_000_000)
    );

    // Bad parameters map to 400/404, not 200 garbage.
    let (head, _) = get(&server, "/query?series=plane.load&tier=5s");
    assert!(head.starts_with("HTTP/1.1 400 Bad Request"), "{head}");
    let (head, _) = get(&server, "/query?series=no.such.series");
    assert!(head.starts_with("HTTP/1.1 404 Not Found"), "{head}");

    // /alerts: the engine saw the breaching gauge on the first tick.
    let (head, body) = get(&server, "/alerts");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    assert_eq!(
        header_value(&head, "Content-Type"),
        Some("application/json")
    );
    let alerts = String::from_utf8(body).expect("utf8 alerts");
    let doc = lion_obs::json::parse(alerts.trim()).expect("alerts parse");
    assert_eq!(
        doc.get("alerts_installed").and_then(|v| v.as_bool()),
        Some(true)
    );
    let rules = doc
        .get("alerts")
        .and_then(|a| a.get("rules"))
        .and_then(|v| v.as_array())
        .expect("rules array");
    assert!(!rules.is_empty());

    server.shutdown();
    lion_obs::uninstall_telemetry_hub();
    lion_obs::global().clear();
}

#[test]
fn shutdown_joins_the_worker_and_frees_the_port() {
    let _serial = global_state_lock();
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    let (head, _) = get(&server, "/health");
    assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
    server.shutdown();
    // The worker is joined: the port can be rebound immediately (no
    // leaked listener; SO_REUSEADDR is not set, so a live listener would
    // make this bind fail).
    let rebound = std::net::TcpListener::bind(addr);
    assert!(rebound.is_ok(), "port still held after shutdown");

    // Dropping (without an explicit shutdown call) also joins cleanly.
    let server = TelemetryServer::bind("127.0.0.1:0").expect("bind");
    let addr = server.local_addr();
    drop(server);
    assert!(std::net::TcpListener::bind(addr).is_ok());
}
