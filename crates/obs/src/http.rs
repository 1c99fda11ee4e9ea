//! Zero-dependency HTTP/1.1 scrape server for live telemetry.
//!
//! Everything `lion-obs` produces — Prometheus text, fleet health JSON,
//! registry snapshots, Chrome traces, flamegraphs — was historically a
//! one-shot file export at process exit. [`TelemetryServer`] makes the
//! same artifacts scrapeable **while the pipeline runs**, on nothing but
//! `std::net`:
//!
//! | Route       | Body                                                | Content-Type |
//! |-------------|-----------------------------------------------------|--------------|
//! | `/metrics`  | Prometheus text of the global registry (plus fleet gauges when a hub is installed) | `text/plain; version=0.0.4; charset=utf-8` |
//! | `/health`   | [`crate::fleet::FleetReport`] JSON from the installed hub | `application/json` |
//! | `/snapshot` | Global registry as JSON-lines                       | `application/x-ndjson` |
//! | `/trace`    | Chrome-trace JSON of the flight recorder's rings    | `application/json` |
//! | `/profile`  | Collapsed-stack flamegraph of the same rings        | `text/plain; charset=utf-8` |
//! | `/query`    | Range query over the hub's time-series store (ndjson; `?series=&tier=&from=&to=`, no `series` lists all series) | `application/x-ndjson` |
//!
//! `HEAD` is answered on every route with the same status, headers, and
//! `Content-Length` as the `GET`, minus the body. A request head larger
//! than the 8 KiB cap gets `414 URI Too Long`; other malformed heads
//! get `400`.
//!
//! The server owns one accept thread (`lion-telemetry`) and answers
//! requests on it sequentially — a scrape plane, not an app server: the
//! bounded single worker means a slow or malicious client can delay
//! other scrapes but can never exhaust process threads or memory
//! (request heads are capped, sockets carry read timeouts).
//!
//! Every body is rendered at request time from the live global sources
//! ([`crate::global`], [`crate::fleet::telemetry_hub`],
//! [`crate::flight_recorder`]) and is deterministic for a fixed state —
//! sorted registry snapshots, canonical ring merge order, sorted stacks
//! — so consecutive scrapes of a quiet system diff cleanly.
//!
//! Shutdown is graceful and idempotent: [`TelemetryServer::shutdown`]
//! (or drop) flips a flag, nudges the listener with a loopback connect
//! so `accept` wakes, and joins the thread — no request in flight is
//! truncated, no thread leaks.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::export;
use crate::fleet::telemetry_hub;
use crate::json;
use crate::recorder::flight_recorder;
use crate::tsdb::Tier;

/// Per-socket read/write timeout: a stalled scraper cannot pin the
/// worker for longer than this.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// Upper bound on the request head (request line + headers) we will
/// buffer before answering 414.
const MAX_HEAD_BYTES: usize = 8 * 1024;

/// The routes, fixed order — also the `/` index listing.
const ROUTES: [&str; 6] = [
    "/metrics",
    "/health",
    "/snapshot",
    "/trace",
    "/profile",
    "/query",
];

/// A running telemetry scrape server. See the module docs for routes.
///
/// ```no_run
/// let server = lion_obs::http::TelemetryServer::bind("127.0.0.1:0").unwrap();
/// println!("scrape http://{}/metrics", server.local_addr());
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct TelemetryServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    worker: Option<JoinHandle<()>>,
}

impl TelemetryServer {
    /// Binds `addr` (use port `0` for an ephemeral port — the real one
    /// is in [`TelemetryServer::local_addr`]) and starts the accept
    /// thread.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> io::Result<TelemetryServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let worker = std::thread::Builder::new()
            .name("lion-telemetry".to_string())
            .spawn(move || accept_loop(listener, &flag))?;
        Ok(TelemetryServer {
            addr,
            stop,
            worker: Some(worker),
        })
    }

    /// The bound address (the real port even when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the worker, and joins it. Idempotent;
    /// also runs on drop.
    pub fn shutdown(mut self) {
        self.stop_worker();
    }

    fn stop_worker(&mut self) {
        let Some(worker) = self.worker.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Self-connect so the blocking accept() observes the flag. The
        // connect may fail if the listener already died; join anyway.
        let _ = TcpStream::connect_timeout(&self.addr, SOCKET_TIMEOUT);
        let _ = worker.join();
    }
}

impl Drop for TelemetryServer {
    fn drop(&mut self) {
        self.stop_worker();
    }
}

fn accept_loop(listener: TcpListener, stop: &AtomicBool) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        // Per-connection errors (timeouts, resets, malformed heads that
        // also fail the 400 write) only affect that scraper.
        let _ = handle_connection(stream);
    }
}

fn handle_connection(mut stream: TcpStream) -> io::Result<()> {
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let head = match read_head(&mut stream) {
        Ok(head) => head,
        Err(HeadError::TooLarge) => {
            return write_response(
                &mut stream,
                "414 URI Too Long",
                "text/plain; charset=utf-8",
                b"request head exceeds the 8 KiB cap\n",
                &[],
                false,
            );
        }
        Err(HeadError::Malformed) => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                b"malformed request head\n",
                &[],
                false,
            );
        }
    };
    let (method, path, query) = match parse_request_line(&head) {
        Some(parts) => parts,
        None => {
            return write_response(
                &mut stream,
                "400 Bad Request",
                "text/plain; charset=utf-8",
                b"malformed request line\n",
                &[],
                false,
            );
        }
    };
    // HEAD renders the same response as GET and suppresses the body,
    // keeping the advertised Content-Length.
    let head_only = method == "HEAD";
    let known = path == "/" || ROUTES.contains(&path.as_str());
    if method != "GET" && !head_only {
        return if known {
            write_response(
                &mut stream,
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                b"only GET and HEAD are supported\n",
                &[("Allow", "GET, HEAD")],
                false,
            )
        } else {
            not_found(&mut stream, head_only)
        };
    }
    let (status, content_type, body): (&str, &str, String) = match path.as_str() {
        "/" => {
            let mut body = String::from("lion telemetry\n");
            for route in ROUTES {
                body.push_str(route);
                body.push('\n');
            }
            ("200 OK", "text/plain; charset=utf-8", body)
        }
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4; charset=utf-8",
            render_metrics(),
        ),
        "/health" => ("200 OK", "application/json", render_health()),
        "/snapshot" => ("200 OK", "application/x-ndjson", render_snapshot()),
        "/trace" => ("200 OK", "application/json", render_trace()),
        "/profile" => ("200 OK", "text/plain; charset=utf-8", render_profile()),
        "/query" => render_query(&query),
        _ => return not_found(&mut stream, head_only),
    };
    write_response(
        &mut stream,
        status,
        content_type,
        body.as_bytes(),
        &[],
        head_only,
    )
}

fn not_found(stream: &mut TcpStream, head_only: bool) -> io::Result<()> {
    write_response(
        stream,
        "404 Not Found",
        "text/plain; charset=utf-8",
        b"no such route; try /metrics /health /snapshot /trace /profile /query\n",
        &[],
        head_only,
    )
}

/// Why a request head could not be read.
enum HeadError {
    /// The head exceeded [`MAX_HEAD_BYTES`] → `414 URI Too Long`.
    TooLarge,
    /// Read error, truncated head, or non-UTF-8 bytes → `400`.
    Malformed,
}

/// Reads until the blank line ending the request head, bounded by
/// [`MAX_HEAD_BYTES`].
fn read_head(stream: &mut TcpStream) -> Result<String, HeadError> {
    let mut head = Vec::new();
    let mut buf = [0u8; 512];
    loop {
        let n = stream.read(&mut buf).map_err(|_| HeadError::Malformed)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&buf[..n]);
        if ends_head(&head) {
            break;
        }
        if head.len() > MAX_HEAD_BYTES {
            // Consume the rest of the oversized head (bounded) so closing
            // the socket after the response doesn't RST away unread bytes
            // — a reset can destroy the 414 before the client reads it.
            drain_head(stream, &head);
            return Err(HeadError::TooLarge);
        }
    }
    String::from_utf8(head).map_err(|_| HeadError::Malformed)
}

/// Whether `bytes` contain the blank line that ends a request head.
fn ends_head(bytes: &[u8]) -> bool {
    bytes.windows(4).any(|w| w == b"\r\n\r\n") || bytes.windows(2).any(|w| w == b"\n\n")
}

/// Discards the remainder of an oversized request head, up to an outer
/// bound of 8× [`MAX_HEAD_BYTES`] — enough for any realistic overlong
/// URI without letting a hostile client stream forever. `head` is what
/// was read so far (at least three bytes). Each read is scanned together
/// with the three bytes before it, so a blank line split across reads
/// still ends the drain.
fn drain_head(stream: &mut TcpStream, head: &[u8]) {
    let mut buf = [0u8; 3 + 512];
    buf[..3].copy_from_slice(&head[head.len() - 3..]);
    let mut drained = 0usize;
    while drained < 8 * MAX_HEAD_BYTES {
        match stream.read(&mut buf[3..]) {
            Ok(0) | Err(_) => return,
            Ok(n) => {
                drained += n;
                if ends_head(&buf[..3 + n]) {
                    return;
                }
                buf.copy_within(n..n + 3, 0);
            }
        }
    }
}

/// Extracts `(method, path, query)` from the request line (the query is
/// empty when the target has none). Returns `None` when the line is not
/// `METHOD SP TARGET [SP VERSION]`.
fn parse_request_line(head: &str) -> Option<(String, String, String)> {
    let line = head.lines().next()?;
    let mut parts = line.split_whitespace();
    let method = parts.next()?.to_string();
    let target = parts.next()?;
    let (path, query) = match target.split_once('?') {
        Some((path, query)) => (path, query),
        None => (target, ""),
    };
    if !path.starts_with('/') {
        return None;
    }
    Some((method, path.to_string(), query.to_string()))
}

/// Splits a query string into percent-decoded `(key, value)` pairs.
/// Series names carry `{`, `"`, and `=` in their label blocks, so
/// `/query` clients must be able to escape them.
fn parse_query_params(query: &str) -> Vec<(String, String)> {
    query
        .split('&')
        .filter(|pair| !pair.is_empty())
        .map(|pair| {
            let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
            (percent_decode(k), percent_decode(v))
        })
        .collect()
}

/// Minimal percent-decoding: `%XX` byte escapes and `+` as space;
/// malformed escapes pass through literally.
fn percent_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = |b: u8| (b as char).to_digit(16);
                match (hex(bytes[i + 1]), hex(bytes[i + 2])) {
                    (Some(hi), Some(lo)) => {
                        out.push((hi * 16 + lo) as u8);
                        i += 3;
                        continue;
                    }
                    _ => out.push(b'%'),
                }
            }
            b'+' => out.push(b' '),
            b => out.push(b),
        }
        i += 1;
    }
    String::from_utf8_lossy(&out).into_owned()
}

fn write_response(
    stream: &mut TcpStream,
    status: &str,
    content_type: &str,
    body: &[u8],
    extra_headers: &[(&str, &str)],
    head_only: bool,
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len(),
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    if !head_only {
        stream.write_all(body)?;
    }
    stream.flush()
}

/// `/metrics`: the global registry as Prometheus text. When a telemetry
/// hub is installed its fleet rollup is refreshed into `fleet.*` gauges
/// first, so one scrape carries both raw pipeline metrics and the fleet
/// verdict.
fn render_metrics() -> String {
    if let Some(hub) = telemetry_hub() {
        hub.fleet_report().record_into(crate::global());
    }
    export::to_prometheus(&crate::global().snapshot())
}

/// `/health`: the hub's fleet rollup as JSON, or an explicit
/// `"hub_installed": false` envelope when telemetry is off.
fn render_health() -> String {
    match telemetry_hub() {
        Some(hub) => format!(
            "{{\"hub_installed\":true,\"fleet\":{}}}\n",
            hub.fleet_report().to_json()
        ),
        None => "{\"hub_installed\":false,\"fleet\":null}\n".to_string(),
    }
}

/// `/snapshot`: the global registry as one labelled JSON line.
fn render_snapshot() -> String {
    export::to_json_line("global", &crate::global().snapshot())
}

/// `/trace`: the flight recorder's retained rings as Chrome-trace JSON
/// (non-draining — scraping does not consume records). An empty trace
/// when no recorder is installed.
fn render_trace() -> String {
    let records = flight_recorder()
        .map(|recorder| recorder.snapshot().records().to_vec())
        .unwrap_or_default();
    export::to_chrome_trace(&records)
}

/// `/profile`: collapsed-stack flamegraph of the recorder's rings.
/// Empty body when no recorder is installed or nothing was traced.
fn render_profile() -> String {
    flight_recorder()
        .map(|recorder| crate::profile::to_collapsed_stacks(&recorder.snapshot()))
        .unwrap_or_default()
}

/// `/query`: range queries over the hub's time-series store.
///
/// - no `series` param → one ndjson line per stored series (name, kind,
///   per-tier point counts) plus a trailing store-stats line;
/// - `series=<name>` (+ optional `tier=raw|10s|1m`, `from=`/`to=`
///   nanosecond bounds) → a meta line, then one ndjson line per point.
///
/// Returns `(status, content_type, body)` so bad parameters can map to
/// 400/404 while the envelope cases stay 200.
fn render_query(query: &str) -> (&'static str, &'static str, String) {
    const NDJSON: &str = "application/x-ndjson";
    const TEXT: &str = "text/plain; charset=utf-8";
    let tsdb = match telemetry_hub().and_then(|hub| hub.tsdb()) {
        Some(tsdb) => tsdb,
        None => {
            return (
                "200 OK",
                NDJSON,
                "{\"history_installed\":false}\n".to_string(),
            );
        }
    };
    let params = parse_query_params(query);
    let param = |key: &str| {
        params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    };
    let Some(series) = param("series") else {
        let stats = tsdb.stats();
        let mut body = String::new();
        for info in tsdb.series_list() {
            body.push_str(&format!(
                "{{\"series\":\"{}\",\"kind\":\"{}\",\"raw\":{},\"10s\":{},\"1m\":{}}}\n",
                json::escape(&info.name),
                info.kind,
                info.raw_len,
                info.mid_len,
                info.coarse_len,
            ));
        }
        body.push_str(&format!(
            "{{\"stats\":{{\"series\":{},\"bytes\":{},\"memory_cap_bytes\":{},\"inserted_points\":{},\"evicted_points\":{}}}}}\n",
            stats.series,
            stats.bytes,
            stats.memory_cap_bytes,
            stats.inserted_points,
            stats.evicted_points,
        ));
        return ("200 OK", NDJSON, body);
    };
    let tier = match param("tier") {
        None => Tier::Raw,
        Some(label) => match Tier::parse(label) {
            Some(tier) => tier,
            None => {
                return (
                    "400 Bad Request",
                    TEXT,
                    "bad tier; expected raw, 10s, or 1m\n".to_string(),
                );
            }
        },
    };
    let mut bounds = [0u64, u64::MAX];
    for (i, key) in ["from", "to"].iter().enumerate() {
        if let Some(raw) = param(key) {
            match raw.parse::<u64>() {
                Ok(ns) => bounds[i] = ns,
                Err(_) => {
                    return (
                        "400 Bad Request",
                        TEXT,
                        format!("bad {key}; expected nanoseconds as u64\n"),
                    );
                }
            }
        }
    }
    let Some(points) = tsdb.query(series, tier, bounds[0], bounds[1]) else {
        return ("404 Not Found", TEXT, "no such series\n".to_string());
    };
    let lines: Vec<String> = match &points {
        crate::tsdb::SeriesPoints::Gauge(ps) => ps.iter().map(|p| p.to_json()).collect(),
        crate::tsdb::SeriesPoints::Counter(ps) => ps.iter().map(|p| p.to_json()).collect(),
        crate::tsdb::SeriesPoints::Histogram(ps) => ps.iter().map(|p| p.to_json()).collect(),
    };
    let mut body = format!(
        "{{\"series\":\"{}\",\"tier\":\"{}\",\"points\":{}}}\n",
        json::escape(series),
        tier.label(),
        lines.len(),
    );
    for line in lines {
        body.push_str(&line);
        body.push('\n');
    }
    ("200 OK", NDJSON, body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn request_line_parses_and_rejects_garbage() {
        assert_eq!(
            parse_request_line("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n"),
            Some(("GET".to_string(), "/metrics".to_string(), String::new()))
        );
        assert_eq!(
            parse_request_line("GET /health?verbose=1 HTTP/1.1\r\n"),
            Some((
                "GET".to_string(),
                "/health".to_string(),
                "verbose=1".to_string()
            ))
        );
        assert_eq!(parse_request_line(""), None);
        assert_eq!(parse_request_line("GET"), None);
        assert_eq!(parse_request_line("GET http//nope HTTP/1.1"), None);
    }

    #[test]
    fn query_params_percent_decode() {
        let params = parse_query_params("series=lion.stream%7Bs%3D%22a+b%22%7D&tier=10s&");
        assert_eq!(
            params,
            vec![
                ("series".to_string(), "lion.stream{s=\"a b\"}".to_string()),
                ("tier".to_string(), "10s".to_string()),
            ]
        );
        assert_eq!(percent_decode("%zz"), "%zz");
        assert_eq!(percent_decode("100%"), "100%");
    }

    /// Characters that steer the request-head parsers: methods, targets,
    /// query separators, escapes, whitespace and line breaks.
    const HEAD_CHARS: &[char] = &[
        'G',
        'E',
        'T',
        'H',
        ' ',
        '\t',
        '\r',
        '\n',
        '/',
        '?',
        '&',
        '=',
        '%',
        '+',
        '#',
        '0',
        '7',
        'a',
        'F',
        'z',
        '\u{e9}',
        '\u{1f600}',
    ];

    /// Arbitrary Unicode text, half of it drawn from [`HEAD_CHARS`].
    fn head_text() -> impl Strategy<Value = String> {
        proptest::collection::vec(0u64..0x22_0000, 0..64).prop_map(|codes| {
            codes
                .iter()
                .filter_map(|&c| match c.checked_sub(0x11_0000) {
                    Some(i) => Some(HEAD_CHARS[i as usize % HEAD_CHARS.len()]),
                    None => char::from_u32(c as u32),
                })
                .collect()
        })
    }

    /// Escapes every byte outside the RFC 3986 unreserved set as `%XX`.
    fn percent_encode(s: &str) -> String {
        s.bytes()
            .map(|b| match b {
                b'A'..=b'Z' | b'a'..=b'z' | b'0'..=b'9' | b'-' | b'.' | b'_' | b'~' => {
                    (b as char).to_string()
                }
                _ => format!("%{b:02X}"),
            })
            .collect()
    }

    proptest! {
        #[test]
        fn head_parsers_never_panic_and_paths_stay_rooted(text in head_text()) {
            if let Some((_, path, _)) = parse_request_line(&text) {
                prop_assert!(path.starts_with('/'), "accepted path {path:?}");
            }
            parse_query_params(&text);
            percent_decode(&text);
        }

        #[test]
        fn percent_decode_inverts_percent_encoding(text in head_text()) {
            prop_assert_eq!(percent_decode(&percent_encode(&text)), text.clone());
        }
    }

    #[test]
    fn bind_reports_real_port_and_shuts_down_cleanly() {
        let server = TelemetryServer::bind("127.0.0.1:0").expect("bind ephemeral");
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
    }
}
