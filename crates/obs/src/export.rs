//! Snapshot and trace exporters: JSON lines, Prometheus text, and Chrome
//! trace events.
//!
//! Three formats cover the three consumption patterns:
//!
//! - **JSON lines** ([`to_json_line`], [`append_json_line`]): one
//!   self-contained JSON object per snapshot, appended to a file —
//!   a trajectory of the system over time, in the style of the
//!   `BENCH_*.json` artifacts. Histograms serialize with full bucket
//!   fidelity so they can be parsed back ([`parse_json_line`]) and merged.
//! - **Prometheus text exposition** ([`to_prometheus`],
//!   [`write_prometheus`]): the standard `# TYPE` + sample-line format,
//!   rendered to a string for a scrape endpoint, a file, or stdout.
//!   Histograms emit cumulative `_bucket{le="…"}` samples plus `_sum` and
//!   `_count`.
//! - **Chrome trace events** ([`to_chrome_trace`], [`write_chrome_trace`]):
//!   the flight recorder's tail as a Trace Event Format JSON document
//!   that loads directly in Perfetto (<https://ui.perfetto.dev>) or
//!   `chrome://tracing`, with one lane per worker thread and spans
//!   nested by their recorded intervals.

use std::fs;
use std::io::{self, Write};
use std::path::Path;

use crate::hist::Histogram;
use crate::json::{self, Json};
use crate::recorder::FlightRecord;
use crate::registry::{Metric, Snapshot};
use crate::subscriber::Value;

/// Renders a snapshot as one JSON object (no trailing newline).
///
/// Shape: `{"label":…,"counters":{…},"gauges":{…},"histograms":{…}}` with
/// each histogram in [`Histogram::to_json`] form.
pub fn to_json_line(label: &str, snapshot: &Snapshot) -> String {
    let mut counters = Vec::new();
    let mut gauges = Vec::new();
    let mut histograms = Vec::new();
    for (name, metric) in &snapshot.metrics {
        let key = json::escape(name);
        match metric {
            Metric::Counter(v) => counters.push(format!("\"{key}\":{v}")),
            Metric::Gauge(v) => gauges.push(format!("\"{key}\":{}", json::number(*v))),
            Metric::Histogram(h) => histograms.push(format!("\"{key}\":{}", h.to_json())),
        }
    }
    format!(
        "{{\"label\":\"{}\",\"counters\":{{{}}},\"gauges\":{{{}}},\"histograms\":{{{}}}}}",
        json::escape(label),
        counters.join(","),
        gauges.join(","),
        histograms.join(","),
    )
}

/// Parses one line produced by [`to_json_line`] back into a label and
/// snapshot (gauges serialized as `null` come back as NaN).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_json_line(line: &str) -> Result<(String, Snapshot), String> {
    let doc = json::parse(line).map_err(|e| e.to_string())?;
    let label = doc
        .get("label")
        .and_then(Json::as_str)
        .ok_or("snapshot: missing label")?
        .to_string();
    let mut metrics = Vec::new();
    if let Some(fields) = doc.get("counters").and_then(Json::as_object) {
        for (name, value) in fields {
            let v = value.as_u64().ok_or("snapshot: non-integer counter")?;
            metrics.push((name.clone(), Metric::Counter(v)));
        }
    }
    if let Some(fields) = doc.get("gauges").and_then(Json::as_object) {
        for (name, value) in fields {
            let v = value.as_f64().unwrap_or(f64::NAN);
            metrics.push((name.clone(), Metric::Gauge(v)));
        }
    }
    if let Some(fields) = doc.get("histograms").and_then(Json::as_object) {
        for (name, value) in fields {
            let h = Histogram::from_json(value)?;
            metrics.push((name.clone(), Metric::Histogram(h)));
        }
    }
    metrics.sort_by(|(a, _), (b, _)| a.cmp(b));
    Ok((label, Snapshot { metrics }))
}

/// Appends a snapshot to `path` as one JSON line, creating the file and
/// any missing parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn append_json_line(path: &Path, label: &str, snapshot: &Snapshot) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    let mut file = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(to_json_line(label, snapshot).as_bytes())?;
    file.write_all(b"\n")
}

/// Sanitizes a metric name for Prometheus: `[a-zA-Z0-9_:]` pass through,
/// everything else becomes `_`, and a leading digit gets a `_` prefix.
fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        if i == 0 && c.is_ascii_digit() {
            out.push('_');
        }
        out.push(if ok || c.is_ascii_digit() { c } else { '_' });
    }
    out
}

/// Escapes a `# HELP` text per the exposition format: `\` → `\\`,
/// newline → `\n` (quotes are *not* escaped in help text).
fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// The exposition-format type keyword for a metric.
fn metric_kind(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "counter",
        Metric::Gauge(_) => "gauge",
        Metric::Histogram(_) => "histogram",
    }
}

/// Appends one metric's sample lines (no `# HELP`/`# TYPE` header).
fn push_samples(out: &mut String, name: &str, metric: &Metric) {
    match metric {
        Metric::Counter(v) => out.push_str(&format!("{name} {v}\n")),
        Metric::Gauge(v) => out.push_str(&format!("{name} {v}\n")),
        Metric::Histogram(h) => {
            let mut cumulative = 0u64;
            for (upper, count) in h.nonzero_buckets() {
                cumulative = cumulative.saturating_add(count);
                out.push_str(&format!("{name}_bucket{{le=\"{upper}\"}} {cumulative}\n"));
            }
            out.push_str(&format!(
                "{name}_bucket{{le=\"+Inf\"}} {}\n{name}_sum {}\n{name}_count {}\n",
                h.count(),
                h.sum(),
                h.count()
            ));
        }
    }
}

/// Renders a snapshot in the Prometheus text exposition format. Every
/// metric family gets its `# HELP` and `# TYPE` lines **exactly once**,
/// before all of its samples — even when several registry names
/// sanitize to the same family (the rule the Prometheus text parser
/// enforces).
///
/// Families are emitted in ascending (sanitized) name order. The
/// `# HELP` text is the first contributing registry name (before
/// sanitization). If two registry names land in one family with
/// different kinds, the first name's kind wins and the other's samples
/// are dropped — a scrape document with one family under two types
/// would be rejected whole.
///
/// Counter families follow the Prometheus naming convention: the family
/// name gets a `_total` suffix unless the registry name already carries
/// one, so `engine.jobs` exports as `engine_jobs_total`.
pub fn to_prometheus(snapshot: &Snapshot) -> String {
    use std::collections::BTreeMap;
    // family → (kind, help, accumulated sample lines)
    let mut families: BTreeMap<String, (&'static str, String, String)> = BTreeMap::new();
    for (name, metric) in &snapshot.metrics {
        let kind = metric_kind(metric);
        let mut family = prometheus_name(name);
        if kind == "counter" && !family.ends_with("_total") {
            family.push_str("_total");
        }
        let entry = families
            .entry(family.clone())
            .or_insert_with(|| (kind, escape_help(name), String::new()));
        if entry.0 == kind {
            push_samples(&mut entry.2, &family, metric);
        }
    }
    let mut out = String::new();
    for (family, (kind, help, samples)) in &families {
        out.push_str(&format!("# HELP {family} {help}\n# TYPE {family} {kind}\n"));
        out.push_str(samples);
    }
    out
}

/// Writes the Prometheus rendering of a snapshot to `path`, creating
/// missing parent directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_prometheus(path: &Path, snapshot: &Snapshot) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_prometheus(snapshot))
}

/// Formats nanoseconds-since-epoch as Trace Event microseconds with
/// exact sub-µs decimals. The conversion is monotone and exact, so
/// recorded interval containment (child within parent) survives export.
fn chrome_us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// One event `args` value as JSON (strings escaped, non-finite floats as
/// `null` so the document stays parseable).
fn chrome_value(value: &Value) -> String {
    match value {
        Value::U64(v) => format!("{v}"),
        Value::F64(v) => json::number(*v),
        Value::Bool(v) => format!("{v}"),
        Value::Str(s) => format!("\"{}\"", json::escape(s)),
        Value::Owned(s) => format!("\"{}\"", json::escape(s)),
    }
}

/// Renders flight-recorder records as a Chrome Trace Event Format JSON
/// document (the object form, `{"traceEvents":[…]}`), loadable in
/// Perfetto or `chrome://tracing`.
///
/// Mapping: every span close becomes a complete (`"ph":"X"`) event on
/// `pid` 1 with `tid` = its lane, `ts`/`dur` in microseconds from the
/// process trace epoch, and `args` carrying the span/parent/trace ids;
/// every recorded event becomes a thread-scoped instant (`"ph":"i"`)
/// with its fields in `args`. A `thread_name` metadata record names each
/// lane so workers appear as separate tracks.
pub fn to_chrome_trace(records: &[FlightRecord]) -> String {
    let mut lanes: Vec<u64> = records.iter().map(FlightRecord::thread).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut events: Vec<String> = lanes
        .iter()
        .map(|lane| {
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{lane},\"args\":{{\"name\":\"lane {lane}\"}}}}"
            )
        })
        .collect();
    for record in records {
        match record {
            FlightRecord::Span(s) => {
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\"id\":{},\"parent\":{},\"trace\":{}}}}}",
                    json::escape(s.name),
                    json::escape(s.target),
                    s.thread,
                    chrome_us(s.start_ns),
                    chrome_us(s.elapsed_ns),
                    s.id,
                    s.parent,
                    s.trace_id,
                ));
            }
            FlightRecord::Event(e) => {
                let mut args: Vec<String> = vec![
                    format!("\"parent\":{}", e.parent),
                    format!("\"trace\":{}", e.trace_id),
                ];
                args.extend(
                    e.fields
                        .iter()
                        .map(|(k, v)| format!("\"{}\":{}", json::escape(k), chrome_value(v))),
                );
                events.push(format!(
                    "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{{}}}}}",
                    json::escape(e.name),
                    json::escape(e.target),
                    e.thread,
                    chrome_us(e.at_ns),
                    args.join(","),
                ));
            }
        }
    }
    format!(
        "{{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{}]}}",
        events.join(",")
    )
}

/// Writes [`to_chrome_trace`] to `path`, creating missing parent
/// directories.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_chrome_trace(path: &Path, records: &[FlightRecord]) -> io::Result<()> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent)?;
    }
    fs::write(path, to_chrome_trace(records))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample_snapshot() -> Snapshot {
        let r = Registry::new();
        r.counter_add("engine.jobs", 96);
        r.counter_add("engine.failures.no_pairs", 2);
        r.gauge_set("sim.reader.read_rate", 0.875);
        r.histogram_record("engine.solve_ns", 1_000);
        r.histogram_record("engine.solve_ns", 2_000);
        r.snapshot()
    }

    #[test]
    fn json_line_round_trips() {
        let snapshot = sample_snapshot();
        let line = to_json_line("test-run", &snapshot);
        assert!(!line.contains('\n'));
        let (label, back) = parse_json_line(&line).expect("parses");
        assert_eq!(label, "test-run");
        assert_eq!(back, snapshot);
    }

    #[test]
    fn jsonl_file_accumulates_lines() {
        let dir = std::env::temp_dir().join("lion_obs_export_test");
        let path = dir.join("snap.jsonl");
        let _ = fs::remove_file(&path);
        let snapshot = sample_snapshot();
        append_json_line(&path, "first", &snapshot).expect("write");
        append_json_line(&path, "second", &snapshot).expect("write");
        let text = fs::read_to_string(&path).expect("read");
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(parse_json_line(lines[1]).expect("parses").0, "second");
        let _ = fs::remove_file(&path);
    }

    #[test]
    fn prometheus_rendering_has_types_and_cumulative_buckets() {
        let text = to_prometheus(&sample_snapshot());
        assert!(text.contains("# TYPE engine_jobs_total counter"));
        assert!(text.contains("engine_jobs_total 96"));
        assert!(text.contains("# TYPE sim_reader_read_rate gauge"));
        assert!(text.contains("sim_reader_read_rate 0.875"));
        assert!(text.contains("# TYPE engine_solve_ns histogram"));
        assert!(text.contains("engine_solve_ns_count 2"));
        assert!(text.contains("engine_solve_ns_sum 3000"));
        assert!(text.contains("_bucket{le=\"+Inf\"} 2"));
        // Bucket counts are cumulative: the +Inf bucket equals the count
        // and every listed bucket count is ≤ it.
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{le=\"")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-cumulative bucket line: {line}");
            last = v;
        }
    }

    #[test]
    fn prometheus_names_are_sanitized() {
        assert_eq!(prometheus_name("engine.jobs-v2"), "engine_jobs_v2");
        assert_eq!(prometheus_name("9lives"), "_9lives");
        assert_eq!(prometheus_name("ok_name:sub"), "ok_name:sub");
    }

    #[test]
    fn help_and_type_appear_exactly_once_per_family() {
        // Two registry names that sanitize to one family share a header.
        let r = Registry::new();
        r.counter_add("engine.jobs", 7);
        r.counter_add("engine_jobs", 2);
        let text = to_prometheus(&r.snapshot());
        assert_eq!(
            text.matches("# HELP engine_jobs_total ").count(),
            1,
            "{text}"
        );
        assert_eq!(
            text.matches("# TYPE engine_jobs_total ").count(),
            1,
            "{text}"
        );
        // Both samples survive, after the header.
        assert!(text.contains("engine_jobs_total 7\n"));
        assert!(text.contains("engine_jobs_total 2\n"));
        let type_pos = text.find("# TYPE engine_jobs_total ").unwrap();
        assert!(type_pos < text.find("engine_jobs_total 7").unwrap());
        // HELP text carries the first original (unsanitized) name.
        assert!(text.contains("# HELP engine_jobs_total engine.jobs\n"));
    }

    #[test]
    fn kind_conflicts_keep_the_first_family_type() {
        // A counter named `*_total` keeps its name, so it can collide
        // with a gauge whose name sanitizes to the same family.
        let r = Registry::new();
        r.gauge_set("x.total", 2.0);
        r.counter_add("x_total", 1);
        let text = to_prometheus(&r.snapshot());
        assert_eq!(text.matches("# TYPE x_total ").count(), 1);
        assert!(text.contains("# TYPE x_total gauge"));
        assert!(text.contains("x_total 2"));
        // The conflicting counter sample is dropped, not emitted untyped.
        assert!(!text.contains("x_total 1"));
    }

    #[test]
    fn counter_families_always_carry_the_total_suffix() {
        // Naming-convention conformance: every `# TYPE … counter` family
        // in a rendered document ends in `_total`, whether or not the
        // registry name carried the suffix.
        let r = Registry::new();
        r.counter_add("engine.jobs", 2);
        r.counter_add("reads_total", 5);
        r.counter_add("plane.requests", 1);
        r.gauge_set("fleet.streams", 3.0);
        r.histogram_record("solve_ns", 800);
        let text = to_prometheus(&r.snapshot());
        let mut counters = 0;
        for line in text.lines() {
            let Some(rest) = line.strip_prefix("# TYPE ") else {
                continue;
            };
            let (family, kind) = rest.split_once(' ').expect("TYPE line shape");
            if kind == "counter" {
                counters += 1;
                assert!(family.ends_with("_total"), "bad counter family: {family}");
            }
        }
        assert_eq!(counters, 3);
        // Pre-suffixed names are not doubled.
        assert!(text.contains("reads_total 5"));
        assert!(!text.contains("reads_total_total"));
    }

    #[test]
    fn chrome_trace_round_trips_and_nests() {
        use crate::recorder::{FlightRecord, RecordedEvent};
        use crate::{Level, SpanClose};
        let span = |name: &'static str, id: u64, parent: u64, start: u64, end: u64| {
            FlightRecord::Span(SpanClose {
                target: "test",
                name,
                id,
                parent,
                trace_id: 10,
                thread: 3,
                start_ns: start,
                end_ns: end,
                elapsed_ns: end - start,
            })
        };
        let records = vec![
            span("job", 11, 0, 1_000, 9_000),
            span("stage", 12, 11, 2_000, 8_500),
            span("sub", 13, 12, 2_250, 4_750),
            FlightRecord::Event(RecordedEvent {
                target: "test",
                name: "mark",
                level: Level::Info,
                fields: vec![("k", Value::U64(7)), ("s", Value::Str("x\"y"))],
                trace_id: 10,
                parent: 12,
                at_ns: 3_000,
                thread: 3,
            }),
        ];
        let text = to_chrome_trace(&records);
        let doc = json::parse(&text).expect("chrome trace parses with the in-repo parser");
        let events = doc
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array");
        // 1 metadata + 3 spans + 1 instant.
        assert_eq!(events.len(), 5);
        let by_name = |name: &str| {
            events
                .iter()
                .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
                .unwrap()
        };
        let interval = |name: &str| {
            let e = by_name(name);
            let ts = e.get("ts").and_then(Json::as_f64).unwrap();
            let dur = e.get("dur").and_then(Json::as_f64).unwrap();
            (ts, ts + dur)
        };
        let (job_s, job_e) = interval("job");
        let (stage_s, stage_e) = interval("stage");
        let (sub_s, sub_e) = interval("sub");
        assert!(job_s <= stage_s && stage_e <= job_e);
        assert!(stage_s <= sub_s && sub_e <= stage_e);
        assert_eq!((job_s, job_e), (1.0, 9.0));
        // Sub-µs precision survives: 2_250 ns → 2.25 µs.
        assert_eq!(sub_s, 2.25);
        // Args carry the causal ids; the instant carries its fields.
        let stage = by_name("stage");
        assert_eq!(
            stage
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(Json::as_u64),
            Some(11)
        );
        let mark = by_name("mark");
        assert_eq!(mark.get("ph").and_then(Json::as_str), Some("i"));
        assert_eq!(
            mark.get("args")
                .and_then(|a| a.get("s"))
                .and_then(Json::as_str),
            Some("x\"y")
        );
        // The lane got a metadata track name.
        let meta = by_name("thread_name");
        assert_eq!(meta.get("tid").and_then(Json::as_u64), Some(3));
    }
}
