//! Causal-tracing integration tests: every stage span emitted by
//! [`Engine::run_streams`] must hang under exactly one `lion.stream.job`
//! root, the span *tree* (ids normalized away) must be identical across
//! worker counts, the flight recorder must retain a failing solve's full
//! ancestry with deterministic drop counters, and a recorded run must
//! round-trip through the Chrome trace exporter with correct nesting.
//!
//! The flight recorder is a process-wide singleton, so every test here
//! serializes on one lock.

use std::collections::BTreeMap;
use std::f64::consts::{PI, TAU};
use std::sync::{Mutex, MutexGuard};

use lion::obs::{uninstall_flight_recorder, FlightSnapshot, SpanClose};
use lion::prelude::*;

/// Tests share the global flight-recorder slot; run them one at a time.
fn recorder_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;

/// Clean circular-scan reads for one antenna: every solve succeeds.
fn circle_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.01,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
                ..StreamRead::default()
            }
        })
        .collect()
}

fn stream_jobs(count: usize) -> Vec<StreamJob> {
    let config = lion::stream::StreamConfig::builder()
        .window_capacity(128)
        .min_window_len(48)
        .cadence(Cadence::EveryReads(40))
        .build()
        .expect("valid config");
    (0..count)
        .map(|i| {
            let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
            StreamJob::new(circle_reads(antenna, 240), config.clone())
        })
        .collect()
}

/// Runs `jobs` under a fresh flight recorder and returns the drained
/// tail. `capacity` is the per-thread ring size.
fn run_and_drain(workers: usize, jobs: &[StreamJob], capacity: usize) -> FlightSnapshot {
    let recorder = install_flight_recorder(capacity);
    let engine = if workers == 1 {
        Engine::serial()
    } else {
        Engine::builder().workers(workers).build().expect("valid")
    };
    let outcomes = engine.run_streams(jobs);
    let snapshot = recorder.drain();
    uninstall_flight_recorder();
    for outcome in outcomes {
        outcome.expect("clean stream runs");
    }
    snapshot
}

/// Renders one trace's span tree with ids erased: `name(child,child,…)`.
/// Children appear in canonical merge order, which for a stream (one
/// thread, sequential solves) is chronological close order.
fn render(span: &SpanClose, children: &BTreeMap<u64, Vec<&SpanClose>>) -> String {
    let kids = children
        .get(&span.id)
        .map(|kids| {
            kids.iter()
                .map(|c| render(c, children))
                .collect::<Vec<_>>()
                .join(",")
        })
        .unwrap_or_default();
    format!("{}({kids})", span.name)
}

/// Groups the snapshot's spans by trace, checks every span's parent
/// chain resolves to exactly one `lion.stream.job` root, and returns the
/// normalized trees in trace-id order (= submission order, since roots
/// are minted on the submitting thread).
fn normalized_trees(snapshot: &FlightSnapshot) -> Vec<String> {
    let mut by_trace: BTreeMap<u64, Vec<&SpanClose>> = BTreeMap::new();
    for span in snapshot.spans() {
        assert_ne!(span.trace_id, 0, "span {} outside any trace", span.name);
        by_trace.entry(span.trace_id).or_default().push(span);
    }
    by_trace
        .values()
        .map(|spans| {
            let by_id: BTreeMap<u64, &SpanClose> = spans.iter().map(|s| (s.id, *s)).collect();
            let roots: Vec<&&SpanClose> = spans.iter().filter(|s| s.parent == 0).collect();
            assert_eq!(roots.len(), 1, "trace must have exactly one root");
            let root = *roots[0];
            assert_eq!(root.name, "lion.stream.job");
            // Every span walks its parent chain back to that root.
            for span in spans {
                let mut cursor = *span;
                let mut hops = 0;
                while cursor.parent != 0 {
                    cursor = by_id
                        .get(&cursor.parent)
                        .unwrap_or_else(|| panic!("span {} has unresolvable parent", span.name));
                    hops += 1;
                    assert!(hops < 64, "parent chain cycle at {}", span.name);
                }
                assert_eq!(cursor.id, root.id, "span {} roots elsewhere", span.name);
            }
            let mut children: BTreeMap<u64, Vec<&SpanClose>> = BTreeMap::new();
            for span in spans {
                children.entry(span.parent).or_default().push(span);
            }
            render(root, &children)
        })
        .collect()
}

#[test]
fn every_stage_span_roots_in_one_job_span() {
    let _serial = recorder_lock();
    let jobs = stream_jobs(3);
    let snapshot = run_and_drain(1, &jobs, 1 << 16);
    assert_eq!(snapshot.total_dropped(), 0, "ring must hold the whole run");
    let trees = normalized_trees(&snapshot);
    assert_eq!(trees.len(), jobs.len(), "one trace per stream job");
    for tree in &trees {
        // The full pipeline shows up nested under the job root:
        // job → solve → unwrap/smooth/prepare/pairs/solve/offset (three
        // levels).
        assert!(tree.starts_with("lion.stream.job("), "tree: {tree}");
        assert!(tree.contains("lion.stream.ingress"), "tree: {tree}");
        assert!(tree.contains("lion.stream.window"), "tree: {tree}");
        assert!(
            tree.contains("lion.stream.solve(lion.unwrap"),
            "solve must nest the core stages: {tree}"
        );
        assert!(tree.contains("lion.pairs"), "tree: {tree}");
        // A replay tick fits the phase offset against the center it just
        // solved, in its own span under the tick's solve span.
        assert!(
            tree.contains(
                "lion.stream.solve(lion.unwrap(),lion.smooth(),lion.prepare(),lion.pairs(),lion.solve(),lion.offset())"
            ),
            "a replay tick must nest lion.offset: {tree}"
        );
    }
}

#[test]
fn span_trees_are_identical_across_worker_counts() {
    let _serial = recorder_lock();
    let jobs = stream_jobs(4);
    let serial = normalized_trees(&run_and_drain(1, &jobs, 1 << 16));
    let parallel = normalized_trees(&run_and_drain(4, &jobs, 1 << 16));
    assert_eq!(serial.len(), 4);
    // Ids and lanes differ between runs; the normalized trees do not.
    assert_eq!(serial, parallel);
}

/// A stationary tag: every position identical, so every cadence solve
/// hits `DegenerateGeometry` and fails.
fn degenerate_job() -> StreamJob {
    let reads: Vec<StreamRead> = (0..200)
        .map(|i| StreamRead {
            time: i as f64 * 0.01,
            position: Point3::new(0.2, 0.0, 0.0),
            phase: 0.3,
            ..StreamRead::default()
        })
        .collect();
    let config = lion::stream::StreamConfig::builder()
        .window_capacity(64)
        .min_window_len(24)
        .cadence(Cadence::EveryReads(8))
        .build()
        .expect("valid config");
    StreamJob::new(reads, config)
}

#[test]
fn flight_recorder_keeps_failing_solve_ancestry_and_counts_drops() {
    let _serial = recorder_lock();
    let run = || {
        let recorder = install_flight_recorder(32);
        let outcome = Engine::serial()
            .run_streams(&[degenerate_job()])
            .pop()
            .unwrap()
            .expect("stream survives failing solves");
        let snapshot = recorder.drain();
        uninstall_flight_recorder();
        (outcome, snapshot)
    };
    let (outcome, snapshot) = run();
    assert!(outcome.solve_errors > 0, "solves must actually fail");
    assert!(outcome.estimates.is_empty());

    // The tiny ring overflowed — deterministically.
    assert!(snapshot.total_dropped() > 0);

    // The last failing solve's full ancestry is still in the tail: the
    // solve span itself chains to the `lion.stream.job` trace root.
    let failing = snapshot
        .spans()
        .filter(|s| s.name == "lion.stream.solve")
        .last()
        .expect("a failing solve span survives in the tail");
    let chain = snapshot.ancestry(failing.id);
    let names: Vec<&str> = chain.iter().map(|s| s.name).collect();
    assert_eq!(names.first(), Some(&"lion.stream.solve"));
    assert_eq!(names.last(), Some(&"lion.stream.job"));
    assert_eq!(chain.last().unwrap().parent, 0, "ancestry reaches the root");

    // Same workload, fresh recorder: identical drop counter.
    let (_, again) = run();
    assert_eq!(again.total_dropped(), snapshot.total_dropped());
}

#[test]
fn error_construction_files_a_dump_with_ambient_context() {
    let _serial = recorder_lock();
    let recorder = install_flight_recorder(64);
    let expected = {
        let span = lion::obs::span!("causality.failing.op");
        let id = span.id().expect("recording");
        // A per-crate error surfacing as `lion::Error` inside the span
        // must file a dump stamped with this exact trace position.
        let core_err = Localizer::new(LocalizerConfig::default(), SolveSpace::TwoD)
            .locate(&[])
            .unwrap_err();
        let _: lion::Error = core_err.into();
        TraceContext {
            trace_id: id,
            parent: id,
        }
    };
    let failures = recorder.failures();
    uninstall_flight_recorder();
    let dump = failures.last().expect("error construction filed a dump");
    assert_eq!(dump.domain, "core");
    assert_eq!(dump.kind, "too_few_measurements");
    assert_eq!(dump.trace, Some(expected));
    assert!(!dump.snapshot.is_empty());
}

#[test]
fn recorded_run_round_trips_through_chrome_trace_export() {
    let _serial = recorder_lock();
    let jobs = stream_jobs(1);
    let snapshot = run_and_drain(1, &jobs, 1 << 16);
    let trace = lion::obs::export::to_chrome_trace(snapshot.records());
    let doc = lion::obs::json::parse(&trace).expect("exporter emits valid JSON");
    let events = doc
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .expect("traceEvents array");

    // Pull ts/dur (µs) for one complete event by name.
    let complete = |name: &str| -> Vec<(f64, f64)> {
        events
            .iter()
            .filter(|e| {
                e.get("ph").and_then(|v| v.as_str()) == Some("X")
                    && e.get("name").and_then(|v| v.as_str()) == Some(name)
            })
            .map(|e| {
                let ts = e.get("ts").and_then(|v| v.as_f64()).expect("ts");
                let dur = e.get("dur").and_then(|v| v.as_f64()).expect("dur");
                (ts, dur)
            })
            .collect()
    };
    let jobs_spans = complete("lion.stream.job");
    let solves = complete("lion.stream.solve");
    let unwraps = complete("lion.unwrap");
    assert_eq!(jobs_spans.len(), 1);
    assert!(!solves.is_empty());
    assert!(!unwraps.is_empty());

    // Three nested levels with ts/dur containment (ε covers the f64
    // rounding of the exact-decimal µs rendering).
    let within = |inner: (f64, f64), outer: (f64, f64)| {
        inner.0 >= outer.0 - 1e-3 && inner.0 + inner.1 <= outer.0 + outer.1 + 1e-3
    };
    let job = jobs_spans[0];
    for &solve in &solves {
        assert!(within(solve, job), "solve {solve:?} outside job {job:?}");
    }
    // Every unwrap sits inside some solve, which sits inside the job.
    for &unwrap in &unwraps {
        assert!(
            solves.iter().any(|&solve| within(unwrap, solve)),
            "unwrap {unwrap:?} not contained in any solve"
        );
        assert!(within(unwrap, job));
    }

    // Lanes surfaced as thread metadata for Perfetto's track names.
    assert!(events.iter().any(|e| {
        e.get("ph").and_then(|v| v.as_str()) == Some("M")
            && e.get("name").and_then(|v| v.as_str()) == Some("thread_name")
    }));
}
