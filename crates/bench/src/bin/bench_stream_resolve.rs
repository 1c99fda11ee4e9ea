//! Tracked benchmark for the O(delta) incremental streaming re-solve.
//!
//! Measures median re-solve wall times on an indoor-scenario circular
//! scan (0.3 m radius, paper read rate and tag speed) in steady state:
//! each run pushes one cadence tick of reads (16) into a full 256-read
//! sliding window untimed — ingest cost is identical in both modes —
//! and times the re-solve alone, through both paths:
//!
//! - **replay** — the full O(window) pipeline
//!   (`lion_core::Localizer::locate_window_in`), exactly what
//!   `ResolveMode::Replay` runs on every tick;
//! - **incremental** — the persistent-state O(delta) preprocessing
//!   followed by the batch solve
//!   (`lion_core::IncrementalState::solve_window`), what
//!   `ResolveMode::Incremental` runs between resyncs.
//!
//! The track is circular rather than the paper's linear slide because a
//! pure line spans only one geometric dimension, and the incremental
//! state machine deliberately replays every lower-dimension window —
//! the O(delta) path only ever serves full-rank geometry, so that is
//! what this benchmark must measure. Both paths consume the identical
//! read sequence, and the incremental median includes its periodic
//! resyncs — the honest steady-state cost, not a best-case delta tick.
//!
//! Usage:
//!
//! - `bench_stream_resolve` — run and print the `lion-bench-8` JSON.
//! - `bench_stream_resolve --write PATH` — run and also write the doc.
//! - `bench_stream_resolve --check PATH` — run, refuse (exit 0) if the
//!   committed baseline came from a different machine or toolchain,
//!   otherwise verify that fresh medians are within 3× of the
//!   committed ones and that the fresh incremental-vs-replay speedup
//!   has not collapsed relative to the committed one (exit 1
//!   otherwise).
//!
//! The incremental path used to carry an absolute ≥5× floor over
//! replay; the SoA/SIMD rework sped the full replay pipeline up ~6×,
//! which shrank the remaining gap (the O(delta) path still wins, just
//! over a much faster opponent), so the check is relative to the
//! committed speedup rather than an absolute floor. The absolute
//! regression gate on `incremental_resolve_ns` itself lives in
//! `bench_kernels` (`lion-bench-10`).
//!
//! Run with `--release`; debug-build numbers are meaningless.

use std::time::Instant;

use lion_core::{
    IncrementalState, Localizer, LocalizerConfig, SlidingWindow, SolveSpace, Workspace,
};
use lion_geom::{CircularArc, Point3, Vec3};

use lion_bench::rig;

/// How many times slower/faster than the committed baseline a fresh
/// median may be before `--check` fails (same scheme as BENCH_6/10).
const CHECK_RATIO: f64 = 3.0;
/// Noise allowance on the fresh-run speedup during `--check`: the
/// fresh incremental-vs-replay ratio must reach this fraction of the
/// committed one.
const SPEEDUP_MARGIN: f64 = 0.6;
/// Reads pushed per cadence tick (the stream default).
const CADENCE: usize = 16;
/// Window capacity (the stream default).
const WINDOW: usize = 256;

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// Times `solve` alone: each run first advances the stream by one
/// cadence tick (untimed — ingest cost is identical in both modes and
/// not what the resolve path changes), then measures the re-solve.
fn bench_ticks(
    runs: usize,
    feed: &mut Feed<'_>,
    window: &mut SlidingWindow,
    mut solve: impl FnMut(&mut SlidingWindow),
) -> u64 {
    feed.advance(window);
    solve(window);
    median_ns(
        (0..runs)
            .map(|_| {
                feed.advance(window);
                let t = Instant::now();
                solve(window);
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect(),
    )
}

/// The fig16 indoor scenario (as in `bench_kernels`), scanned over a closed
/// circular track instead of the linear slide: a line spans only one
/// geometric dimension, which the incremental state machine always
/// replays, so the O(delta) path needs full-rank (2D) geometry to
/// engage. A full circle also lets the feed wrap seamlessly — the last
/// read sits one sample spacing from the first.
fn workload(seed: u64) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(lion_geom::Vec3::new(0.0, -1.0, 0.0))
        .build();
    let mut scenario = rig::indoor_scenario(antenna, seed);
    let track = CircularArc::new(
        Point3::new(0.0, 0.0, 0.0),
        Vec3::new(1.0, 0.0, 0.0),
        Vec3::new(0.0, 1.0, 0.0),
        0.3,
        0.0,
        std::f64::consts::TAU,
    )
    .expect("valid arc");
    let trace = scenario
        .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan");
    (
        trace.to_measurements(),
        rig::paper_localizer_config(antenna_pos),
    )
}

/// Endless feed around the closed circular trace: the cursor wraps
/// modulo the trace length, so consecutive reads always stay spatially
/// adjacent (unwrapping needs a continuous track) and the stream never
/// runs dry or splices.
struct Feed<'a> {
    slice: &'a [(Point3, f64)],
    cursor: usize,
    tick: u64,
}

impl<'a> Feed<'a> {
    fn new(m: &'a [(Point3, f64)]) -> Self {
        Feed {
            slice: m,
            cursor: 0,
            tick: 0,
        }
    }

    fn next(&mut self) -> (f64, Point3, f64) {
        let (p, phase) = self.slice[self.cursor];
        self.cursor = (self.cursor + 1) % self.slice.len();
        self.tick += 1;
        (self.tick as f64 * 0.01, p, phase)
    }

    /// Pushes one cadence tick of reads.
    fn advance(&mut self, window: &mut SlidingWindow) {
        for _ in 0..CADENCE {
            let (t, p, phase) = self.next();
            window.push(t, p, phase);
        }
    }
}

struct BenchResults {
    replay_resolve_ns: u64,
    incremental_resolve_ns: u64,
    resolve_rows_delta: u64,
    resolve_rebuilds: u64,
}

impl BenchResults {
    fn speedup(&self) -> f64 {
        self.replay_resolve_ns as f64 / self.incremental_resolve_ns.max(1) as f64
    }

    fn named(&self) -> [(&'static str, u64); 2] {
        [
            ("replay_resolve_ns", self.replay_resolve_ns),
            ("incremental_resolve_ns", self.incremental_resolve_ns),
        ]
    }

    fn to_json(&self) -> String {
        let benches = self
            .named()
            .iter()
            .map(|(name, median)| format!("\"{name}\":{{\"median\":{median}}}"))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"schema\":\"lion-bench-8\",\"env\":{},\
             \"benches\":{{{}}},\"resolve_rows_delta\":{},\"resolve_rebuilds\":{},\
             \"speedup_incremental_vs_replay\":{:.2}}}",
            lion_bench::benv::BenchEnv::current().to_json(),
            benches,
            self.resolve_rows_delta,
            self.resolve_rebuilds,
            self.speedup(),
        )
    }
}

fn run_benches() -> BenchResults {
    let (m, config) = workload(42);
    let localizer = Localizer::new(config, SolveSpace::TwoD);

    // Replay path: one cadence tick = CADENCE pushes + full replay.
    let mut feed = Feed::new(&m);
    let mut window = SlidingWindow::new(WINDOW).expect("valid capacity");
    for _ in 0..WINDOW {
        let (t, p, phase) = feed.next();
        window.push(t, p, phase);
    }
    let mut ws = Workspace::new();
    let replay_resolve_ns = bench_ticks(101, &mut feed, &mut window, |w| {
        localizer
            .locate_window_in(w, &mut ws)
            .expect("solvable window");
    });

    // Incremental path: the identical feed through persistent state.
    // The timed loop includes every periodic resync and every
    // splice-triggered replay the state machine takes; the median is
    // the steady state.
    let mut feed = Feed::new(&m);
    let mut window = SlidingWindow::new(WINDOW).expect("valid capacity");
    for _ in 0..WINDOW {
        let (t, p, phase) = feed.next();
        window.push(t, p, phase);
    }
    let mut ws = Workspace::new();
    let mut state = IncrementalState::new(localizer);
    state
        .solve_window(&mut window, &mut ws)
        .expect("warm-up resync solves");
    let incremental_resolve_ns = bench_ticks(401, &mut feed, &mut window, |w| {
        state.solve_window(w, &mut ws).expect("solvable window");
    });

    BenchResults {
        replay_resolve_ns,
        incremental_resolve_ns,
        resolve_rows_delta: state.rows_delta(),
        resolve_rebuilds: state.rebuilds(),
    }
}

fn load_baseline(path: &str) -> Result<(Vec<(String, u64)>, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = lion_obs::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "lion-bench-8" {
        return Err(format!("{path}: unexpected schema {schema:?}"));
    }
    let benches = doc.get("benches").ok_or("missing benches")?;
    let mut medians = Vec::new();
    for name in ["replay_resolve_ns", "incremental_resolve_ns"] {
        let median = benches
            .get(name)
            .and_then(|b| b.get("median"))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing bench {name}"))?;
        medians.push((name.to_string(), median));
    }
    let speedup = doc
        .get("speedup_incremental_vs_replay")
        .and_then(|v| v.as_f64())
        .ok_or("missing speedup_incremental_vs_replay")?;
    Ok((medians, speedup))
}

fn check(results: &BenchResults, path: &str) -> Result<(), String> {
    let (baseline, committed_speedup) = load_baseline(path)?;
    let mut failures = Vec::new();
    for (name, fresh) in results.named() {
        let committed = baseline
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0);
        let ratio = fresh as f64 / committed.max(1) as f64;
        let status = if !(1.0 / CHECK_RATIO..=CHECK_RATIO).contains(&ratio) {
            failures.push(format!(
                "{name}: fresh {fresh} ns vs committed {committed} ns (ratio {ratio:.2})"
            ));
            "FAIL"
        } else {
            "ok"
        };
        eprintln!("check {name}: fresh {fresh} ns, committed {committed} ns [{status}]");
    }
    let fresh_speedup = results.speedup();
    let fresh_floor = committed_speedup * SPEEDUP_MARGIN;
    eprintln!(
        "check speedup: fresh {fresh_speedup:.2}x, committed {committed_speedup:.2}x \
         (floor {fresh_floor:.2}x = committed x {SPEEDUP_MARGIN})"
    );
    if fresh_speedup < fresh_floor {
        failures.push(format!(
            "fresh speedup {fresh_speedup:.2}x is below the {fresh_floor:.2}x noise floor"
        ));
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let results = run_benches();
    let json = results.to_json();
    println!("{json}");
    match args.first().map(String::as_str) {
        Some("--write") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_8.json");
            std::fs::write(path, format!("{json}\n")).expect("write baseline");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_8.json");
            lion_bench::benv::refuse_if_cross_machine(path);
            if let Err(e) = check(&results, path) {
                eprintln!("benchmark check FAILED: {e}");
                std::process::exit(1);
            }
            eprintln!("benchmark check passed");
        }
        Some(other) => {
            eprintln!("unknown argument {other}; use --write [PATH] or --check [PATH]");
            std::process::exit(2);
        }
        None => {}
    }
}
