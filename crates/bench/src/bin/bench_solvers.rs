//! Tracked benchmark for the solver backends behind the [`lion_core::Solver`] seam.
//!
//! Measures median wall times on the fig16-style workload (indoor
//! scenario, ±0.75 m track, paper defaults) for:
//!
//! - a single full-trace 2D solve through the linear (QR/IRLS) backend,
//! - the same solve through the coarse-to-fine likelihood grid,
//! - the 6×6 adaptive sweep with each backend,
//!
//! and records the cross-backend parity (distance between the two
//! single-solve estimates) as the gate the committed baseline must keep.
//!
//! Usage:
//!
//! - `bench_solvers` — run and print the `lion-bench-6` JSON document.
//! - `bench_solvers --write PATH` — run and also write the document.
//! - `bench_solvers --check PATH` — run, refuse (exit 0) if the
//!   committed baseline came from a different machine or toolchain,
//!   otherwise verify fresh medians are within 3× of the committed
//!   ones and that both the fresh and committed parity stay inside the
//!   documented agreement radius (exit code 1 otherwise).
//!
//! Run with `--release`; debug-build numbers are meaningless.

use std::time::Instant;

use lion_core::{
    AdaptiveConfig, AdaptiveOutcome, GridConfig, Localizer, LocalizerConfig, PhaseProfile,
    SolveSpace, SolverKind, Workspace,
};
use lion_geom::{LineSegment, Point3};

use lion_bench::rig;

/// How many times slower/faster than the committed baseline a fresh
/// median may be before `--check` fails (same scheme as BENCH_8/10).
const CHECK_RATIO: f64 = 3.0;
/// The documented cross-backend agreement radius on the fig16 rig
/// (DESIGN §12): the grid estimate must land within this distance of
/// the linear estimate, both in the committed baseline and fresh.
const PARITY_LIMIT_M: f64 = 0.02;
/// Budget for one `/metrics` scrape render (snapshot + Prometheus text)
/// of a bench-shaped registry. An **absolute** gate, not
/// baseline-relative: the committed `BENCH_6.json` needs no regeneration
/// and a serialization regression on the scrape hot path fails `--check`
/// outright. 5 ms is ~100× the measured cost on the reference rig while
/// still far below any sane Prometheus scrape interval.
const METRICS_RENDER_BUDGET_NS: u64 = 5_000_000;
/// Budget for one steady-state history-plane sampler tick (registry
/// snapshot → counter/gauge points + histogram deltas into the tsdb) on
/// the same bench-shaped registry. Absolute, like the render gate: the
/// background sampler runs once a second inside live pipelines, so a
/// tick must stay far under its period. 5 ms is ~100× the measured
/// steady-state cost on the reference rig.
const SAMPLER_TICK_BUDGET_NS: u64 = 5_000_000;

fn median_ns(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn time_ns(f: &mut impl FnMut()) -> u64 {
    let t = Instant::now();
    f();
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bench(runs: usize, mut f: impl FnMut()) -> u64 {
    // One untimed warm-up sizes the buffers and warms the caches.
    f();
    median_ns((0..runs).map(|_| time_ns(&mut f)).collect())
}

/// The fig16-style workload: indoor multipath, narrow-beam antenna at
/// (0, 0.8, 0), one scan of the ±0.75 m track.
fn workload(seed: u64) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(lion_geom::Vec3::new(0.0, -1.0, 0.0))
        .build();
    let mut scenario = rig::indoor_scenario(antenna, seed);
    let track = LineSegment::along_x(-0.75, 0.75, 0.0, 0.0).expect("valid");
    let trace = scenario
        .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan");
    (
        trace.to_measurements(),
        rig::paper_localizer_config(antenna_pos),
    )
}

const BENCH_NAMES: [&str; 4] = [
    "linear_solve_ns",
    "grid_solve_ns",
    "sweep_linear_ns",
    "sweep_grid_ns",
];

struct BenchResults {
    linear_solve_ns: u64,
    grid_solve_ns: u64,
    sweep_linear_ns: u64,
    sweep_grid_ns: u64,
    parity_m: f64,
    metrics_render_ns: u64,
    sampler_tick_ns: u64,
}

impl BenchResults {
    fn slowdown(&self) -> f64 {
        self.grid_solve_ns as f64 / self.linear_solve_ns.max(1) as f64
    }

    fn named(&self) -> [(&'static str, u64); 4] {
        [
            (BENCH_NAMES[0], self.linear_solve_ns),
            (BENCH_NAMES[1], self.grid_solve_ns),
            (BENCH_NAMES[2], self.sweep_linear_ns),
            (BENCH_NAMES[3], self.sweep_grid_ns),
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
            "{{\"schema\":\"lion-bench-6\",\"env\":{},\
             \"benches\":{{{}}},\"grid_vs_linear_slowdown\":{:.2},\"parity_m\":{:.6},\
             \"metrics_render_ns\":{},\"sampler_tick_ns\":{}}}",
            lion_bench::benv::BenchEnv::current().to_json(),
            benches,
            self.slowdown(),
            self.parity_m,
            self.metrics_render_ns,
            self.sampler_tick_ns,
        )
    }
}

fn run_benches() -> BenchResults {
    let (m, config) = workload(42);
    let adaptive = AdaptiveConfig::default();
    let linear = Localizer::new(config.clone(), SolveSpace::TwoD);
    let grid = Localizer::new(
        LocalizerConfig {
            solver: SolverKind::Grid(GridConfig::default()),
            ..config
        },
        SolveSpace::TwoD,
    );

    // Single solves run on the paper's 0.8 m scanning range (as the
    // fig16 experiments do): the range restriction keeps the off-beam
    // tail out, which the linear backend would down-weight but the
    // unweighted likelihood would not.
    let profile = {
        let mut p = PhaseProfile::from_wrapped(&m, config.wavelength).expect("valid trace");
        p.smooth(config.smoothing_window);
        p.restrict_x(-0.4, 0.4)
    };

    let mut ws = Workspace::new();
    let parity_m = {
        let ls = linear
            .locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
        let lg = grid
            .locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
        ls.position.distance(lg.position)
    };

    let linear_solve_ns = bench(51, || {
        linear
            .locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
    });
    let grid_solve_ns = bench(21, || {
        grid.locate_profile_in(&profile, &mut ws)
            .expect("solvable trace");
    });

    let mut out = AdaptiveOutcome::default();
    let sweep_linear_ns = bench(11, || {
        linear
            .locate_adaptive_into(&m, &adaptive, &mut ws, &mut out)
            .expect("solvable sweep");
    });
    let sweep_grid_ns = bench(5, || {
        grid.locate_adaptive_into(&m, &adaptive, &mut ws, &mut out)
            .expect("solvable sweep");
    });

    BenchResults {
        linear_solve_ns,
        grid_solve_ns,
        sweep_linear_ns,
        sweep_grid_ns,
        parity_m,
        metrics_render_ns: bench_metrics_render(),
        sampler_tick_ns: bench_sampler_tick(),
    }
}

/// Builds the same bench-shaped registry as [`bench_metrics_render`].
fn bench_registry() -> lion_obs::Registry {
    let registry = lion_obs::Registry::new();
    registry.counter_add("engine.jobs", 4096);
    registry.counter_add("engine.failed", 3);
    registry.gauge_set("engine.workers", 8.0);
    for rule in [
        "residual_drift",
        "convergence_stall",
        "ingress_shed",
        "solve_latency",
        "solver_disagreement",
    ] {
        registry.gauge_set(&format!("fleet.rule.{rule}.firing"), 2.0);
    }
    for stage in [
        "unwrap",
        "smooth",
        "pairs",
        "solve",
        "adaptive",
        "job_busy",
        "queue_wait",
        "execute",
    ] {
        let name = format!("engine.stage.{stage}_ns");
        for i in 0..4096u64 {
            // Spread across buckets the way real latencies are.
            registry.histogram_record(&name, (i * 7919) % 10_000_000);
        }
    }
    registry
}

/// Times one steady-state history-plane sampler tick on the bench-shaped
/// registry: every counter and gauge becomes a point, every histogram a
/// sparse delta against the previous snapshot. A manual clock advanced
/// one period per iteration keeps every `tick` call a real sample (no
/// skipped due-checks), and the warm-up tick absorbs the one-off
/// first-sample cost so the median is the steady-state figure the
/// background sampler pays once a second.
fn bench_sampler_tick() -> u64 {
    let registry = bench_registry();
    let clock = lion_obs::ManualClock::new(0);
    let tsdb = std::sync::Arc::new(lion_obs::Tsdb::new(lion_obs::TsdbConfig::default()));
    let mut sampler = lion_obs::Sampler::new(tsdb.clone(), 1, clock.clone());
    let mut ticked = 0u64;
    let ns = bench(51, || {
        clock.advance(1_000_000_000);
        ticked = sampler.tick(&registry).expect("tick due");
    });
    assert!(ticked > 0, "sampler never sampled");
    assert!(tsdb.stats().series > 0, "no series stored");
    ns
}

/// Times one `/metrics` scrape render — registry snapshot + Prometheus
/// text — on a registry shaped like a live fleet run: a handful of
/// counters/gauges, the fleet rollup gauges, and well-populated stage
/// histograms (a histogram renders one sample per non-zero bucket, so
/// spread values drive the cost).
fn bench_metrics_render() -> u64 {
    let registry = bench_registry();
    let mut rendered = 0usize;
    let ns = bench(51, || {
        let text = lion_obs::export::to_prometheus(&registry.snapshot());
        rendered = std::hint::black_box(text.len());
    });
    assert!(rendered > 0, "render produced no exposition text");
    ns
}

fn load_baseline(path: &str) -> Result<(Vec<(String, u64)>, f64), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = lion_obs::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "lion-bench-6" {
        return Err(format!("{path}: unexpected schema {schema:?}"));
    }
    let benches = doc.get("benches").ok_or("missing benches")?;
    let mut medians = Vec::new();
    for name in BENCH_NAMES {
        let median = benches
            .get(name)
            .and_then(|b| b.get("median"))
            .and_then(|v| v.as_u64())
            .ok_or_else(|| format!("missing bench {name}"))?;
        medians.push((name.to_string(), median));
    }
    let parity = doc
        .get("parity_m")
        .and_then(|v| v.as_f64())
        .ok_or("missing parity_m")?;
    Ok((medians, parity))
}

fn check(results: &BenchResults, path: &str) -> Result<(), String> {
    let (baseline, committed_parity) = load_baseline(path)?;
    let mut failures = Vec::new();
    if committed_parity > PARITY_LIMIT_M {
        failures.push(format!(
            "committed parity {committed_parity:.4} m exceeds the {PARITY_LIMIT_M} m radius"
        ));
    }
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
    eprintln!(
        "check parity: fresh {:.4} m, committed {committed_parity:.4} m (limit {PARITY_LIMIT_M} m)",
        results.parity_m
    );
    if results.parity_m > PARITY_LIMIT_M {
        failures.push(format!(
            "fresh parity {:.4} m exceeds the {PARITY_LIMIT_M} m radius",
            results.parity_m
        ));
    }
    // Absolute gate on the scrape hot path (no committed counterpart —
    // see METRICS_RENDER_BUDGET_NS).
    let render = results.metrics_render_ns;
    let render_status = if render > METRICS_RENDER_BUDGET_NS {
        failures.push(format!(
            "metrics_render_ns {render} exceeds the {METRICS_RENDER_BUDGET_NS} ns scrape budget"
        ));
        "FAIL"
    } else {
        "ok"
    };
    eprintln!(
        "check metrics_render_ns: fresh {render} ns, budget {METRICS_RENDER_BUDGET_NS} ns [{render_status}]"
    );
    // Absolute gate on the background sampler's per-tick cost (also no
    // committed counterpart — see SAMPLER_TICK_BUDGET_NS).
    let tick = results.sampler_tick_ns;
    let tick_status = if tick > SAMPLER_TICK_BUDGET_NS {
        failures.push(format!(
            "sampler_tick_ns {tick} exceeds the {SAMPLER_TICK_BUDGET_NS} ns tick budget"
        ));
        "FAIL"
    } else {
        "ok"
    };
    eprintln!(
        "check sampler_tick_ns: fresh {tick} ns, budget {SAMPLER_TICK_BUDGET_NS} ns [{tick_status}]"
    );
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
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_6.json");
            std::fs::write(path, format!("{json}\n")).expect("write baseline");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_6.json");
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
