//! Tracked benchmark for the `lion_linalg::simd` kernels and the two
//! end-to-end latencies the SoA/SIMD rework is accountable for.
//!
//! Per-kernel medians run each dispatched kernel on pipeline-shaped
//! inputs (1024 samples — the order of one full fig16 trace):
//!
//! - `phase_unwrap_ns` — [`lion_linalg::simd::phase_unwrap_in_place`],
//! - `sliding_mean_ns` — [`lion_linalg::simd::sliding_mean_from_prefix`],
//! - `radical_rows_ns` — [`lion_linalg::simd::radical_rows`] (k = 2),
//! - `gram_accumulate_ns` — [`lion_linalg::simd::gram_fixed`] (N = 3),
//! - `exp_weights_ns` — [`lion_linalg::simd::gaussian_weights`], the
//!   IRLS reweight's exponent and exp, on residual-shaped input,
//!
//! plus two end-to-end medians (the second measured exactly like
//! `bench_stream_resolve`):
//!
//! - `single_solve_ns` — one full-trace 2D solve on the fig16 rig,
//! - `incremental_resolve_ns` — one steady-state O(delta) re-solve tick.
//!
//! Usage:
//!
//! - `bench_kernels` — run and print the `lion-bench-10` JSON document.
//! - `bench_kernels --write PATH` — run and also write the document.
//! - `bench_kernels --check PATH` — run, refuse (exit 0) if the
//!   committed baseline came from a different machine or toolchain,
//!   otherwise verify fresh medians are within 3× of the committed ones
//!   AND that the two end-to-end medians clear their absolute budgets
//!   (exit code 1 otherwise). The budgets are the SoA/SIMD rework's
//!   acceptance bars: a single solve must stay under 700 µs (the
//!   pre-rework median was 1.36 ms) and an incremental re-solve must
//!   stay no worse than the 14 672 ns pre-rework baseline. Absolute
//!   gates are safe here because the env refusal guarantees the
//!   numbers come from the machine that wrote the baseline.
//!
//! Run with `--release`; debug-build numbers are meaningless. For
//! native-tuned numbers (not comparable to the committed baseline) use
//! `just bench-native`.

use std::hint::black_box;
use std::time::Instant;

use lion_core::{
    IncrementalState, Localizer, LocalizerConfig, SlidingWindow, SolveSpace, Workspace,
};
use lion_geom::{CircularArc, LineSegment, Point3, Vec3};
use lion_linalg::simd;

use lion_bench::rig;

/// How many times slower/faster than the committed baseline a fresh
/// median may be before `--check` fails (same scheme as BENCH_6/8).
const CHECK_RATIO: f64 = 3.0;
/// Absolute budget for one full-trace 2D solve. Half of the ~1.36 ms
/// the pre-SoA pipeline took; the reworked pipeline
/// measures ~4× under the budget, leaving room for machine noise.
const SINGLE_SOLVE_BUDGET_NS: u64 = 700_000;
/// Absolute budget for one steady-state incremental re-solve tick: the
/// committed pre-rework median (BENCH_8 at PR 8). The rework must not
/// regress the O(delta) path while rerouting its shared kernels.
const INCREMENTAL_BUDGET_NS: u64 = 14_672;
/// Sample count for the synthetic kernel inputs — the order of one
/// full fig16 trace, so per-kernel medians sit on the same curve as
/// the end-to-end numbers.
const KERNEL_N: usize = 1024;

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

/// The fig16-style workload: indoor multipath,
/// narrow-beam antenna at (0, 0.8, 0), one scan of the ±0.75 m track.
fn linear_workload(seed: u64) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(Vec3::new(0.0, -1.0, 0.0))
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

/// The circular-track workload from `bench_stream_resolve`: the
/// incremental state machine only serves full-rank (2D) geometry, so
/// the steady-state tick needs a track that spans two dimensions.
fn circular_workload(seed: u64) -> (Vec<(Point3, f64)>, LocalizerConfig) {
    let antenna_pos = Point3::new(0.0, 0.8, 0.0);
    let antenna = lion_sim::Antenna::builder(antenna_pos)
        .gain_exponent(6.0)
        .boresight(Vec3::new(0.0, -1.0, 0.0))
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

struct BenchResults {
    phase_unwrap_ns: u64,
    sliding_mean_ns: u64,
    radical_rows_ns: u64,
    gram_accumulate_ns: u64,
    exp_weights_ns: u64,
    single_solve_ns: u64,
    incremental_resolve_ns: u64,
}

const BENCH_NAMES: [&str; 7] = [
    "phase_unwrap_ns",
    "sliding_mean_ns",
    "radical_rows_ns",
    "gram_accumulate_ns",
    "exp_weights_ns",
    "single_solve_ns",
    "incremental_resolve_ns",
];

impl BenchResults {
    fn named(&self) -> [(&'static str, u64); 7] {
        [
            (BENCH_NAMES[0], self.phase_unwrap_ns),
            (BENCH_NAMES[1], self.sliding_mean_ns),
            (BENCH_NAMES[2], self.radical_rows_ns),
            (BENCH_NAMES[3], self.gram_accumulate_ns),
            (BENCH_NAMES[4], self.exp_weights_ns),
            (BENCH_NAMES[5], self.single_solve_ns),
            (BENCH_NAMES[6], self.incremental_resolve_ns),
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
            "{{\"schema\":\"lion-bench-10\",\"env\":{},\"benches\":{{{}}},\
             \"single_solve_budget_ns\":{},\"incremental_budget_ns\":{}}}",
            lion_bench::benv::BenchEnv::current().to_json(),
            benches,
            SINGLE_SOLVE_BUDGET_NS,
            INCREMENTAL_BUDGET_NS,
        )
    }
}

fn bench_kernels() -> (u64, u64, u64, u64, u64) {
    let n = KERNEL_N;

    // Wrapped phases along a steady sweep: ~0.12 rad between reads, so
    // the unwrap kernel sees the same few-revolutions-per-trace shape
    // the fig16 rig produces.
    let wrapped: Vec<f64> = (0..n)
        .map(|i| {
            let theta = i as f64 * 0.12;
            // Wrap into [-π, π).
            (theta + std::f64::consts::PI).rem_euclid(std::f64::consts::TAU) - std::f64::consts::PI
        })
        .collect();
    let mut phases = wrapped.clone();
    let mut revs: Vec<f64> = Vec::new();
    let phase_unwrap_ns = bench(201, || {
        phases.copy_from_slice(&wrapped);
        simd::phase_unwrap_in_place(&mut phases, &mut revs);
        black_box(phases[n - 1]);
    });

    // Moving-average smoothing via the prefix-sum kernel, with the
    // pipeline's default window width.
    let mut prefix = vec![0.0_f64; n + 1];
    for i in 0..n {
        prefix[i + 1] = prefix[i] + wrapped[i];
    }
    let mut smoothed = vec![0.0_f64; n];
    let sliding_mean_ns = bench(201, || {
        simd::sliding_mean_from_prefix(&prefix, 9, &mut smoothed);
        black_box(smoothed[n / 2]);
    });

    // Radical-line rows: k = 2 (the planar solve), one row per adjacent
    // pair at the interval strategy's typical gap.
    let k = 2;
    let coords: Vec<f64> = (0..n * k).map(|i| (i as f64 * 0.37).sin()).collect();
    let deltas: Vec<f64> = (0..n)
        .map(|i| 1.0 + (i as f64 * 0.11).cos() * 0.2)
        .collect();
    let gap = 32;
    let pair_i: Vec<i32> = (0..n - gap).map(|i| i as i32).collect();
    let pair_j: Vec<i32> = (gap..n).map(|j| j as i32).collect();
    let rows = pair_i.len();
    let mut design = vec![0.0_f64; rows * (k + 1)];
    let mut rhs = vec![0.0_f64; rows];
    let radical_rows_ns = bench(201, || {
        simd::radical_rows(
            &coords,
            n,
            k,
            &deltas,
            &pair_i,
            &pair_j,
            &mut design,
            &mut rhs,
        );
        black_box(rhs[rows - 1]);
    });

    // Gram accumulation at N = 3 (k + 1 columns of the planar system),
    // reusing the radical-line system as input.
    let weights = vec![1.0_f64; rows];
    let gram_accumulate_ns = bench(201, || {
        let (gram, grhs) = simd::gram_fixed::<3>(&design, &rhs, &weights);
        black_box(gram[2][2] + grhs[0]);
    });

    // The IRLS weight kernel every reweight calls: Gaussian weights of
    // residuals spread about their mean like a solve's, with one outlier
    // in 64 far enough out to hit the exponent clamp.
    let residuals: Vec<f64> = (0..n)
        .map(|i| match i % 64 {
            0 => 2.5,
            _ => (i as f64 * 0.37).sin() * 0.02,
        })
        .collect();
    let mu = residuals.iter().sum::<f64>() / n as f64;
    let var = residuals.iter().map(|r| (r - mu).powi(2)).sum::<f64>() / n as f64;
    let mut weights_out = vec![0.0_f64; n];
    let exp_weights_ns = bench(201, || {
        simd::gaussian_weights(&residuals, mu, 0.5 / var, &mut weights_out);
        black_box(weights_out[n - 1]);
    });

    (
        phase_unwrap_ns,
        sliding_mean_ns,
        radical_rows_ns,
        gram_accumulate_ns,
        exp_weights_ns,
    )
}

fn bench_single_solve() -> u64 {
    let (m, config) = linear_workload(42);
    let localizer = Localizer::new(config, SolveSpace::TwoD);
    let mut ws = Workspace::new();
    bench(51, || {
        localizer.locate_in(&m, &mut ws).expect("solvable trace");
    })
}

fn bench_incremental_resolve() -> u64 {
    const CADENCE: usize = 16;
    const WINDOW: usize = 256;
    let (m, config) = circular_workload(42);
    let mut cursor = 0usize;
    let mut tick = 0u64;
    let mut next = |window: &mut SlidingWindow| {
        for _ in 0..CADENCE {
            let (p, phase) = m[cursor];
            cursor = (cursor + 1) % m.len();
            tick += 1;
            window.push(tick as f64 * 0.01, p, phase);
        }
    };
    let mut window = SlidingWindow::new(WINDOW).expect("valid capacity");
    for _ in 0..WINDOW / CADENCE {
        next(&mut window);
    }
    let mut ws = Workspace::new();
    let mut state = IncrementalState::new(Localizer::new(config, SolveSpace::TwoD));
    state
        .solve_window(&mut window, &mut ws)
        .expect("warm-up resync solves");
    // Ingest is untimed — the budget tracks the re-solve alone, the
    // same separation `bench_stream_resolve` (BENCH_8) measures.
    median_ns(
        (0..401)
            .map(|_| {
                next(&mut window);
                let t = Instant::now();
                state
                    .solve_window(&mut window, &mut ws)
                    .expect("solvable window");
                u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect(),
    )
}

fn run_benches() -> BenchResults {
    let (phase_unwrap_ns, sliding_mean_ns, radical_rows_ns, gram_accumulate_ns, exp_weights_ns) =
        bench_kernels();
    BenchResults {
        phase_unwrap_ns,
        sliding_mean_ns,
        radical_rows_ns,
        gram_accumulate_ns,
        exp_weights_ns,
        single_solve_ns: bench_single_solve(),
        incremental_resolve_ns: bench_incremental_resolve(),
    }
}

fn load_baseline(path: &str) -> Result<Vec<(String, u64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    let doc = lion_obs::json::parse(&text).map_err(|e| format!("parse {path}: {e}"))?;
    let schema = doc.get("schema").and_then(|v| v.as_str()).unwrap_or("");
    if schema != "lion-bench-10" {
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
    Ok(medians)
}

fn check(results: &BenchResults, path: &str) -> Result<(), String> {
    let baseline = load_baseline(path)?;
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
    // Absolute acceptance budgets (safe post-refusal: same machine as
    // the committed baseline).
    let single = results.single_solve_ns;
    let single_status = if single > SINGLE_SOLVE_BUDGET_NS {
        failures.push(format!(
            "single_solve_ns {single} exceeds the {SINGLE_SOLVE_BUDGET_NS} ns budget"
        ));
        "FAIL"
    } else {
        "ok"
    };
    eprintln!(
        "check single_solve budget: fresh {single} ns, budget {SINGLE_SOLVE_BUDGET_NS} ns \
         [{single_status}]"
    );
    let incr = results.incremental_resolve_ns;
    let incr_status = if incr > INCREMENTAL_BUDGET_NS {
        failures.push(format!(
            "incremental_resolve_ns {incr} exceeds the {INCREMENTAL_BUDGET_NS} ns budget"
        ));
        "FAIL"
    } else {
        "ok"
    };
    eprintln!(
        "check incremental budget: fresh {incr} ns, budget {INCREMENTAL_BUDGET_NS} ns \
         [{incr_status}]"
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
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_10.json");
            std::fs::write(path, format!("{json}\n")).expect("write baseline");
            eprintln!("wrote {path}");
        }
        Some("--check") => {
            let path = args.get(1).map(String::as_str).unwrap_or("BENCH_10.json");
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
