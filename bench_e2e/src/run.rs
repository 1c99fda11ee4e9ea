//! The closed loop, its end-to-end metrics, and the traced per-layer run.
//!
//! Every timing is taken with a [`Stopwatch`] and reported normalized by
//! the host-speed probe (see `probe.rs`); the wall-clock figures go to
//! [`Report::wall`].

use std::sync::Arc;
use std::time::Instant;

use lion_core::{CoreError, ResolvePath, StageMetrics};
use lion_engine::{BatchOutcome, Engine, JobKind, StreamJob, StreamOutcome};
use lion_geom::Point3;
use lion_obs::{Histogram, HistoryConfig, SloConfig, TelemetryHub};
use lion_stream::{ResolveMode, Space, STREAM_LAG_HISTOGRAM};

use crate::inputs::{generate, Inputs, Rounds, Scale, Truth, Workload};
use crate::kernels;
use crate::ledger::{Ledger, SpanCollector, ROUND_SPAN};
use crate::probe::{Lap, Stopwatch};
use crate::stats::{add_scaled_delta, histogram_quantile, median, median_ns, quantile};

/// Client rounds a traced run records.
const TRACED_ROUNDS: usize = 3;

/// How one run is set up.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Seconds the closed loop measures.
    pub seconds: f64,
    /// Per-layer traced run instead of the end-to-end one.
    pub trace: bool,
    /// Engine workers.
    pub workers: usize,
    /// Input sizes.
    pub scale: Scale,
    /// Set-ups timed; `setup_s` is their median.
    pub setups: usize,
}

impl Options {
    /// The benchmark proper: full inputs, set-up timed five times, and one
    /// engine worker, so the whole program runs inline on the client
    /// thread, the thread the host-speed probe measures.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> Self {
        Options {
            workload,
            seed,
            seconds,
            trace,
            workers: 1,
            scale: Scale::Full,
            setups: 5,
        }
    }
}

/// The machine's available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as declared in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as declared in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted in the measured loop: jobs, or due stream solves.
    pub attempted: u64,
    /// Of those, failed jobs or failed solves.
    pub failed: u64,
    /// End-to-end metrics, or per-layer metrics for a traced run.
    pub metrics: Vec<Metric>,
    /// The end-to-end timings in wall-clock time, not normalized (empty
    /// for a traced run), and the median probe time.
    pub wall: Vec<Metric>,
    /// The inputs' FNV-64 digest.
    pub digest: u64,
    /// Latency samples behind the latency metrics (0 for a traced run).
    pub latency_samples: u64,
    /// Descriptions of the output checks that failed.
    pub check_failures: Vec<String>,
    /// The traced run's ledger.
    pub ledger: Option<Ledger>,
}

impl Report {
    /// A metric's value by name.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// One client call's result.
enum Outcome {
    Batch(Box<BatchOutcome>),
    Streams(Vec<Result<StreamOutcome, CoreError>>),
}

/// The client: calls the program's public entry point on pool round `i`.
fn call(engine: &Engine, rounds: &Rounds, i: usize) -> Outcome {
    match rounds {
        Rounds::Jobs(r) => Outcome::Batch(Box::new(engine.run(&r[i % r.len()]))),
        Rounds::Streams(r) => Outcome::Streams(engine.run_streams(&r[i % r.len()])),
    }
}

/// Counts accumulated over client calls.
#[derive(Debug, Clone, Default)]
struct Tally {
    /// Σ normalized ns spent inside client calls.
    call_ns: f64,
    /// Σ wall-clock ns spent inside client calls.
    wall_ns: f64,
    /// Localizations, calibrations, or stream reads offered.
    work: u64,
    attempted: u64,
    failed: u64,
    nonfinite: u64,
    solves: u64,
    equations: u64,
    irls_iterations: u64,
    /// Batch stage counters (adaptive sweep counts).
    stage: StageMetrics,
    streams: u64,
    reads_in: u64,
    shed: u64,
    late: u64,
    ticks: u64,
    delta_ticks: u64,
    rows_delta: u64,
    rebuilds: u64,
    fallbacks: u64,
}

impl Tally {
    /// Adds one call's outcome; pushes one error (mm) per scored estimate
    /// into `errors` when given.
    fn absorb(
        &mut self,
        outcome: &Outcome,
        rounds: &Rounds,
        i: usize,
        truths: &[Truth],
        mut errors: Option<&mut Vec<f64>>,
    ) {
        let finite = |p: Point3| p.x.is_finite() && p.y.is_finite() && p.z.is_finite();
        match (outcome, rounds) {
            (Outcome::Batch(out), Rounds::Jobs(_)) => {
                let total = &out.report.total;
                self.work += out.results.len() as u64;
                self.attempted += out.results.len() as u64;
                self.failed += out.report.failed;
                self.solves += total.solves;
                self.equations += total.equations;
                self.irls_iterations += total.irls_iterations;
                self.stage.merge(total);
                for (result, truth) in out.results.iter().zip(truths) {
                    let Ok(output) = result else { continue };
                    let position = output.position();
                    if !finite(position) {
                        self.nonfinite += 1;
                    } else if let Some(errors) = errors.as_deref_mut() {
                        errors.push(truth.error_mm(position));
                    }
                }
            }
            (Outcome::Streams(outs), Rounds::Streams(r)) => {
                let jobs = &r[i % r.len()];
                for ((result, truth), job) in outs.iter().zip(truths).zip(jobs) {
                    let out = match result {
                        Ok(out) => out,
                        Err(_) => {
                            self.failed += 1;
                            continue;
                        }
                    };
                    let ticks = out.estimates.len() as u64;
                    self.streams += 1;
                    self.work += out.reads_in;
                    self.reads_in += out.reads_in;
                    self.shed += out.overflow_dropped;
                    self.late += out.late_rejected;
                    self.ticks += ticks;
                    self.attempted += ticks + out.solve_errors;
                    self.failed += out.solve_errors;
                    self.solves += ticks + out.solve_errors;
                    self.rows_delta += out.resolve_rows_delta;
                    self.rebuilds += out.resolve_rebuilds;
                    self.fallbacks += out.resolve_fallbacks;
                    for estimate in &out.estimates {
                        self.equations += estimate.batch.equation_count as u64;
                        self.irls_iterations += estimate.batch.iterations as u64;
                        if estimate.resolve_path == ResolvePath::Incremental {
                            self.delta_ticks += 1;
                        }
                        if !finite(estimate.position) {
                            self.nonfinite += 1;
                        } else if estimate.window_len == job.config.window_capacity {
                            // Steady state: scored once the window is full.
                            if let Some(errors) = errors.as_deref_mut() {
                                errors.push(truth.error_mm(estimate.position));
                            }
                        }
                    }
                }
            }
            _ => unreachable!("outcome kind follows the rounds kind"),
        }
    }

    /// Adds one call's time.
    fn clock(&mut self, lap: Lap) {
        self.call_ns += lap.ns();
        self.wall_ns += lap.wall_ns;
    }

    fn throughput(&self) -> f64 {
        ratio(self.work as f64, self.call_ns / 1e9)
    }

    fn wall_throughput(&self) -> f64 {
        ratio(self.work as f64, self.wall_ns / 1e9)
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Latencies one closed loop measured, in ns.
#[derive(Debug, Default)]
struct Latencies {
    /// One per client call, normalized.
    calls: Vec<f64>,
    /// One per client call, wall clock.
    wall_calls: Vec<f64>,
    /// One per stream estimate: the program's read → estimate lag, each
    /// call's share scaled by that call's host-speed scale.
    lag: Histogram,
    /// Median probe time over the loop.
    probe_p50_ns: f64,
}

/// The program's stream-lag histogram as it stands.
fn lag_histogram() -> Histogram {
    lion_obs::global()
        .snapshot()
        .histogram(STREAM_LAG_HISTOGRAM)
        .cloned()
        .unwrap_or_default()
}

/// Runs back-to-back client calls for `seconds`, cycling through the pool.
/// The first time a pool round runs, its scored errors land in
/// `errors[round]`.
fn closed_loop(
    engine: &Engine,
    rounds: &Rounds,
    truths: &[Vec<Truth>],
    seconds: f64,
    tally: &mut Tally,
    errors: &mut [Option<Vec<f64>>],
) -> Latencies {
    let streams = matches!(rounds, Rounds::Streams(_));
    let mut latencies = Latencies::default();
    let mut lag_seen = if streams {
        lag_histogram()
    } else {
        Histogram::new()
    };
    let mut watch = Stopwatch::start();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        let round = i % rounds.len();
        let (outcome, lap) = watch.time(|| call(engine, rounds, round));
        latencies.calls.push(lap.ns());
        latencies.wall_calls.push(lap.wall_ns);
        tally.clock(lap);
        if streams {
            let lag = lag_histogram();
            add_scaled_delta(&mut latencies.lag, &lag_seen, &lag, lap.scale);
            lag_seen = lag;
        }
        let mut fresh = errors[round].is_none().then(Vec::new);
        tally.absorb(&outcome, rounds, round, &truths[round], fresh.as_mut());
        if fresh.is_some() {
            errors[round] = fresh;
        }
        i += 1;
    }
    latencies.probe_p50_ns = median(watch.probes());
    latencies
}

/// Inputs, engine and (for portals) the observability plane, warmed up.
struct Prepared {
    inputs: Inputs,
    engine: Engine,
    hub: Option<Arc<TelemetryHub>>,
}

fn install_obs_plane() -> Arc<TelemetryHub> {
    let hub = lion_obs::install_telemetry_hub(SloConfig::default());
    hub.enable_history(HistoryConfig::default());
    hub
}

/// Set-up: input generation, engine and hub build, one untimed warm-up
/// round.
fn prepare(opts: &Options) -> Prepared {
    lion_obs::uninstall_telemetry_hub();
    let inputs = generate(opts.workload, opts.seed, opts.scale);
    let engine = Engine::builder()
        .workers(opts.workers)
        .build()
        .expect("at least one worker");
    let hub = (opts.workload == Workload::StreamPortal).then(install_obs_plane);
    drop(call(&engine, &inputs.rounds, 0));
    Prepared {
        inputs,
        engine,
        hub,
    }
}

/// Peak resident set size in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Set-up time (s) as the median over the timed set-ups.
struct SetupTimes {
    /// Normalized.
    normalized_s: f64,
    /// Wall clock.
    wall_s: f64,
}

/// Runs one workload and reports its metrics.
pub fn run(opts: &Options) -> Report {
    let mut normalized = Vec::with_capacity(opts.setups);
    let mut wall = Vec::with_capacity(opts.setups);
    let mut prepared = None;
    let mut watch = Stopwatch::start();
    for _ in 0..opts.setups.max(1) {
        drop(prepared.take());
        let (p, lap) = watch.time(|| prepare(opts));
        prepared = Some(p);
        normalized.push(lap.ns() / 1e9);
        wall.push(lap.wall_ns / 1e9);
    }
    let prepared = prepared.expect("at least one set-up");
    // Latency histograms start empty after warm-up.
    lion_obs::global().clear();
    let report = if opts.trace {
        traced(opts, &prepared)
    } else {
        let setup = SetupTimes {
            normalized_s: median(&normalized),
            wall_s: median(&wall),
        };
        end_to_end(opts, &prepared, setup)
    };
    lion_obs::uninstall_telemetry_hub();
    report
}

/// The latency quantiles reported.
const QUANTILES: [f64; 2] = [0.50, 0.90];

/// Latency (ns) at each of `QUANTILES`, and the sample count.
type Quantiles = ([f64; 2], u64);

fn call_quantiles(calls: &[f64]) -> Quantiles {
    (
        QUANTILES.map(|q| quantile(calls, q)),
        calls.len() as u64,
    )
}

fn lag_quantiles(lag: &Histogram) -> Quantiles {
    (
        QUANTILES.map(|q| histogram_quantile(lag, q)),
        lag.count(),
    )
}

fn end_to_end(opts: &Options, p: &Prepared, setup: SetupTimes) -> Report {
    let Prepared { inputs, engine, .. } = p;
    let rounds = &inputs.rounds;
    let mut tally = Tally::default();
    let mut errors = vec![None; rounds.len()];
    let latencies = closed_loop(
        engine,
        rounds,
        &inputs.truths,
        opts.seconds,
        &mut tally,
        &mut errors,
    );
    // Batch latency is the client's call time; stream latency is the
    // program's own read → estimate lag, queue wait included.
    let ((quantiles, samples), (wall_quantiles, _)) = if opts.workload.is_stream() {
        (lag_quantiles(&latencies.lag), lag_quantiles(&lag_histogram()))
    } else {
        (
            call_quantiles(&latencies.calls),
            call_quantiles(&latencies.wall_calls),
        )
    };
    let mut metrics = timing_metrics(setup.normalized_s, tally.throughput(), quantiles);
    let mut wall = timing_metrics(setup.wall_s, tally.wall_throughput(), wall_quantiles);
    wall.push(metric("probe_p50_ns", latencies.probe_p50_ns, "ns"));
    // Rounds the loop never reached still count toward accuracy, so the
    // error median covers the whole pool whatever the machine's speed.
    for (round, slot) in errors.iter_mut().enumerate() {
        if slot.is_none() {
            let mut found = Vec::new();
            let outcome = call(engine, rounds, round);
            tally.absorb(
                &outcome,
                rounds,
                round,
                &inputs.truths[round],
                Some(&mut found),
            );
            *slot = Some(found);
        }
    }
    let errors: Vec<f64> = errors.into_iter().flatten().flatten().collect();
    let error_p50 = median(&errors);
    metrics.extend([
        metric("error_p50_mm", error_p50, "mm"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]);
    let mut checks = output_checks(opts.workload, &tally, &errors, error_p50);
    for m in &metrics {
        if !(m.value.is_finite() && m.value > 0.0) {
            checks.push(format!(
                "{} is {} (must be finite and positive)",
                m.name, m.value
            ));
        }
    }
    Report {
        correct: checks.is_empty(),
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        wall,
        digest: inputs.digest,
        latency_samples: samples,
        check_failures: checks,
        ledger: None,
    }
}

/// The timing metrics, from set-up seconds, throughput and latency
/// quantiles in ns.
fn timing_metrics(setup_s: f64, throughput: f64, [p50, p90]: [f64; 2]) -> Vec<Metric> {
    vec![
        metric("setup_s", setup_s, "s"),
        metric("throughput_per_s", throughput, "1/s"),
        metric("latency_p50_us", p50 / 1e3, "us"),
        metric("latency_p90_us", p90 / 1e3, "us"),
    ]
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
    }
}

/// The output checks every run makes: nothing failed, every estimate is
/// finite, and the median error is under the workload's sanity ceiling.
fn output_checks(workload: Workload, tally: &Tally, errors: &[f64], error_p50: f64) -> Vec<String> {
    let mut checks = Vec::new();
    if tally.failed > 0 {
        checks.push(format!(
            "{} of {} operations failed",
            tally.failed, tally.attempted
        ));
    }
    if tally.nonfinite > 0 {
        checks.push(format!("{} non-finite estimates", tally.nonfinite));
    }
    if errors.is_empty() {
        checks.push("no estimate was scored against the planted truth".to_string());
    } else if !error_p50.is_finite() || error_p50 > workload.error_ceiling_mm() {
        checks.push(format!(
            "error_p50_mm {error_p50:.3} above the {} mm ceiling",
            workload.error_ceiling_mm()
        ));
    }
    checks
}

/// Spans that are job roots: everything else the program closes is a
/// pipeline stage.
const JOB_SPANS: [&str; 2] = ["engine.job", "lion.stream.job"];

fn traced(opts: &Options, p: &Prepared) -> Report {
    let Prepared {
        inputs,
        engine,
        hub,
    } = p;
    let rounds = &inputs.rounds;
    let truths = &inputs.truths;
    let mut errors = vec![None; rounds.len()];

    // Untraced reference throughput, and what the obs plane holds after it.
    let mut untraced = Tally::default();
    closed_loop(
        engine,
        rounds,
        truths,
        0.5 * opts.seconds,
        &mut untraced,
        &mut errors,
    );
    let render_ns = median_ns(21, || {
        let text = lion_obs::export::to_prometheus(&lion_obs::global().snapshot());
        std::hint::black_box(text);
    });
    let mut obs = ObsPlane::default();
    if let (Some(hub), Rounds::Streams(streams)) = (hub, rounds) {
        if let Some(tsdb) = hub.tsdb() {
            let stats = tsdb.stats();
            obs.tsdb_points = stats.inserted_points as f64;
            obs.tsdb_bytes = stats.bytes as f64;
            obs.tsdb_evicted = stats.evicted_points as f64;
        }
        obs.sample_tick_ns = median_ns(21, || {
            std::hint::black_box(hub.sample_tick());
        });
        // The same portals with the Doctor and the hub off.
        let bare = Rounds::Streams(
            streams
                .iter()
                .map(|jobs| {
                    jobs.iter()
                        .map(|job| StreamJob {
                            doctor: None,
                            ..job.clone()
                        })
                        .collect()
                })
                .collect(),
        );
        lion_obs::uninstall_telemetry_hub();
        let mut off = Tally::default();
        closed_loop(
            engine,
            &bare,
            truths,
            0.2 * opts.seconds,
            &mut off,
            &mut errors,
        );
        install_obs_plane();
        obs.hub_overhead_ratio = ratio(off.throughput(), untraced.throughput());
    }

    // The engine's scaling efficiency: a worker per core against one.
    let parallel = Engine::builder()
        .workers(nproc())
        .build()
        .expect("at least one worker");
    let mut tallies = [Tally::default(), Tally::default()];
    for (engine, tally) in [&parallel, &Engine::serial()].into_iter().zip(&mut tallies) {
        closed_loop(engine, rounds, truths, 0.2 * opts.seconds, tally, &mut errors);
    }
    let scaling = ratio(
        tallies[0].throughput(),
        nproc() as f64 * tallies[1].throughput(),
    );

    // Portals replay by design; one untimed incremental round prices the
    // O(delta) resolver on their reordered traffic.
    let resolve = match (opts.workload, rounds) {
        (Workload::StreamPortal, Rounds::Streams(r)) => {
            let incremental = Rounds::Streams(vec![r[0]
                .iter()
                .cloned()
                .map(|mut job| {
                    job.config.resolve_mode = ResolveMode::Incremental;
                    job
                })
                .collect()]);
            let mut t = Tally::default();
            t.absorb(
                &call(engine, &incremental, 0),
                &incremental,
                0,
                &truths[0],
                None,
            );
            Some(t)
        }
        _ => None,
    };

    // The traced rounds.
    let collector = Arc::new(SpanCollector::new());
    lion_obs::set_global_subscriber(collector.clone());
    // A discarded first traced round pays the workers' one-time trace
    // state set-up.
    drop(call(engine, rounds, 0));
    collector.take();
    let mut traced = Tally::default();
    let mut watch = Stopwatch::start();
    for round in 0..TRACED_ROUNDS {
        let i = round % rounds.len();
        let (outcome, lap) = watch.time(|| {
            let _span = lion_obs::span!(ROUND_SPAN);
            call(engine, rounds, i)
        });
        traced.clock(lap);
        traced.absorb(&outcome, rounds, i, &truths[i], None);
    }
    lion_obs::clear_global_subscriber();
    let ledger = Ledger::build(&collector.take());

    let (sample, config, dims) = kernel_input(rounds);
    let k = kernels::measure(&sample, &config, dims);

    let resolve = resolve.as_ref().unwrap_or(&traced);
    let solves = traced.solves as f64;
    let per_solve = |name: &str| ratio(ledger.get(name).exclusive_ns as f64, solves);
    let sweeps = ledger.get("lion.adaptive").count as f64;
    let st = &traced.stage;
    let window_reads = (traced.reads_in - traced.shed) as f64;
    let round_ns = ledger.get(ROUND_SPAN).elapsed_ns as f64;
    let job_ns: u64 = JOB_SPANS.iter().map(|n| ledger.get(n).elapsed_ns).sum();
    let stage_ns: u64 = ledger
        .by_name
        .iter()
        .filter(|(name, _)| **name != ROUND_SPAN && !JOB_SPANS.contains(name))
        .map(|(_, t)| t.exclusive_ns)
        .sum();
    let per_round = match rounds {
        Rounds::Jobs(r) => r[0].len(),
        Rounds::Streams(r) => r[0].len(),
    };
    let coverage = ratio(job_ns as f64, opts.workers.min(per_round) as f64 * round_ns);
    let waits: Vec<f64> = ledger.queue_waits_ns.iter().map(|&w| w as f64).collect();
    let per_count = |name: &str| {
        let t = ledger.get(name);
        ratio(t.exclusive_ns as f64, t.count as f64)
    };

    let mut metrics = vec![
        metric(
            "core.preprocess.unwrap_ns_per_solve",
            per_solve("lion.unwrap"),
            "ns",
        ),
        metric(
            "core.preprocess.smooth_ns_per_solve",
            per_solve("lion.smooth"),
            "ns",
        ),
        metric("core.pairs.ns_per_solve", per_solve("lion.pairs"), "ns"),
        metric(
            "core.pairs.equations_per_solve",
            ratio(traced.equations as f64, solves),
            "count",
        ),
        metric("core.solve.ns_per_solve", per_solve("lion.solve"), "ns"),
        metric(
            "core.solve.irls_iterations_per_solve",
            ratio(traced.irls_iterations as f64, solves),
            "count",
        ),
        metric("core.model.rows_ns", k.rows_ns, "ns"),
        metric("linalg.normal_irls_ns", k.normal_irls_ns, "ns"),
    ];
    for (name, ns, bytes) in &k.simd {
        metrics.push(metric(&format!("linalg.{name}_ns"), *ns, "ns"));
        metrics.push(metric(&format!("linalg.{name}_bytes"), *bytes, "B"));
    }
    metrics.extend([
        metric(
            "core.adaptive.exclusive_ns_per_sweep",
            per_count("lion.adaptive"),
            "ns",
        ),
        metric(
            "core.adaptive.trials_per_sweep",
            ratio(st.adaptive_trials as f64, sweeps),
            "count",
        ),
        metric(
            "core.adaptive.useful_ratio",
            ratio(
                st.adaptive_trials as f64,
                (st.adaptive_trials + st.adaptive_skipped) as f64,
            ),
            "ratio",
        ),
        metric(
            "core.adaptive.cells_reused_ratio",
            ratio(st.adaptive_cells_reused as f64, st.adaptive_trials as f64),
            "ratio",
        ),
        metric(
            "core.adaptive.gram_rebuilds_per_sweep",
            ratio(st.adaptive_gram_rebuilds as f64, sweeps),
            "count",
        ),
        metric(
            "core.resolve.fast_ratio",
            ratio(resolve.delta_ticks as f64, resolve.ticks as f64),
            "ratio",
        ),
        metric(
            "core.resolve.rows_delta_per_tick",
            ratio(resolve.rows_delta as f64, resolve.delta_ticks as f64),
            "count",
        ),
        metric(
            "core.resolve.rebuilds_per_stream",
            ratio(resolve.rebuilds as f64, resolve.streams as f64),
            "count",
        ),
        metric(
            "core.resolve.fallbacks_per_stream",
            ratio(resolve.fallbacks as f64, resolve.streams as f64),
            "count",
        ),
        metric(
            "core.window.ns_per_read",
            ratio(
                ledger.get("lion.stream.window").exclusive_ns as f64,
                window_reads,
            ),
            "ns",
        ),
        metric(
            "core.window.late_ratio",
            ratio(traced.late as f64, window_reads),
            "ratio",
        ),
        metric(
            "stream.ingress.ns_per_read",
            ratio(
                ledger.get("lion.stream.ingress").exclusive_ns as f64,
                traced.reads_in as f64,
            ),
            "ns",
        ),
        metric(
            "stream.ingress.shed_ratio",
            ratio(traced.shed as f64, traced.reads_in as f64),
            "ratio",
        ),
        metric(
            "stream.estimator.ns_per_tick",
            ratio(
                ledger.get("lion.stream.solve").exclusive_ns as f64,
                traced.ticks as f64,
            ),
            "ns",
        ),
        metric("engine.job_ns_per_job", per_count("engine.job"), "ns"),
        metric(
            "engine.stream_job_ns_per_stream",
            per_count("lion.stream.job"),
            "ns",
        ),
        metric(
            "engine.queue_wait_p99_us",
            quantile(&waits, 0.99) / 1e3,
            "us",
        ),
        metric(
            "engine.busy_ratio",
            ratio(stage_ns as f64, job_ns as f64),
            "ratio",
        ),
        metric("engine.scaling_efficiency", scaling, "ratio"),
        metric("obs.hub_overhead_ratio", obs.hub_overhead_ratio, "ratio"),
        metric("obs.render_ns", render_ns, "ns"),
        metric("obs.sample_tick_ns", obs.sample_tick_ns, "ns"),
        metric("obs.tsdb_points", obs.tsdb_points, "count"),
        metric("obs.tsdb_bytes", obs.tsdb_bytes, "B"),
        metric("obs.tsdb_evicted", obs.tsdb_evicted, "count"),
        metric(
            "trace.overhead_ratio",
            ratio(untraced.throughput(), traced.throughput()),
            "ratio",
        ),
        metric(
            "trace.spans",
            ledger.spans as f64 / TRACED_ROUNDS as f64,
            "count",
        ),
        metric("trace.coverage", coverage, "ratio"),
    ]);

    let scored: Vec<f64> = errors.into_iter().flatten().flatten().collect();
    let mut checks = output_checks(opts.workload, &untraced, &scored, median(&scored));
    if !ledger.identity_holds() {
        checks.push(format!(
            "ledger identity broken: exclusive {} ns vs root {} ns, {} orphans, {} overfull",
            ledger.exclusive_ns, ledger.root_elapsed_ns, ledger.orphans, ledger.overfull
        ));
    }
    for m in &metrics {
        if !m.value.is_finite() {
            checks.push(format!("{} is not finite", m.name));
        }
    }
    Report {
        correct: checks.is_empty(),
        attempted: untraced.attempted,
        failed: untraced.failed,
        metrics,
        wall: Vec::new(),
        digest: inputs.digest,
        latency_samples: 0,
        check_failures: checks,
        ledger: Some(ledger),
    }
}

/// The observability plane's per-layer figures; zero without a hub.
#[derive(Debug, Default)]
struct ObsPlane {
    tsdb_points: f64,
    tsdb_bytes: f64,
    tsdb_evicted: f64,
    sample_tick_ns: f64,
    hub_overhead_ratio: f64,
}

/// The first job's trace, as the kernels see it: the whole trace for a
/// batch job, one full window for a stream.
fn kernel_input(rounds: &Rounds) -> (Vec<(Point3, f64)>, lion_core::LocalizerConfig, usize) {
    match rounds {
        Rounds::Jobs(r) => {
            let job = &r[0][0];
            let dims = if matches!(job.kind, JobKind::Locate2d | JobKind::Adaptive2d(_)) {
                2
            } else {
                3
            };
            (job.measurements.clone(), job.config.clone(), dims)
        }
        Rounds::Streams(r) => {
            let job = &r[0][0];
            let mut window: Vec<_> = job
                .reads
                .iter()
                .take(job.config.window_capacity)
                .copied()
                .collect();
            window.sort_by(|a, b| a.time.total_cmp(&b.time));
            let dims = match job.config.space {
                Space::TwoD => 2,
                _ => 3,
            };
            (
                window.iter().map(|r| (r.position, r.phase)).collect(),
                job.config.localizer.clone(),
                dims,
            )
        }
    }
}
