//! The online calibration pipeline: reads in, estimates out.

use std::time::Instant;

use lion_core::calibrate::estimate_offset;
use lion_core::{
    CoreError, Estimate, IncrementalState, Localizer, PushOutcome, ResolvePath, SlidingWindow,
    Workspace,
};
use lion_geom::Point3;
use lion_obs::HistogramTimer;

use crate::config::{Cadence, ResolveMode, StreamConfig};
use crate::convergence::ConvergenceTracker;
use crate::read::StreamRead;

/// Histogram name for end-to-end read→estimate latency (nanoseconds):
/// the time from a read's arrival (its [`Instant`] at ingress) to the
/// emission of the estimate it triggered.
pub const STREAM_LAG_HISTOGRAM: &str = "lion.stream.stream_lag_ns";

/// Histogram name for the solve-only latency (nanoseconds).
pub const SOLVE_HISTOGRAM: &str = "lion.stream.solve_ns";

/// One emission of the streaming pipeline.
#[derive(Debug, Clone)]
pub struct StreamEstimate {
    /// Emission sequence number, starting at 0.
    pub seq: u64,
    /// Stream timestamp of the read that triggered this solve.
    pub trigger_time: f64,
    /// Total reads offered to the pipeline so far (accepted or not).
    pub reads_seen: u64,
    /// Reads in the window at solve time.
    pub window_len: usize,
    /// Stream-time span of the window (newest − oldest timestamp) — the
    /// online analogue of the paper's scanning range.
    pub window_span: f64,
    /// Estimated antenna phase-center position.
    pub position: Point3,
    /// Estimated reference distance `d_r` (meters).
    pub d_r: f64,
    /// Diversity-phase offset `θ_div` estimated against `position`
    /// (radians), `None` when the offset fit was degenerate — and always
    /// `None` on incremental delta ticks, which skip the O(window) offset
    /// fit to stay O(delta) (every resync/fallback tick refreshes it).
    pub phase_offset: Option<f64>,
    /// Circular spread of the per-sample offsets (radians), `None`
    /// whenever `phase_offset` is.
    pub offset_spread: Option<f64>,
    /// Mean equation residual of the underlying solve (meters).
    pub mean_residual: f64,
    /// Heuristic confidence in `[0, 1]`: the window fill fraction damped
    /// by the solve residual (`fill · exp(−|mean_residual| / (λ/8))`).
    /// Comparable across solves of one stream, not across configs.
    pub confidence: f64,
    /// Convergence verdict under the configured hysteresis.
    pub converged: bool,
    /// Which path produced this emission. Always
    /// [`ResolvePath::Replayed`] in [`ResolveMode::Replay`];
    /// in [`ResolveMode::Incremental`] a `Replayed` tick is a resync or
    /// deterministic fallback.
    pub resolve_path: ResolvePath,
    /// The full solver estimate this emission is derived from. On
    /// [`ResolvePath::Replayed`] ticks it is bit-identical to running the
    /// batch localizer on the window's reads; on
    /// [`ResolvePath::Incremental`] ticks the position agrees with that
    /// replay to a documented 1e-6 (DESIGN.md §14).
    pub batch: Estimate,
}

/// Online calibration: feed reads one at a time, get a stream of
/// [`StreamEstimate`]s re-solved on the configured cadence.
///
/// Memory is O(window): the sliding window and every scratch buffer are
/// allocated once and reused — an arbitrarily long stream does not grow
/// the pipeline (see `backing_capacity`-pinning tests).
///
/// In the default [`ResolveMode::Replay`] a solve replays the window
/// through the **exact same** code path as the batch localizer, so a
/// streaming estimate on a static window is bit-identical to
/// [`lion_core::Localizer::locate`] on the same reads (see
/// `tests/stream_parity.rs`). [`ResolveMode::Incremental`] trades that
/// guarantee down to a documented 1e-6 on delta ticks in exchange for
/// O(delta) work per solve; fallback ticks remain bit-identical.
///
/// # Example
///
/// ```
/// use lion_stream::{StreamConfig, StreamLocalizer, StreamRead};
/// use lion_geom::Point3;
/// use std::f64::consts::{PI, TAU};
///
/// # fn main() -> Result<(), lion_core::CoreError> {
/// let antenna = Point3::new(1.2, 0.4, 0.0);
/// let config = StreamConfig::default();
/// let lambda = config.localizer.wavelength;
/// let mut stream = StreamLocalizer::new(config)?;
/// let mut last = None;
/// for i in 0..400 {
///     // Circular scan, 120 reads per revolution.
///     let a = i as f64 * TAU / 120.0;
///     let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
///     let read = StreamRead {
///         time: i as f64 * 0.01,
///         position: p,
///         phase: (4.0 * PI * antenna.distance(p) / lambda) % TAU,
///         ..StreamRead::default()
///     };
///     if let Some(est) = stream.push(read)? {
///         last = Some(est);
///     }
/// }
/// let est = last.expect("cadence emitted estimates");
/// assert!(est.position.distance(antenna) < 5e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct StreamLocalizer {
    config: StreamConfig,
    /// The batch localizer every replay solve runs:
    /// [`StreamConfig::localizer`] in [`StreamConfig::space`].
    localizer: Localizer,
    /// Persistent O(delta) re-solve state; `Some` iff the configured
    /// resolve mode is [`ResolveMode::Incremental`].
    resolve: Option<IncrementalState>,
    window: SlidingWindow,
    workspace: Workspace,
    /// Scratch for the phase-offset fit; reused across solves.
    measurements: Vec<(Point3, f64)>,
    tracker: ConvergenceTracker,
    reads_seen: u64,
    accepted: u64,
    reads_since_solve: usize,
    last_solve_time: Option<f64>,
    seq: u64,
    solve_errors: u64,
    resolve_fallbacks: u64,
}

impl StreamLocalizer {
    /// Builds the pipeline, validating `config` and pre-allocating the
    /// window.
    ///
    /// # Errors
    ///
    /// See [`StreamConfig::validate`].
    pub fn new(config: StreamConfig) -> Result<Self, CoreError> {
        config.validate()?;
        let localizer = Localizer::new(config.localizer.clone(), config.space);
        let resolve = match config.resolve_mode {
            ResolveMode::Incremental => Some(IncrementalState::new(localizer.clone())),
            _ => None,
        };
        let window = SlidingWindow::new(config.window_capacity)?;
        Ok(StreamLocalizer {
            tracker: ConvergenceTracker::new(config.convergence),
            measurements: Vec::with_capacity(config.window_capacity),
            config,
            localizer,
            resolve,
            window,
            workspace: Workspace::new(),
            reads_seen: 0,
            accepted: 0,
            reads_since_solve: 0,
            last_solve_time: None,
            seq: 0,
            solve_errors: 0,
            resolve_fallbacks: 0,
        })
    }

    /// Feeds one read, stamping its arrival time now. Returns an estimate
    /// when this read triggered a solve under the configured cadence.
    ///
    /// # Errors
    ///
    /// Propagates the solver's [`CoreError`] when a due solve fails (the
    /// pipeline stays usable — the window and cadence state are intact,
    /// and the failure is counted in [`StreamLocalizer::solve_errors`]).
    pub fn push(&mut self, read: StreamRead) -> Result<Option<StreamEstimate>, CoreError> {
        self.push_at(read, Instant::now())
    }

    /// [`StreamLocalizer::push`] with an explicit arrival instant —
    /// callers that queue reads (the engine's stream mode) pass the
    /// *enqueue* time so the `lion.stream.stream_lag_ns` histogram
    /// captures queue wait as well as solve latency.
    pub fn push_at(
        &mut self,
        read: StreamRead,
        arrival: Instant,
    ) -> Result<Option<StreamEstimate>, CoreError> {
        self.reads_seen += 1;
        let outcome = {
            // Window maintenance (ordered insert, eviction, late
            // rejection) as its own stage in the solve's span tree.
            let _span = lion_obs::span!("lion.stream.window");
            self.window.push(read.time, read.position, read.phase)
        };
        match outcome {
            PushOutcome::TooLate | PushOutcome::NonFinite => return Ok(None),
            PushOutcome::Inserted | PushOutcome::Evicted => {}
        }
        self.accepted += 1;
        self.reads_since_solve += 1;
        if !self.due(read.time) {
            return Ok(None);
        }
        self.reads_since_solve = 0;
        self.last_solve_time = Some(read.time);
        self.solve(read.time, Some(arrival)).map(Some)
    }

    /// Whether the cadence calls for a solve at stream time `now`.
    fn due(&self, now: f64) -> bool {
        if self.window.len() < self.config.min_window_len {
            return false;
        }
        match self.config.cadence {
            // The counter runs from stream start, so the first solve
            // lands at max(min_window_len, n) accepted reads.
            Cadence::EveryReads(n) => self.reads_since_solve >= n,
            Cadence::EverySeconds(t) => match self.last_solve_time {
                Some(last) => now - last >= t,
                None => true,
            },
        }
    }

    /// Forces a solve on the current window regardless of cadence —
    /// e.g. at end-of-stream, to consume reads that arrived after the
    /// last scheduled solve. Returns `Ok(None)` on an empty window.
    ///
    /// # Errors
    ///
    /// Propagates the solver's [`CoreError`] (e.g.
    /// [`CoreError::TooFewMeasurements`] on a nearly empty window).
    pub fn flush(&mut self) -> Result<Option<StreamEstimate>, CoreError> {
        let Some(newest) = self.window.samples().last().map(|s| s.time) else {
            return Ok(None);
        };
        self.reads_since_solve = 0;
        self.last_solve_time = Some(newest);
        self.solve(newest, None).map(Some)
    }

    fn solve(
        &mut self,
        trigger_time: f64,
        arrival: Option<Instant>,
    ) -> Result<StreamEstimate, CoreError> {
        let _span = lion_obs::span!("lion.stream.solve");
        let solve_timer = HistogramTimer::start(lion_obs::global(), SOLVE_HISTOGRAM);
        let solved = match self.resolve.as_mut() {
            Some(state) => state.solve_window(&mut self.window, &mut self.workspace),
            None => self
                .localizer
                .locate_window_in(&self.window, &mut self.workspace)
                .map(|est| (est, ResolvePath::Replayed)),
        };
        // Tags the latency with the ambient trace id (when tracing is
        // attached) so histogram exemplars link slow solves to their
        // flight-recorder span trees.
        solve_timer.stop_traced();
        let (batch, resolve_path) = match solved {
            Ok(solved) => solved,
            Err(e) => {
                self.solve_errors += 1;
                lion_obs::global().counter_add("lion.stream.solve_errors", 1);
                lion_obs::event!(
                    lion_obs::Level::Warn,
                    "lion.stream.solve_failed",
                    "kind" => e.kind(),
                    "window_len" => self.window.len() as u64,
                );
                return Err(e);
            }
        };
        let mode_counter = match (self.config.resolve_mode, resolve_path) {
            (ResolveMode::Incremental, ResolvePath::Incremental) => {
                "lion.stream.resolve_mode.incremental"
            }
            (ResolveMode::Incremental, ResolvePath::Replayed) => {
                self.resolve_fallbacks += 1;
                "lion.stream.resolve_mode.fallback"
            }
            _ => "lion.stream.resolve_mode.replay",
        };
        lion_obs::global().counter_add(mode_counter, 1);
        // Diversity-phase offset against the solved phase center, on the
        // very same wrapped reads the solve consumed — skipped on delta
        // ticks: the fit walks the whole window, which would erase the
        // O(delta) budget. Every resync/fallback tick refreshes it.
        let offset = if resolve_path == ResolvePath::Incremental {
            None
        } else {
            self.window.write_measurements_into(&mut self.measurements);
            estimate_offset(
                &self.measurements,
                batch.position,
                self.config.localizer.wavelength,
            )
            .ok()
        };
        let converged = self.tracker.observe(batch.position);
        let fill = self.window.len() as f64 / self.window.capacity() as f64;
        let residual_scale = self.config.localizer.wavelength / 8.0;
        let confidence =
            (fill * (-batch.mean_residual.abs() / residual_scale).exp()).clamp(0.0, 1.0);
        let estimate = StreamEstimate {
            seq: self.seq,
            trigger_time,
            reads_seen: self.reads_seen,
            window_len: self.window.len(),
            window_span: self.window.span(),
            position: batch.position,
            d_r: batch.reference_distance,
            phase_offset: offset.map(|(o, _)| o),
            offset_spread: offset.map(|(_, s)| s),
            mean_residual: batch.mean_residual,
            confidence,
            converged,
            resolve_path,
            batch,
        };
        self.seq += 1;
        if let Some(arrival) = arrival {
            let lag = u64::try_from(arrival.elapsed().as_nanos()).unwrap_or(u64::MAX);
            lion_obs::global().histogram_record(STREAM_LAG_HISTOGRAM, lag);
        }
        lion_obs::event!(
            lion_obs::Level::Debug,
            "lion.stream.estimate",
            "seq" => estimate.seq,
            "window_len" => estimate.window_len as u64,
            "converged" => estimate.converged,
        );
        Ok(estimate)
    }

    /// The configuration this pipeline runs.
    pub fn config(&self) -> &StreamConfig {
        &self.config
    }

    /// The sliding window (inspect fill, span, eviction counters).
    pub fn window(&self) -> &SlidingWindow {
        &self.window
    }

    /// Total reads offered (accepted or not).
    pub fn reads_seen(&self) -> u64 {
        self.reads_seen
    }

    /// Reads accepted into the window (inserted or evicting).
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Reads rejected as too late to matter (window slid past them).
    pub fn rejected_late(&self) -> u64 {
        self.window.rejected_late()
    }

    /// Reads rejected for a NaN or infinite time, position or phase.
    pub fn rejected_non_finite(&self) -> u64 {
        self.window.rejected_non_finite()
    }

    /// Estimates emitted so far.
    pub fn estimates_emitted(&self) -> u64 {
        self.seq
    }

    /// Due solves that failed (the error was returned to the caller).
    pub fn solve_errors(&self) -> u64 {
        self.solve_errors
    }

    /// The configured resolve mode (replay vs incremental).
    pub fn resolve_mode(&self) -> ResolveMode {
        self.config.resolve_mode
    }

    /// Normal-equation rows touched by incremental delta ticks (removed +
    /// replaced + pushed) — the O(delta) work metric. Zero in
    /// [`ResolveMode::Replay`].
    pub fn resolve_rows_delta(&self) -> u64 {
        self.resolve.as_ref().map_or(0, |s| s.rows_delta())
    }

    /// Full state rebuilds in incremental mode (initial warm-up, periodic
    /// re-anchors, and fallbacks). Zero in [`ResolveMode::Replay`].
    pub fn resolve_rebuilds(&self) -> u64 {
        self.resolve.as_ref().map_or(0, |s| s.rebuilds())
    }

    /// Emitted solves that fell back to (or resynced via) the replay path
    /// while in [`ResolveMode::Incremental`]. Zero in
    /// [`ResolveMode::Replay`], where every solve replays by design.
    pub fn resolve_fallbacks(&self) -> u64 {
        self.resolve_fallbacks
    }

    /// Solves whose IRLS stopped at its iteration cap without meeting
    /// its tolerance (their estimate is the last iterate), replay and
    /// delta ticks alike.
    pub fn irls_unconverged(&self) -> u64 {
        self.workspace.metrics().irls_unconverged
    }

    /// Current convergence verdict.
    pub fn is_converged(&self) -> bool {
        self.tracker.is_converged()
    }

    /// Empties the window and resets cadence/convergence state (lifetime
    /// counters are kept) — e.g. when the stream switches tags.
    pub fn reset(&mut self) {
        self.window.clear();
        if let Some(state) = self.resolve.as_mut() {
            state.invalidate();
        }
        self.tracker.reset();
        self.reads_since_solve = 0;
        self.last_solve_time = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConvergenceConfig;
    use std::f64::consts::{PI, TAU};

    /// A noise-free circular scan (radius 0.3 m, 120 reads/revolution,
    /// 10 ms read spacing) — enough spatial span for the default 0.2 m
    /// pair interval by the default 24-read minimum window.
    fn clean_read(antenna: Point3, i: usize, lambda: f64) -> StreamRead {
        let a = i as f64 * TAU / 120.0;
        let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
        StreamRead {
            time: i as f64 * 0.01,
            position: p,
            phase: (4.0 * PI * antenna.distance(p) / lambda) % TAU,
            ..StreamRead::default()
        }
    }

    fn run_stream(config: StreamConfig, n: usize) -> (StreamLocalizer, Vec<StreamEstimate>) {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let lambda = config.localizer.wavelength;
        let mut stream = StreamLocalizer::new(config).expect("valid config");
        let mut estimates = Vec::new();
        for i in 0..n {
            if let Some(est) = stream.push(clean_read(antenna, i, lambda)).expect("solves") {
                estimates.push(est);
            }
        }
        (stream, estimates)
    }

    #[test]
    fn huge_finite_phase_does_not_stall_the_stream() {
        // One hostile read between clean ones: every push must return
        // (the read may fail its solve) in both resolve modes. The pushes
        // run on their own thread so a stall fails the test instead of
        // hanging it (the stalled thread is left behind).
        for mode in [ResolveMode::Replay, ResolveMode::Incremental] {
            let (done, finished) = std::sync::mpsc::channel();
            let worker = std::thread::spawn(move || {
                let config = StreamConfig::builder()
                    .resolve_mode(mode)
                    .cadence(Cadence::EveryReads(1))
                    .build()
                    .unwrap();
                let antenna = Point3::new(1.2, 0.4, 0.0);
                let lambda = config.localizer.wavelength;
                let mut stream = StreamLocalizer::new(config).expect("valid config");
                for i in 0..300 {
                    let mut read = clean_read(antenna, i, lambda);
                    if i == 150 {
                        read.phase = 1e300;
                    }
                    let _ = stream.push(read);
                }
                let _ = done.send(());
                stream.reads_seen()
            });
            let waited = finished.recv_timeout(std::time::Duration::from_secs(10));
            if let Err(std::sync::mpsc::RecvTimeoutError::Timeout) = waited {
                panic!("{mode:?}: a push did not return within 10 s");
            }
            assert_eq!(worker.join().expect("worker panicked"), 300, "{mode:?}");
        }
    }

    #[test]
    fn cadence_every_reads_emits_on_schedule() {
        let config = StreamConfig::builder()
            .min_window_len(24)
            .cadence(Cadence::EveryReads(10))
            .build()
            .unwrap();
        let (_, estimates) = run_stream(config, 100);
        // First solve at read 24 (min window), then every 10 reads.
        let triggers: Vec<u64> = estimates.iter().map(|e| e.reads_seen).collect();
        assert_eq!(triggers, vec![24, 34, 44, 54, 64, 74, 84, 94]);
        for (i, est) in estimates.iter().enumerate() {
            assert_eq!(est.seq, i as u64);
        }
    }

    #[test]
    fn cadence_every_seconds_uses_stream_time() {
        let config = StreamConfig::builder()
            .min_window_len(24)
            .cadence(Cadence::EverySeconds(0.30))
            .build()
            .unwrap();
        // Reads at 10 ms spacing: first solve at the 24th read (0.23 s),
        // then every 30 reads (0.30 s of stream time).
        let (_, estimates) = run_stream(config, 120);
        let triggers: Vec<u64> = estimates.iter().map(|e| e.reads_seen).collect();
        assert_eq!(triggers, vec![24, 54, 84, 114]);
    }

    #[test]
    fn incremental_mode_emits_delta_ticks_and_counts_work() {
        let config = StreamConfig::builder()
            .resolve_mode(ResolveMode::Incremental)
            .build()
            .unwrap();
        let (stream, estimates) = run_stream(config, 400);
        assert_eq!(stream.resolve_mode(), ResolveMode::Incremental);
        assert!(!estimates.is_empty());
        // The first tick warms the state via replay; the steady state is
        // delta ticks (in-order arrivals, cadence 16 << window 256).
        assert_eq!(estimates[0].resolve_path, ResolvePath::Replayed);
        let incremental = estimates
            .iter()
            .filter(|e| e.resolve_path == ResolvePath::Incremental)
            .count();
        assert!(
            incremental >= estimates.len() / 2,
            "expected mostly delta ticks, got {incremental}/{}",
            estimates.len()
        );
        assert!(stream.resolve_rows_delta() > 0);
        assert!(stream.resolve_rebuilds() >= 1);
        assert!(stream.resolve_fallbacks() >= 1);
        // Delta ticks skip the O(window) offset fit; fallback ticks run it.
        for est in &estimates {
            if est.resolve_path == ResolvePath::Incremental {
                assert!(est.phase_offset.is_none());
                assert!(est.offset_spread.is_none());
            }
        }
        // And the positions still track the antenna.
        let last = estimates.last().unwrap();
        assert!(last.position.distance(Point3::new(1.2, 0.4, 0.0)) < 5e-2);
    }

    #[test]
    fn replay_mode_reports_no_incremental_work() {
        let (stream, estimates) = run_stream(StreamConfig::default(), 200);
        assert_eq!(stream.resolve_mode(), ResolveMode::Replay);
        assert!(estimates
            .iter()
            .all(|e| e.resolve_path == ResolvePath::Replayed));
        assert_eq!(stream.resolve_rows_delta(), 0);
        assert_eq!(stream.resolve_rebuilds(), 0);
        assert_eq!(stream.resolve_fallbacks(), 0);
    }

    #[test]
    fn estimates_converge_on_a_clean_linear_scan() {
        let config = StreamConfig::builder()
            .convergence(ConvergenceConfig {
                enter_eps: 5e-3,
                exit_eps: 2e-2,
                hold: 2,
            })
            .build()
            .unwrap();
        let (stream, estimates) = run_stream(config, 400);
        let last = estimates.last().expect("estimates emitted");
        assert!(last.converged, "clean scan should converge");
        assert!(stream.is_converged());
        assert!(last.position.distance(Point3::new(1.2, 0.4, 0.0)) < 5e-2);
        assert!(last.confidence > 0.0 && last.confidence <= 1.0);
        assert!(last.window_span > 0.0);
    }

    #[test]
    fn phase_offset_recovered_on_offset_stream() {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let injected = 1.1_f64;
        // Clean data: smoothing off, so the position (and therefore the
        // offset fit against it) is exact.
        let localizer = lion_core::LocalizerConfig {
            smoothing_window: 1,
            ..Default::default()
        };
        let config = StreamConfig::builder()
            .localizer(localizer)
            .build()
            .unwrap();
        let lambda = config.localizer.wavelength;
        let mut stream = StreamLocalizer::new(config).unwrap();
        let mut last = None;
        for i in 0..400 {
            let mut read = clean_read(antenna, i, lambda);
            read.phase = (read.phase + injected).rem_euclid(TAU);
            if let Some(est) = stream.push(read).expect("solves") {
                last = Some(est);
            }
        }
        let est = last.expect("estimates emitted");
        // Offsets are recovered modulo 2π; compare on the circle.
        let got = est.phase_offset.expect("offset fit succeeds");
        let diff = (got - injected + PI).rem_euclid(TAU) - PI;
        assert!(diff.abs() < 1e-6, "offset {got} vs injected {injected}");
        assert!(est.offset_spread.expect("spread") < 1e-3);
    }

    #[test]
    fn flush_solves_pending_tail() {
        let config = StreamConfig::builder()
            .cadence(Cadence::EveryReads(1000))
            .build()
            .unwrap();
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let lambda = config.localizer.wavelength;
        let mut stream = StreamLocalizer::new(config).unwrap();
        for i in 0..200 {
            let emitted = stream.push(clean_read(antenna, i, lambda)).expect("ok");
            assert!(emitted.is_none(), "cadence of 1000 must not fire in 200");
        }
        let est = stream.flush().expect("solves").expect("window non-empty");
        assert!(est.position.distance(antenna) < 5e-2);
        assert_eq!(stream.estimates_emitted(), 1);
    }

    #[test]
    fn solve_failure_is_counted_and_pipeline_survives() {
        // A stationary tag gives zero trajectory span — degenerate.
        let config = StreamConfig::builder().min_window_len(8).build().unwrap();
        let mut stream = StreamLocalizer::new(config).unwrap();
        let mut failures = 0;
        for i in 0..16 {
            let read = StreamRead {
                time: i as f64,
                position: Point3::new(0.5, 0.0, 0.0),
                phase: 1.0,
                ..StreamRead::default()
            };
            if stream.push(read).is_err() {
                failures += 1;
            }
        }
        assert!(failures > 0, "degenerate window must fail to solve");
        assert_eq!(stream.solve_errors(), failures);
        // The pipeline is still usable afterwards. Early warm-up solves
        // (tiny spatial span) may still fail; the stream shrugs them off.
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let lambda = stream.config().localizer.wavelength;
        stream.reset();
        for i in 0..400 {
            let _ = stream.push(clean_read(antenna, i, lambda));
        }
        assert!(stream.estimates_emitted() > 0);
    }

    #[test]
    fn memory_stays_bounded_over_long_streams() {
        let config = StreamConfig::builder()
            .window_capacity(64)
            .min_window_len(24)
            .cadence(Cadence::EveryReads(50))
            .build()
            .unwrap();
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let lambda = config.localizer.wavelength;
        let mut stream = StreamLocalizer::new(config).unwrap();
        for i in 0..2_000 {
            let _ = stream.push(clean_read(antenna, i, lambda));
        }
        let warm_window = stream.window.backing_capacity();
        let warm_scratch = stream.measurements.capacity();
        for i in 2_000..30_000 {
            let _ = stream.push(clean_read(antenna, i, lambda));
        }
        assert_eq!(stream.window.backing_capacity(), warm_window);
        assert_eq!(stream.measurements.capacity(), warm_scratch);
        assert_eq!(stream.reads_seen(), 30_000);
    }
}
