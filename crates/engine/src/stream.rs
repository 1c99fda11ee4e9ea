//! Concurrent stream execution: many tag streams, one worker pool.
//!
//! A batch [`crate::Job`] is "here is a finished trace, locate it"; a
//! [`StreamJob`] is "here is a *live feed* of reads for one tag, keep a
//! running estimate". [`Engine::run_streams`] multiplexes any number of
//! such feeds across the same scoped worker pool as [`Engine::run`], one
//! stream per worker at a time, draining a shared atomic cursor.
//!
//! Each stream gets its own bounded [`Ingress`] queue between arrival and
//! solve — the per-stream backpressure. Reads arrive in bursts (a real
//! reader reports inventory rounds, not single tags); when a burst
//! overflows the queue, the **oldest queued** reads are shed, newest
//! kept. Both the burst schedule and the shed set are pure functions of
//! the job description, so outcomes are bit-identical across worker
//! counts and runs — see `tests/stream_backpressure.rs`.

use std::time::Instant;

use lion_core::{CoreError, ResolvePath};
use lion_obs::{Doctor, DoctorConfig, HealthReport, SolveObservation};
use lion_stream::{
    Ingress, ResolveMode, StreamConfig, StreamEstimate, StreamLocalizer, StreamRead,
};

use crate::engine::{fan_out, job_contexts, Engine};

/// One tag's read feed plus the pipeline and backpressure settings to
/// run it under.
#[derive(Debug, Clone)]
pub struct StreamJob {
    /// The reads, in arrival order (not necessarily timestamp order —
    /// the window re-sorts).
    pub reads: Vec<StreamRead>,
    /// Pipeline configuration.
    pub config: StreamConfig,
    /// Reads delivered per arrival burst (an inventory round). The queue
    /// is drained between bursts.
    pub burst: usize,
    /// Ingress queue capacity; a burst larger than this sheds its oldest
    /// queued reads deterministically.
    pub queue_capacity: usize,
    /// Whether to force a final solve on whatever the window holds after
    /// the feed ends (reads past the last cadence point).
    pub flush_at_end: bool,
    /// Optional calibration-health watchdogs: when set, a
    /// [`Doctor`] observes every solve and the outcome carries its
    /// [`HealthReport`].
    pub doctor: Option<DoctorConfig>,
}

impl StreamJob {
    /// A job with the default burst shape: bursts of 32 into a queue of
    /// 64, flushing at end-of-stream.
    pub fn new(reads: Vec<StreamRead>, config: StreamConfig) -> Self {
        StreamJob {
            reads,
            config,
            burst: 32,
            queue_capacity: 64,
            flush_at_end: true,
            doctor: None,
        }
    }

    /// Sets the arrival burst size.
    pub fn with_burst(mut self, burst: usize) -> Self {
        self.burst = burst;
        self
    }

    /// Sets the ingress queue capacity.
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity;
        self
    }

    /// Enables or disables the end-of-stream flush solve.
    pub fn with_flush_at_end(mut self, flush: bool) -> Self {
        self.flush_at_end = flush;
        self
    }

    /// Enables calibration-health watchdogs for this stream: a
    /// [`Doctor`] with `config` observes every solve (residual drift,
    /// convergence stalls, ingress shed rate, resolve fallbacks) and the outcome's [`StreamOutcome::health`]
    /// carries its report — a pure function of the job.
    pub fn with_doctor(mut self, config: DoctorConfig) -> Self {
        self.doctor = Some(config);
        self
    }

    /// Checks the job's invariants (burst ≥ 1; queue and pipeline config
    /// via their own validators).
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] naming the offending parameter.
    pub fn validate(&self) -> Result<(), CoreError> {
        if self.burst == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "burst",
                found: "0".to_string(),
            });
        }
        if self.queue_capacity == 0 {
            return Err(CoreError::InvalidConfig {
                parameter: "queue_capacity",
                found: "0".to_string(),
            });
        }
        self.config.validate()
    }
}

/// Everything one stream produced.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// Every estimate the pipeline emitted, in emission order.
    pub estimates: Vec<StreamEstimate>,
    /// Reads the feed offered.
    pub reads_in: u64,
    /// Reads shed by ingress backpressure (queue overflow, oldest-drop).
    pub overflow_dropped: u64,
    /// Reads rejected by the window as too late.
    pub late_rejected: u64,
    /// Reads rejected by the window for a NaN or infinite time, position
    /// or phase.
    pub non_finite_rejected: u64,
    /// Due solves that failed (counted, not fatal — the stream carries
    /// on; a window can be transiently degenerate).
    pub solve_errors: u64,
    /// Whether the stream ended in the converged state.
    pub converged: bool,
    /// Normal-equation rows touched by incremental delta re-solves
    /// (zero unless the job ran [`ResolveMode::Incremental`]).
    pub resolve_rows_delta: u64,
    /// Full incremental-state rebuilds (warm-up, periodic re-anchors,
    /// fallbacks); zero in replay mode.
    pub resolve_rebuilds: u64,
    /// Emitted solves that fell back to the replay path while in
    /// incremental mode; zero in replay mode.
    pub resolve_fallbacks: u64,
    /// Solves whose IRLS hit its iteration cap without converging (a
    /// count, with no timing, so outcomes stay `==` across worker
    /// counts).
    pub irls_unconverged: u64,
    /// The watchdog report, when the job ran with
    /// [`StreamJob::with_doctor`].
    pub health: Option<HealthReport>,
}

impl StreamOutcome {
    /// The last emitted estimate, if any solve succeeded.
    pub fn final_estimate(&self) -> Option<&StreamEstimate> {
        self.estimates.last()
    }
}

/// Runs one stream to completion: burst-offer into ingress, drain into
/// the pipeline, repeat; optional flush at end-of-feed. `trace` is the
/// job's root context minted at submission — attached here so the whole
/// solve tree (ingress → window → unwrap → … → adaptive) hangs under
/// one `lion.stream.job` root even on a foreign worker thread.
fn run_stream_job(
    job: &StreamJob,
    trace: Option<lion_obs::TraceContext>,
) -> Result<StreamOutcome, CoreError> {
    job.validate()?;
    let _trace = trace.map(lion_obs::attach);
    let _span = lion_obs::span!("lion.stream.job");
    let mut pipeline = StreamLocalizer::new(job.config.clone())?;
    let mut ingress = Ingress::new(job.queue_capacity)?;
    let mut doctor = job.doctor.clone().map(Doctor::new);
    // Live telemetry plane: when a hub is installed, every solve feeds
    // the fleet SLO window — the only consumer of solve wall time, so
    // solves are clocked only then. One relaxed atomic load when it isn't.
    let hub = lion_obs::telemetry_hub();
    let mut estimates = Vec::new();
    let mut solve_errors = 0u64;
    let mut observed_accepted = 0u64;
    let mut observed_shed = 0u64;
    let mut observe = |estimate: &StreamEstimate, ingress: &Ingress| {
        let Some(doctor) = doctor.as_mut() else {
            return;
        };
        let accepted = ingress.offered() - ingress.overflow_dropped();
        let shed = ingress.overflow_dropped();
        // Replay mode replays by design — there is no fallback signal to
        // report, so the doctor's rule sees no data rather than alarms.
        let resolve_fallback = match job.config.resolve_mode {
            ResolveMode::Incremental => Some(estimate.resolve_path == ResolvePath::Replayed),
            _ => None,
        };
        doctor.observe(SolveObservation {
            time: estimate.trigger_time,
            mean_residual: estimate.mean_residual,
            converged: estimate.converged,
            reads_in: accepted - observed_accepted,
            shed: shed - observed_shed,
            resolve_fallback,
        });
        observed_accepted = accepted;
        observed_shed = shed;
    };
    for burst in job.reads.chunks(job.burst) {
        {
            let _ingress_span = lion_obs::span!("lion.stream.ingress");
            for &read in burst {
                // Overflow sheds the oldest queued read; it never reaches
                // the pipeline, exactly as if the reader buffer dropped it.
                let _ = ingress.offer(read);
            }
        }
        while let Some((read, arrival)) = ingress.pop_with_arrival() {
            let pushed_at = hub.is_some().then(Instant::now);
            match pipeline.push_at(read, arrival) {
                Ok(Some(estimate)) => {
                    if let (Some(hub), Some(t)) = (&hub, pushed_at) {
                        let solve_ns = lion_obs::saturating_ns_between(t, Instant::now());
                        hub.with_fleet(|fleet| fleet.observe_solve(solve_ns));
                    }
                    observe(&estimate, &ingress);
                    estimates.push(estimate);
                }
                Ok(None) => {}
                Err(e) => {
                    solve_errors += 1;
                    if let Some(hub) = &hub {
                        hub.with_fleet(|fleet| fleet.observe_failure(e.kind()));
                    }
                }
            }
        }
    }
    if job.flush_at_end {
        // Only meaningful when reads arrived after the last cadence
        // solve; a flush on an already-solved window re-emits.
        let flushed_at = hub.is_some().then(Instant::now);
        match pipeline.flush() {
            Ok(Some(estimate)) => {
                if let (Some(hub), Some(t)) = (&hub, flushed_at) {
                    let solve_ns = lion_obs::saturating_ns_between(t, Instant::now());
                    hub.with_fleet(|fleet| fleet.observe_solve(solve_ns));
                }
                observe(&estimate, &ingress);
                estimates.push(estimate);
            }
            Ok(None) => {}
            Err(e) => {
                solve_errors += 1;
                if let Some(hub) = &hub {
                    hub.with_fleet(|fleet| fleet.observe_failure(e.kind()));
                }
            }
        }
    }
    lion_obs::event!(
        lion_obs::Level::Info,
        "lion.stream.job.done",
        "reads" => job.reads.len() as u64,
        "estimates" => estimates.len() as u64,
        "dropped" => ingress.overflow_dropped(),
        "converged" => pipeline.is_converged(),
    );
    Ok(StreamOutcome {
        reads_in: ingress.offered(),
        overflow_dropped: ingress.overflow_dropped(),
        late_rejected: pipeline.rejected_late(),
        non_finite_rejected: pipeline.rejected_non_finite(),
        solve_errors,
        converged: pipeline.is_converged(),
        resolve_rows_delta: pipeline.resolve_rows_delta(),
        resolve_rebuilds: pipeline.resolve_rebuilds(),
        resolve_fallbacks: pipeline.resolve_fallbacks(),
        irls_unconverged: pipeline.irls_unconverged(),
        health: doctor.map(|d| d.report()),
        estimates,
    })
}

impl Engine {
    /// Runs every stream to completion across the worker pool, returning
    /// outcomes in submission order.
    ///
    /// Parallelism is *across* streams: each stream is drained start to
    /// finish by one worker (reads within a stream are sequential by
    /// nature), and workers pull the next pending stream from an atomic
    /// cursor. Outcomes are bit-identical for any worker count. A job
    /// with an invalid configuration fails in its own slot without
    /// affecting the rest.
    ///
    /// When a [`lion_obs::TelemetryHub`] is installed, each doctored
    /// stream's [`HealthReport`] is ingested into the hub's fleet rollup
    /// — in submission order, after collection, so the rollup is
    /// identical for any worker count. Streams are identified by
    /// `config.label` when set, else by submission slot (`stream-<i>`).
    ///
    /// When the hub's **history plane** is enabled
    /// ([`lion_obs::TelemetryHub::enable_history`]), the run also brackets
    /// itself with [`lion_obs::TelemetryHub::sample_tick`] (one due-check
    /// before the first job, one after ingestion) and records each
    /// stream's estimates into the time-series store as
    /// `lion.stream.*{stream="<label>"}` series, timestamped in *stream
    /// time* — so the stored history, like the outcomes, is bit-identical
    /// across worker counts.
    pub fn run_streams(&self, jobs: &[StreamJob]) -> Vec<Result<StreamOutcome, CoreError>> {
        let workers = self.workers().min(jobs.len()).max(1);
        let hub = lion_obs::telemetry_hub();
        // Fixed lifecycle point: sampling before any job starts keeps
        // the tick count independent of worker scheduling.
        if let Some(hub) = &hub {
            hub.sample_tick();
        }
        // Root trace contexts in submission order (see `job_contexts`).
        let contexts = job_contexts(jobs.len());
        let outcomes = fan_out(
            workers,
            jobs,
            || (),
            |_, i, job| run_stream_job(job, contexts[i]),
        );
        ingest_fleet_health(jobs, outcomes)
    }
}

/// The stream's telemetry identity: its configured label, or its
/// submission slot.
fn stream_label(job: &StreamJob, slot: usize) -> String {
    job.config
        .label
        .clone()
        .unwrap_or_else(|| format!("stream-{slot}"))
}

/// Feeds every doctored outcome's health report into the installed
/// telemetry hub's fleet rollup and, when the history plane is on,
/// records per-stream series and runs one sampler due-check — all in
/// submission order. Pass-through (one relaxed atomic load) when no hub
/// is installed.
fn ingest_fleet_health(
    jobs: &[StreamJob],
    outcomes: Vec<Result<StreamOutcome, CoreError>>,
) -> Vec<Result<StreamOutcome, CoreError>> {
    if let Some(hub) = lion_obs::telemetry_hub() {
        hub.with_fleet(|fleet| {
            for (i, (job, outcome)) in jobs.iter().zip(&outcomes).enumerate() {
                if let Ok(outcome) = outcome {
                    if let Some(health) = &outcome.health {
                        fleet.ingest(&stream_label(job, i), health);
                    }
                }
            }
        });
        record_stream_series(&hub, jobs, &outcomes);
        hub.sample_tick();
    }
    outcomes
}

/// Records each stream's outcome into the hub's time-series store:
/// per-estimate `residual` / `confidence` gauges timestamped in stream
/// time (`trigger_time` seconds → ns), plus final `reads_in` /
/// `overflow_dropped` cumulative counters. No-op unless
/// [`lion_obs::TelemetryHub::enable_history`] was called.
fn record_stream_series(
    hub: &lion_obs::TelemetryHub,
    jobs: &[StreamJob],
    outcomes: &[Result<StreamOutcome, CoreError>],
) {
    let Some(tsdb) = hub.tsdb() else {
        return;
    };
    let series = |metric: &str, label: &str| format!("lion.stream.{metric}{{stream=\"{label}\"}}");
    for (i, (job, outcome)) in jobs.iter().zip(outcomes).enumerate() {
        let Ok(outcome) = outcome else { continue };
        let label = stream_label(job, i);
        let mut last_t_ns = 0u64;
        for estimate in &outcome.estimates {
            // Stream-time timestamps: deterministic across runs and
            // worker counts, unlike the wall clock.
            let t_ns = (estimate.trigger_time * 1e9) as u64;
            last_t_ns = last_t_ns.max(t_ns);
            tsdb.push_gauge(&series("residual", &label), t_ns, estimate.mean_residual);
            tsdb.push_gauge(&series("confidence", &label), t_ns, estimate.confidence);
        }
        tsdb.push_counter(&series("reads_in", &label), last_t_ns, outcome.reads_in);
        tsdb.push_counter(
            &series("overflow_dropped", &label),
            last_t_ns,
            outcome.overflow_dropped,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_core::Weighting;
    use lion_geom::Point3;
    use lion_linalg::IrlsConfig;
    use lion_stream::Cadence;
    use std::f64::consts::{PI, TAU};

    fn clean_reads(antenna: Point3, n: usize) -> Vec<StreamRead> {
        let lambda = StreamConfig::default().localizer.wavelength;
        (0..n)
            .map(|i| {
                let a = i as f64 * TAU / 120.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                StreamRead {
                    time: i as f64 * 0.01,
                    position: p,
                    phase: (4.0 * PI * antenna.distance(p) / lambda) % TAU,
                    ..StreamRead::default()
                }
            })
            .collect()
    }

    #[test]
    fn streams_come_back_in_submission_order() {
        // Distinct antennas identify the slots.
        let jobs: Vec<StreamJob> = (0..6)
            .map(|i| {
                let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
                StreamJob::new(clean_reads(antenna, 300), StreamConfig::default())
            })
            .collect();
        let outcomes = Engine::builder()
            .workers(3)
            .build()
            .expect("valid")
            .run_streams(&jobs);
        assert_eq!(outcomes.len(), 6);
        for (i, outcome) in outcomes.iter().enumerate() {
            let outcome = outcome.as_ref().expect("clean stream runs");
            let expected = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
            let got = outcome
                .final_estimate()
                .expect("estimates emitted")
                .position;
            assert!(got.distance(expected) < 5e-2, "slot {i}: {got:?}");
        }
    }

    #[test]
    fn outcomes_are_identical_across_worker_counts() {
        let jobs: Vec<StreamJob> = (0..4)
            .map(|i| {
                let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
                StreamJob::new(clean_reads(antenna, 250), StreamConfig::default())
                    .with_burst(40)
                    .with_queue_capacity(24)
            })
            .collect();
        let serial = Engine::serial().run_streams(&jobs);
        let parallel = Engine::builder()
            .workers(4)
            .build()
            .expect("valid")
            .run_streams(&jobs);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.overflow_dropped, p.overflow_dropped);
            assert_eq!(s.estimates.len(), p.estimates.len());
            for (a, b) in s.estimates.iter().zip(&p.estimates) {
                // Bit-identical, not approximately equal.
                assert_eq!(a.position, b.position);
                assert_eq!(a.d_r, b.d_r);
                assert_eq!(a.seq, b.seq);
            }
        }
    }

    #[test]
    fn oversized_bursts_shed_deterministically() {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        // 100-read bursts into a 25-slot queue: 75 shed per full burst.
        let job = StreamJob::new(
            clean_reads(antenna, 300),
            StreamConfig::builder()
                .cadence(Cadence::EveryReads(8))
                .build()
                .unwrap(),
        )
        .with_burst(100)
        .with_queue_capacity(25);
        let outcome = Engine::serial()
            .run_streams(std::slice::from_ref(&job))
            .pop()
            .unwrap()
            .expect("runs");
        assert_eq!(outcome.reads_in, 300);
        assert_eq!(outcome.overflow_dropped, 3 * 75);
        // And the exact same counts again.
        let again = Engine::serial().run_streams(&[job]).pop().unwrap().unwrap();
        assert_eq!(again.overflow_dropped, outcome.overflow_dropped);
        assert_eq!(again.estimates.len(), outcome.estimates.len());
    }

    #[test]
    fn incremental_outcomes_are_identical_across_worker_counts() {
        let jobs: Vec<StreamJob> = (0..4)
            .map(|i| {
                let antenna = Point3::new(1.0 + 0.1 * i as f64, 0.4, 0.0);
                let config = StreamConfig::builder()
                    .resolve_mode(ResolveMode::Incremental)
                    .build()
                    .unwrap();
                StreamJob::new(clean_reads(antenna, 300), config)
                    .with_burst(40)
                    .with_queue_capacity(24)
            })
            .collect();
        let serial = Engine::serial().run_streams(&jobs);
        let parallel = Engine::builder()
            .workers(4)
            .build()
            .expect("valid")
            .run_streams(&jobs);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            // The replay/delta tick pattern and every estimate are
            // bit-identical regardless of worker count.
            assert_eq!(s.resolve_rows_delta, p.resolve_rows_delta);
            assert_eq!(s.resolve_rebuilds, p.resolve_rebuilds);
            assert_eq!(s.resolve_fallbacks, p.resolve_fallbacks);
            assert_eq!(s.estimates.len(), p.estimates.len());
            for (a, b) in s.estimates.iter().zip(&p.estimates) {
                assert_eq!(a.resolve_path, b.resolve_path);
                assert_eq!(a.position, b.position);
                assert_eq!(a.d_r, b.d_r);
            }
            assert!(s.resolve_rows_delta > 0, "delta ticks must have run");
            assert!(s.resolve_rebuilds >= 1);
        }
    }

    #[test]
    fn replay_jobs_report_zero_resolve_metrics() {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let job = StreamJob::new(clean_reads(antenna, 200), StreamConfig::default());
        let outcome = Engine::serial()
            .run_streams(std::slice::from_ref(&job))
            .pop()
            .unwrap()
            .expect("runs");
        assert_eq!(outcome.resolve_rows_delta, 0);
        assert_eq!(outcome.resolve_rebuilds, 0);
        assert_eq!(outcome.resolve_fallbacks, 0);
    }

    #[test]
    fn capped_irls_solves_are_counted_identically_across_worker_counts() {
        let jobs: Vec<StreamJob> = [ResolveMode::Replay, ResolveMode::Incremental]
            .into_iter()
            .enumerate()
            .map(|(i, mode)| {
                let mut reads = clean_reads(Point3::new(1.1 + 0.1 * i as f64, 0.4, 0.0), 300);
                // Noise the single reweight cannot settle.
                for (k, read) in reads.iter_mut().enumerate() {
                    read.phase = (read.phase + 0.3 * (k as f64 * 1.7).sin()).rem_euclid(TAU);
                }
                let mut config = StreamConfig::builder().resolve_mode(mode).build().unwrap();
                config.localizer.weighting = Weighting::Weighted(IrlsConfig {
                    max_iterations: 1,
                    ..IrlsConfig::default()
                });
                StreamJob::new(reads, config).with_burst(40)
            })
            .collect();
        let serial = Engine::serial().run_streams(&jobs);
        let parallel = Engine::builder()
            .workers(2)
            .build()
            .expect("valid")
            .run_streams(&jobs);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert!(s.irls_unconverged > 0);
            assert_eq!(s.irls_unconverged, p.irls_unconverged);
        }
        // The default cap converges on the clean feed.
        let clean = StreamJob::new(
            clean_reads(Point3::new(1.2, 0.4, 0.0), 300),
            StreamConfig::default(),
        );
        let outcome = Engine::serial().run_streams(&[clean]).pop().unwrap();
        assert_eq!(outcome.unwrap().irls_unconverged, 0);
    }

    #[test]
    fn non_finite_reads_are_not_counted_as_late() {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let mut reads = clean_reads(antenna, 200);
        reads[50].phase = f64::NAN;
        reads[90].time = f64::INFINITY;
        reads[120].position.y = f64::NEG_INFINITY;
        let job = StreamJob::new(reads, StreamConfig::default());
        let outcome = Engine::serial()
            .run_streams(std::slice::from_ref(&job))
            .pop()
            .unwrap()
            .expect("runs");
        assert_eq!(outcome.non_finite_rejected, 3);
        assert_eq!(outcome.late_rejected, 0);
        assert!(outcome.final_estimate().is_some());
    }

    #[test]
    fn invalid_job_fails_in_its_own_slot() {
        let antenna = Point3::new(1.2, 0.4, 0.0);
        let good = StreamJob::new(clean_reads(antenna, 200), StreamConfig::default());
        let bad = good.clone().with_burst(0);
        let outcomes = Engine::serial().run_streams(&[good.clone(), bad, good]);
        assert!(outcomes[0].is_ok());
        assert!(matches!(
            outcomes[1],
            Err(CoreError::InvalidConfig {
                parameter: "burst",
                ..
            })
        ));
        assert!(outcomes[2].is_ok());
    }
}
