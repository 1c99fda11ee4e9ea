//! The work-queue engine: scoped workers draining an atomic cursor.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use lion_core::{CoreError, StageMetrics, Workspace};

use crate::job::{Job, JobOutput};
use crate::metrics::{JobTiming, MetricsReport};

/// Runs one job, measuring queue wait (batch start → pickup) and
/// execution time, and emitting an `engine.job` span plus a per-job
/// event when a subscriber is installed. `trace` is the job's root
/// context, minted at submission: attaching it here is what parents the
/// worker-side span tree to the submitting batch, across threads.
fn run_job(
    job: &Job,
    ws: &mut Workspace,
    batch_start: Instant,
    index: usize,
    trace: Option<lion_obs::TraceContext>,
) -> (Result<JobOutput, CoreError>, StageMetrics, JobTiming) {
    let picked = Instant::now();
    let queue_wait_ns =
        u64::try_from(picked.duration_since(batch_start).as_nanos()).unwrap_or(u64::MAX);
    let _trace = trace.map(lion_obs::attach);
    let span = lion_obs::span!("engine.job");
    let result = job.execute(ws);
    drop(span);
    let execute_ns = u64::try_from(picked.elapsed().as_nanos()).unwrap_or(u64::MAX);
    lion_obs::event!(
        lion_obs::Level::Debug,
        "engine.job.done",
        "job" => index as u64,
        "ok" => result.is_ok(),
        "queue_wait_ns" => queue_wait_ns,
        "execute_ns" => execute_ns,
    );
    (
        result,
        ws.take_metrics(),
        JobTiming {
            queue_wait_ns,
            execute_ns,
        },
    )
}

/// Mints one root [`lion_obs::TraceContext`] per job at submission time
/// (`None`s when instrumentation is disabled, keeping the fast path
/// free of id allocation). Minting happens on the submitting thread in
/// index order, so trace ids ascend with job index regardless of which
/// worker later runs each job — the property the causality tests use to
/// pair up traces across worker counts.
pub(crate) fn job_contexts(jobs: usize) -> Vec<Option<lion_obs::TraceContext>> {
    if lion_obs::enabled() {
        (0..jobs)
            .map(|_| Some(lion_obs::TraceContext::root()))
            .collect()
    } else {
        vec![None; jobs]
    }
}

/// The engine's one worker pool: runs `f(state, index, item)` on every
/// item across `workers` scoped threads that drain a shared atomic
/// cursor, each thread with its own `init_state()`, and returns the
/// results in submission order. One worker runs inline on the calling
/// thread without spawning. Callers clamp `workers` to the item count.
pub(crate) fn fan_out<T, S, R>(
    workers: usize,
    items: &[T],
    init_state: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &T) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    if workers <= 1 {
        let mut state = init_state();
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(&mut state, i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed = Vec::with_capacity(items.len());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut state = init_state();
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        local.push((i, f(&mut state, i, item)));
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            indexed.extend(handle.join().expect("engine worker panicked"));
        }
    });
    indexed.sort_unstable_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, result)| result).collect()
}

/// Parallel batch executor for [`Job`]s.
///
/// Workers pull jobs from a shared atomic cursor — no locks, no channels
/// — and each keeps one reusable [`Workspace`] for every solve it runs.
/// Results are returned in submission order, and because every job is a
/// pure function of its own inputs, the estimates are **bit-identical**
/// for any worker count (including a serial run), and so are the
/// per-job [`StageMetrics`]. Only the queue-wait and execute timings
/// vary run to run.
#[derive(Debug, Clone)]
pub struct Engine {
    workers: usize,
}

impl Engine {
    /// An engine with one worker per available CPU (at least one).
    pub fn new() -> Self {
        Engine {
            workers: std::thread::available_parallelism().map_or(1, usize::from),
        }
    }

    /// An engine that runs jobs inline on the calling thread.
    pub fn serial() -> Self {
        Engine { workers: 1 }
    }

    /// A validating builder in the style of the `lion-core` configs.
    pub fn builder() -> EngineBuilder {
        EngineBuilder { workers: None }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Executes every job and collects results in submission order.
    ///
    /// Individual job failures ([`CoreError`]) land in the corresponding
    /// result slot without affecting the rest of the batch. A batch never
    /// spawns more threads than it has jobs; a single-worker engine runs
    /// inline without spawning at all.
    pub fn run(&self, jobs: &[Job]) -> BatchOutcome {
        let started = Instant::now();
        let workers = self.workers.min(jobs.len()).max(1);
        // Root trace contexts, minted in submission order so trace ids
        // ascend with job index no matter which worker runs what.
        let contexts = job_contexts(jobs.len());
        let outcomes = fan_out(workers, jobs, Workspace::new, |ws, i, job| {
            run_job(job, ws, started, i, contexts[i])
        });
        let wall_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let mut results = Vec::with_capacity(outcomes.len());
        let mut job_metrics = Vec::with_capacity(outcomes.len());
        let mut timings = Vec::with_capacity(outcomes.len());
        for (result, metrics, timing) in outcomes {
            results.push(result);
            job_metrics.push(metrics);
            timings.push(timing);
        }
        let report = MetricsReport::aggregate(&job_metrics, &results, &timings, workers, wall_ns);
        lion_obs::event!(
            lion_obs::Level::Info,
            "engine.batch.done",
            "jobs" => report.jobs,
            "failed" => report.failed,
            "workers" => report.workers,
            "wall_ns" => report.wall_ns,
        );
        BatchOutcome {
            results,
            job_metrics,
            timings,
            report,
        }
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

/// Validating builder for [`Engine`].
///
/// ```
/// use lion_engine::Engine;
///
/// let engine = Engine::builder().workers(4).build().expect("valid");
/// assert_eq!(engine.workers(), 4);
/// assert!(Engine::builder().workers(0).build().is_err());
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineBuilder {
    workers: Option<usize>,
}

impl EngineBuilder {
    /// Sets the worker count (defaults to the available parallelism).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// Validates and builds the engine.
    ///
    /// # Errors
    ///
    /// [`CoreError::InvalidConfig`] when the worker count is zero.
    pub fn build(self) -> Result<Engine, CoreError> {
        match self.workers {
            Some(0) => Err(CoreError::InvalidConfig {
                parameter: "workers",
                found: "0".to_string(),
            }),
            Some(workers) => Ok(Engine { workers }),
            None => Ok(Engine::new()),
        }
    }
}

/// Everything a batch run produces.
#[derive(Debug, Clone)]
pub struct BatchOutcome {
    /// Per-job outcomes, in submission order.
    pub results: Vec<Result<JobOutput, CoreError>>,
    /// Per-job stage metrics, in submission order.
    pub job_metrics: Vec<StageMetrics>,
    /// Per-job queue-wait/execute timings, in submission order.
    pub timings: Vec<JobTiming>,
    /// Batch-level aggregation of the per-job metrics.
    pub report: MetricsReport,
}

#[cfg(test)]
mod tests {
    use super::*;
    use lion_core::LocalizerConfig;
    use lion_geom::Point3;
    use std::f64::consts::{PI, TAU};

    fn clean_trace(antenna: Point3) -> Vec<(Point3, f64)> {
        let lambda = LocalizerConfig::paper().wavelength;
        (0..120)
            .map(|i| {
                let a = i as f64 * TAU / 120.0;
                let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
                (p, (4.0 * PI * antenna.distance(p) / lambda) % TAU)
            })
            .collect()
    }

    #[test]
    fn empty_batch_produces_empty_outcome() {
        let outcome = Engine::serial().run(&[]);
        assert!(outcome.results.is_empty());
        assert!(outcome.job_metrics.is_empty());
        assert_eq!(outcome.report.jobs, 0);
    }

    #[test]
    fn results_come_back_in_submission_order() {
        // Distinct antennas per job: the returned positions identify
        // which job each slot belongs to.
        let jobs: Vec<Job> = (0..16)
            .map(|i| {
                let antenna = Point3::new(1.0 + 0.05 * i as f64, 0.0, 0.0);
                Job::locate_2d(clean_trace(antenna), LocalizerConfig::paper())
            })
            .collect();
        let outcome = Engine::builder()
            .workers(4)
            .build()
            .expect("valid")
            .run(&jobs);
        for (i, result) in outcome.results.iter().enumerate() {
            let expected = Point3::new(1.0 + 0.05 * i as f64, 0.0, 0.0);
            let got = result.as_ref().expect("clean trace locates").position();
            // Identification only needs the error well under the 5 cm
            // antenna spacing.
            assert!(got.distance(expected) < 2e-2, "slot {i}: {got:?}");
        }
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let good = Job::locate_2d(
            clean_trace(Point3::new(1.0, 0.0, 0.0)),
            LocalizerConfig::paper(),
        );
        let bad = Job::locate_2d(Vec::new(), LocalizerConfig::paper());
        let outcome = Engine::serial().run(&[good.clone(), bad, good]);
        assert!(outcome.results[0].is_ok());
        assert!(outcome.results[1].is_err());
        assert!(outcome.results[2].is_ok());
        assert_eq!(outcome.report.failed, 1);
        // The failed job still contributes (possibly empty) metrics.
        assert_eq!(outcome.job_metrics.len(), 3);
    }

    #[test]
    fn worker_count_is_clamped_to_batch_size() {
        let jobs = vec![Job::locate_2d(
            clean_trace(Point3::new(1.0, 0.0, 0.0)),
            LocalizerConfig::paper(),
        )];
        let outcome = Engine::builder()
            .workers(64)
            .build()
            .expect("valid")
            .run(&jobs);
        assert_eq!(outcome.report.workers, 1);
    }
}
