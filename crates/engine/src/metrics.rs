//! Batch-level aggregation of per-job stage metrics.
//!
//! [`MetricsReport`] aggregates the engine's per-job [`StageMetrics`] in
//! two complementary ways: the *sums* in [`MetricsReport::total`]
//! (deterministic counters, total stage time) and the *distributions* in
//! [`MetricsReport::stages`] — one [`Histogram`] per pipeline stage and
//! per job-level timing, so tail latency (p50/p90/p99/max) is visible
//! instead of being averaged away. Failures are counted per
//! [`CoreError`] kind, not just in aggregate.

use std::fmt;

use lion_core::{CoreError, StageMetrics};
use lion_obs::{Histogram, Registry};
use serde::{Deserialize, Serialize};

use crate::job::JobOutput;

/// Per-job queue-wait and execution timing measured by the engine.
///
/// `queue_wait_ns` is the time between batch start and the moment a
/// worker picked the job up; `execute_ns` is the job's own wall time on
/// that worker. Their distributions separate "the engine was saturated"
/// from "the job was slow".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobTiming {
    /// Nanoseconds the job sat in the queue before a worker picked it up.
    pub queue_wait_ns: u64,
    /// Nanoseconds the job spent executing on its worker.
    pub execute_ns: u64,
}

/// Latency distributions for one batch: per pipeline stage and per job.
///
/// Stage histograms record one sample per *job* (that job's total time in
/// the stage), so percentiles answer "how long does a job spend
/// unwrapping at p99?" — the question adaptive-sweep tuning and capacity
/// planning actually ask.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageDistributions {
    /// Per-job phase-unwrap time.
    pub unwrap: Histogram,
    /// Per-job smoothing time.
    pub smooth: Histogram,
    /// Per-job pair-generation time.
    pub pairs: Histogram,
    /// Per-job solver time.
    pub solve: Histogram,
    /// Per-job adaptive-sweep wall time (inclusive of nested stages).
    pub adaptive: Histogram,
    /// Per-job busy time (disjoint stage sum, see
    /// [`StageMetrics::busy_ns`]).
    pub job_busy: Histogram,
    /// Per-job queue wait (batch start → worker pickup).
    pub queue_wait: Histogram,
    /// Per-job execution time on the worker.
    pub execute: Histogram,
}

impl StageDistributions {
    /// Records one job's stage metrics and engine timing.
    fn record(&mut self, metrics: &StageMetrics, timing: &JobTiming) {
        self.unwrap.record(metrics.unwrap_ns);
        self.smooth.record(metrics.smooth_ns);
        self.pairs.record(metrics.pairs_ns);
        self.solve.record(metrics.solve_ns);
        self.adaptive.record(metrics.adaptive_ns);
        self.job_busy.record(metrics.busy_ns());
        self.queue_wait.record(timing.queue_wait_ns);
        self.execute.record(timing.execute_ns);
    }

    /// The named stage histograms, in display order.
    pub fn named(&self) -> [(&'static str, &Histogram); 8] {
        [
            ("unwrap", &self.unwrap),
            ("smooth", &self.smooth),
            ("pairs", &self.pairs),
            ("solve", &self.solve),
            ("adaptive", &self.adaptive),
            ("job_busy", &self.job_busy),
            ("queue_wait", &self.queue_wait),
            ("execute", &self.execute),
        ]
    }
}

/// Aggregated instrumentation for one batch run: job/worker/wall-clock
/// accounting, the sum of every job's [`StageMetrics`], per-stage and
/// per-job latency distributions, and a per-error-kind failure breakdown.
///
/// Serializable with serde; [`fmt::Display`] renders the compact summary
/// `run_experiments` prints alongside each figure. For machine-readable
/// export use [`MetricsReport::to_json_string`] (the exact inverse of
/// [`MetricsReport::from_json_str`]) or [`MetricsReport::record_into`] to
/// feed a [`Registry`] whose snapshots the `lion-obs` exporters render as
/// JSON lines or Prometheus text.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Jobs submitted.
    pub jobs: u64,
    /// Jobs that returned an error.
    pub failed: u64,
    /// Failure counts per [`CoreError::kind`], ascending by kind name.
    pub failures_by_kind: Vec<(String, u64)>,
    /// Workers the batch actually ran on (after clamping to the batch
    /// size).
    pub workers: u64,
    /// Wall-clock duration of the whole batch, in nanoseconds.
    pub wall_ns: u64,
    /// Sum of the per-job stage metrics.
    pub total: StageMetrics,
    /// Per-stage and per-job latency distributions.
    pub stages: StageDistributions,
}

impl MetricsReport {
    /// Sums `job_metrics`, builds the per-stage distributions, and counts
    /// failures (total and per error kind) out of `results`.
    pub fn aggregate(
        job_metrics: &[StageMetrics],
        results: &[Result<JobOutput, CoreError>],
        timings: &[JobTiming],
        workers: usize,
        wall_ns: u64,
    ) -> Self {
        let mut total = StageMetrics::default();
        let mut stages = StageDistributions::default();
        let default_timing = JobTiming::default();
        for (i, m) in job_metrics.iter().enumerate() {
            total.merge(m);
            stages.record(m, timings.get(i).unwrap_or(&default_timing));
        }
        let mut failures: Vec<(String, u64)> = Vec::new();
        for kind in results
            .iter()
            .filter_map(|r| r.as_ref().err())
            .map(CoreError::kind)
        {
            match failures.iter_mut().find(|(k, _)| k == kind) {
                Some((_, n)) => *n += 1,
                None => failures.push((kind.to_string(), 1)),
            }
        }
        failures.sort_by(|(a, _), (b, _)| a.cmp(b));
        MetricsReport {
            jobs: job_metrics.len() as u64,
            failed: results.iter().filter(|r| r.is_err()).count() as u64,
            failures_by_kind: failures,
            workers: workers as u64,
            wall_ns,
            total,
            stages,
        }
    }

    /// Total CPU time attributed to pipeline stages across all jobs, in
    /// nanoseconds, as a sum of *disjoint* components (the four pipeline
    /// stages plus sweep-exclusive adaptive overhead) — no clamping
    /// heuristics, no double counting. With more than one worker this
    /// exceeds the wall-clock time — their ratio is the effective
    /// parallel speedup.
    pub fn busy_ns(&self) -> u64 {
        self.total.busy_ns()
    }

    /// Records this report into a telemetry registry under `engine.*`
    /// names: job/failure counters (one per error kind), stage-time
    /// counters, and the per-stage/per-job histograms. Repeated calls
    /// accumulate, so a registry tracks a whole sequence of batches; the
    /// `lion-obs` exporters then render its snapshots as JSON lines or
    /// Prometheus text.
    pub fn record_into(&self, registry: &Registry) {
        registry.counter_add("engine.jobs", self.jobs);
        registry.counter_add("engine.failed", self.failed);
        for (kind, count) in &self.failures_by_kind {
            registry.counter_add(&format!("engine.failures.{kind}"), *count);
        }
        registry.counter_add("engine.wall_ns", self.wall_ns);
        registry.counter_add("engine.busy_ns", self.busy_ns());
        registry.gauge_set("engine.workers", self.workers as f64);
        registry.counter_add("engine.solves", self.total.solves);
        registry.counter_add("engine.irls_iterations", self.total.irls_iterations);
        registry.counter_add("engine.irls_unconverged", self.total.irls_unconverged);
        registry.counter_add("engine.equations", self.total.equations);
        registry.counter_add("engine.reads_dropped", self.total.reads_dropped);
        registry.counter_add("engine.adaptive_trials", self.total.adaptive_trials);
        registry.counter_add("engine.adaptive_skipped", self.total.adaptive_skipped);
        for (name, hist) in self.stages.named() {
            registry.histogram_merge(&format!("engine.stage.{name}_ns"), hist);
        }
    }

    /// Full-fidelity JSON encoding, the exact inverse of
    /// [`MetricsReport::from_json_str`]. Rendered by hand because the
    /// vendored `serde` is a no-op stub (see `vendor/README.md`); the
    /// field layout mirrors the `Serialize` derive so restoring real
    /// serde keeps the same shape.
    pub fn to_json_string(&self) -> String {
        let t = &self.total;
        let failures = self
            .failures_by_kind
            .iter()
            .map(|(k, n)| format!("[\"{}\",{n}]", lion_obs::json::escape(k)))
            .collect::<Vec<_>>()
            .join(",");
        let stages = self
            .stages
            .named()
            .iter()
            .map(|(name, hist)| format!("\"{name}\":{}", hist.to_json()))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"jobs\":{},\"failed\":{},\"failures_by_kind\":[{}],\"workers\":{},\
             \"wall_ns\":{},\"total\":{{\"unwrap_ns\":{},\"smooth_ns\":{},\"pairs_ns\":{},\
             \"solve_ns\":{},\"adaptive_ns\":{},\"adaptive_exclusive_ns\":{},\"solves\":{},\
             \"irls_iterations\":{},\"irls_unconverged\":{},\"equations\":{},\"reads_dropped\":{},\
             \"adaptive_trials\":{},\"adaptive_skipped\":{}}},\"stages\":{{{}}}}}",
            self.jobs,
            self.failed,
            failures,
            self.workers,
            self.wall_ns,
            t.unwrap_ns,
            t.smooth_ns,
            t.pairs_ns,
            t.solve_ns,
            t.adaptive_ns,
            t.adaptive_exclusive_ns,
            t.solves,
            t.irls_iterations,
            t.irls_unconverged,
            t.equations,
            t.reads_dropped,
            t.adaptive_trials,
            t.adaptive_skipped,
            stages,
        )
    }

    /// Parses the encoding produced by [`MetricsReport::to_json_string`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first missing or malformed field.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        let doc = lion_obs::json::parse(text).map_err(|e| e.to_string())?;
        let u = |v: Option<&lion_obs::json::Json>, what: &str| -> Result<u64, String> {
            v.and_then(|v| v.as_u64())
                .ok_or_else(|| format!("metrics report: missing {what}"))
        };
        let total_doc = doc.get("total").ok_or("metrics report: missing total")?;
        let total = StageMetrics {
            unwrap_ns: u(total_doc.get("unwrap_ns"), "unwrap_ns")?,
            smooth_ns: u(total_doc.get("smooth_ns"), "smooth_ns")?,
            pairs_ns: u(total_doc.get("pairs_ns"), "pairs_ns")?,
            solve_ns: u(total_doc.get("solve_ns"), "solve_ns")?,
            adaptive_ns: u(total_doc.get("adaptive_ns"), "adaptive_ns")?,
            adaptive_exclusive_ns: u(
                total_doc.get("adaptive_exclusive_ns"),
                "adaptive_exclusive_ns",
            )?,
            solves: u(total_doc.get("solves"), "solves")?,
            irls_iterations: u(total_doc.get("irls_iterations"), "irls_iterations")?,
            irls_unconverged: u(total_doc.get("irls_unconverged"), "irls_unconverged")?,
            equations: u(total_doc.get("equations"), "equations")?,
            reads_dropped: u(total_doc.get("reads_dropped"), "reads_dropped")?,
            adaptive_trials: u(total_doc.get("adaptive_trials"), "adaptive_trials")?,
            adaptive_skipped: u(total_doc.get("adaptive_skipped"), "adaptive_skipped")?,
            ..StageMetrics::default()
        };
        let mut failures = Vec::new();
        for pair in doc
            .get("failures_by_kind")
            .and_then(|v| v.as_array())
            .ok_or("metrics report: missing failures_by_kind")?
        {
            let entries = pair
                .as_array()
                .ok_or("metrics report: malformed failure entry")?;
            let (Some(kind), Some(count)) = (
                entries.first().and_then(|v| v.as_str()),
                entries.get(1).and_then(|v| v.as_u64()),
            ) else {
                return Err("metrics report: malformed failure entry".to_string());
            };
            failures.push((kind.to_string(), count));
        }
        let stages_doc = doc.get("stages").ok_or("metrics report: missing stages")?;
        let hist = |name: &str| -> Result<Histogram, String> {
            Histogram::from_json(
                stages_doc
                    .get(name)
                    .ok_or_else(|| format!("metrics report: missing stage {name}"))?,
            )
        };
        Ok(MetricsReport {
            jobs: u(doc.get("jobs"), "jobs")?,
            failed: u(doc.get("failed"), "failed")?,
            failures_by_kind: failures,
            workers: u(doc.get("workers"), "workers")?,
            wall_ns: u(doc.get("wall_ns"), "wall_ns")?,
            total,
            stages: StageDistributions {
                unwrap: hist("unwrap")?,
                smooth: hist("smooth")?,
                pairs: hist("pairs")?,
                solve: hist("solve")?,
                adaptive: hist("adaptive")?,
                job_busy: hist("job_busy")?,
                queue_wait: hist("queue_wait")?,
                execute: hist("execute")?,
            },
        })
    }
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn quantile_cell(h: &Histogram) -> String {
    format!("{:.0}/{:.0}/{:.0}", us(h.p50()), us(h.p90()), us(h.p99()))
}

impl fmt::Display for MetricsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "jobs {} ({} failed) | workers {} | wall {:.2} ms | stage-busy {:.2} ms",
            self.jobs,
            self.failed,
            self.workers,
            ms(self.wall_ns),
            ms(self.busy_ns()),
        )?;
        if !self.failures_by_kind.is_empty() {
            // Sort by kind at render time: `aggregate` already orders the
            // list, but hand-built or JSON-loaded reports may not, and
            // telemetry diffs need a stable rendering either way.
            let mut by_kind: Vec<&(String, u64)> = self.failures_by_kind.iter().collect();
            by_kind.sort_by(|(a, _), (b, _)| a.cmp(b));
            let parts: Vec<String> = by_kind
                .iter()
                .map(|(kind, count)| format!("{kind}\u{d7}{count}"))
                .collect();
            writeln!(f, "failures: {}", parts.join(" | "))?;
        }
        writeln!(
            f,
            "stages: unwrap {:.2} ms | smooth {:.2} ms | pairs {:.2} ms | solve {:.2} ms | adaptive {:.2} ms",
            ms(self.total.unwrap_ns),
            ms(self.total.smooth_ns),
            ms(self.total.pairs_ns),
            ms(self.total.solve_ns),
            ms(self.total.adaptive_ns),
        )?;
        writeln!(
            f,
            "stage p50/p90/p99 (\u{b5}s): unwrap {} | smooth {} | pairs {} | solve {} | adaptive {}",
            quantile_cell(&self.stages.unwrap),
            quantile_cell(&self.stages.smooth),
            quantile_cell(&self.stages.pairs),
            quantile_cell(&self.stages.solve),
            quantile_cell(&self.stages.adaptive),
        )?;
        writeln!(
            f,
            "job p50/p90/p99 (\u{b5}s): busy {} | queue-wait {} | execute {}",
            quantile_cell(&self.stages.job_busy),
            quantile_cell(&self.stages.queue_wait),
            quantile_cell(&self.stages.execute),
        )?;
        write!(
            f,
            "counts: {} solves | {} IRLS iters ({} unconverged) | {} equations | {} reads dropped | {} adaptive trials ({} skipped)",
            self.total.solves,
            self.total.irls_iterations,
            self.total.irls_unconverged,
            self.total.equations,
            self.total.reads_dropped,
            self.total.adaptive_trials,
            self.total.adaptive_skipped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_sums_and_counts_failures() {
        let a = StageMetrics {
            solves: 2,
            solve_ns: 100,
            ..StageMetrics::default()
        };
        let b = StageMetrics {
            solves: 3,
            solve_ns: 50,
            ..StageMetrics::default()
        };
        let results: Vec<Result<JobOutput, CoreError>> = vec![Err(CoreError::InvalidConfig {
            parameter: "x",
            found: "y".to_string(),
        })];
        let report = MetricsReport::aggregate(&[a, b], &results, &[], 4, 1234);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.workers, 4);
        assert_eq!(report.total.solves, 5);
        assert_eq!(report.total.solve_ns, 150);
        // The solve distribution saw both jobs' stage times.
        assert_eq!(report.stages.solve.count(), 2);
        assert_eq!(report.stages.solve.max(), 100);
    }

    #[test]
    fn busy_ns_is_the_sum_of_disjoint_stage_times() {
        // A crafted report: 40 ns of disjoint pipeline stages, a 100 ns
        // adaptive sweep of which 70 ns re-ran pipeline stages (already
        // counted) and 30 ns was sweep-exclusive orchestration.
        let m = StageMetrics {
            unwrap_ns: 10,
            smooth_ns: 5,
            pairs_ns: 10,
            solve_ns: 15,
            adaptive_ns: 100,
            adaptive_exclusive_ns: 30,
            ..StageMetrics::default()
        };
        let report = MetricsReport::aggregate(&[m], &[], &[], 1, 500);
        assert_eq!(report.busy_ns(), 40 + 30);
        // The old max() heuristic would have reported 100 here, silently
        // dropping the pipeline time spent outside the sweep.
        assert_ne!(
            report.busy_ns(),
            report.total.pipeline_ns().max(report.total.adaptive_ns)
        );
    }

    #[test]
    fn failures_are_broken_down_by_kind_in_sorted_order() {
        let results: Vec<Result<JobOutput, CoreError>> = vec![
            Err(CoreError::NoPairs),
            Err(CoreError::TooFewMeasurements { got: 1, needed: 4 }),
            Err(CoreError::NoPairs),
        ];
        let report = MetricsReport::aggregate(&[], &results, &[], 1, 0);
        assert_eq!(report.failed, 3);
        assert_eq!(
            report.failures_by_kind,
            vec![
                ("no_pairs".to_string(), 2),
                ("too_few_measurements".to_string(), 1)
            ]
        );
        let text = report.to_string();
        assert!(text.contains("no_pairs\u{d7}2"), "{text}");
        assert!(text.contains("too_few_measurements\u{d7}1"), "{text}");
    }

    #[test]
    fn display_mentions_all_stages_and_percentiles() {
        let report = MetricsReport::aggregate(&[], &[], &[], 1, 0);
        let text = report.to_string();
        for needle in [
            "unwrap",
            "smooth",
            "pairs",
            "solve",
            "adaptive",
            "IRLS",
            "unconverged",
            "p50/p90/p99",
            "queue-wait",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
        // No failures → no failure line.
        assert!(!text.contains("failures:"), "{text}");
    }

    #[test]
    fn json_round_trip_preserves_the_whole_report() {
        let m = StageMetrics {
            unwrap_ns: 11,
            smooth_ns: 7,
            pairs_ns: 13,
            solve_ns: 29,
            adaptive_ns: 100,
            adaptive_exclusive_ns: 40,
            solves: 3,
            irls_iterations: 9,
            irls_unconverged: 1,
            equations: 120,
            reads_dropped: 4,
            adaptive_trials: 30,
            adaptive_skipped: 6,
            ..StageMetrics::default()
        };
        let results: Vec<Result<JobOutput, CoreError>> = vec![Err(CoreError::NoPairs)];
        let timings = [JobTiming {
            queue_wait_ns: 1_000,
            execute_ns: 55_000,
        }];
        let report = MetricsReport::aggregate(&[m], &results, &timings, 2, 777);
        let text = report.to_json_string();
        let back = MetricsReport::from_json_str(&text).expect("well-formed");
        assert_eq!(report, back);
    }

    #[test]
    fn record_into_populates_registry() {
        let m = StageMetrics {
            solve_ns: 100,
            solves: 1,
            irls_unconverged: 1,
            ..StageMetrics::default()
        };
        let results: Vec<Result<JobOutput, CoreError>> = vec![Err(CoreError::NoPairs)];
        let report = MetricsReport::aggregate(&[m], &results, &[], 2, 999);
        let registry = Registry::new();
        report.record_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.jobs"), Some(1));
        assert_eq!(snap.counter("engine.failures.no_pairs"), Some(1));
        assert_eq!(snap.gauge("engine.workers"), Some(2.0));
        assert_eq!(snap.counter("engine.irls_unconverged"), Some(1));
        assert_eq!(
            snap.histogram("engine.stage.solve_ns").map(|h| h.count()),
            Some(1)
        );
        // Accumulation across batches.
        report.record_into(&registry);
        assert_eq!(registry.snapshot().counter("engine.jobs"), Some(2));
    }
}
