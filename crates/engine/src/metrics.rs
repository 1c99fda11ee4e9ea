//! Batch-level aggregation of per-job stage metrics.
//!
//! [`MetricsReport`] aggregates the engine's per-job [`StageMetrics`]
//! counters into [`MetricsReport::total`] and keeps the distributions of
//! the two job timings only the engine measures, queue wait and execute,
//! so tail latency (p50/p90/p99/max) is visible instead of being averaged
//! away. Per-stage time is measured by the `lion.*` spans, not here.
//! Failures are counted per [`CoreError`] kind, not just in aggregate.

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

/// Aggregated instrumentation for one batch run: job/worker/wall-clock
/// accounting, the sum of every job's [`StageMetrics`], the per-job
/// queue-wait and execute distributions, and a per-error-kind failure
/// breakdown.
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
    /// Per-job queue wait (batch start → worker pickup).
    pub queue_wait: Histogram,
    /// Per-job execution time on the worker.
    pub execute: Histogram,
}

impl MetricsReport {
    /// Sums `job_metrics`, builds the queue-wait and execute
    /// distributions out of `timings`, and counts failures (total and per
    /// error kind) out of `results`.
    pub fn aggregate(
        job_metrics: &[StageMetrics],
        results: &[Result<JobOutput, CoreError>],
        timings: &[JobTiming],
        workers: usize,
        wall_ns: u64,
    ) -> Self {
        let mut total = StageMetrics::default();
        for m in job_metrics {
            total.merge(m);
        }
        let mut queue_wait = Histogram::new();
        let mut execute = Histogram::new();
        for timing in timings {
            queue_wait.record(timing.queue_wait_ns);
            execute.record(timing.execute_ns);
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
            queue_wait,
            execute,
        }
    }

    /// Records this report into a telemetry registry under `engine.*`
    /// names: job/failure counters (one per error kind), the stage
    /// counters, and the `engine.stage.queue_wait_ns` and
    /// `engine.stage.execute_ns` histograms. Repeated calls accumulate,
    /// so a registry tracks a whole sequence of batches; the `lion-obs`
    /// exporters then render its snapshots as JSON lines or Prometheus
    /// text.
    pub fn record_into(&self, registry: &Registry) {
        registry.counter_add("engine.jobs", self.jobs);
        registry.counter_add("engine.failed", self.failed);
        for (kind, count) in &self.failures_by_kind {
            registry.counter_add(&format!("engine.failures.{kind}"), *count);
        }
        registry.counter_add("engine.wall_ns", self.wall_ns);
        registry.gauge_set("engine.workers", self.workers as f64);
        registry.counter_add("engine.solves", self.total.solves);
        registry.counter_add("engine.irls_iterations", self.total.irls_iterations);
        registry.counter_add("engine.irls_unconverged", self.total.irls_unconverged);
        registry.counter_add("engine.equations", self.total.equations);
        registry.counter_add("engine.reads_dropped", self.total.reads_dropped);
        registry.counter_add("engine.adaptive_trials", self.total.adaptive_trials);
        registry.counter_add("engine.adaptive_skipped", self.total.adaptive_skipped);
        registry.counter_add(
            "engine.adaptive_cells_reused",
            self.total.adaptive_cells_reused,
        );
        registry.histogram_merge("engine.stage.queue_wait_ns", &self.queue_wait);
        registry.histogram_merge("engine.stage.execute_ns", &self.execute);
    }

    /// Full-fidelity JSON encoding, the exact inverse of
    /// [`MetricsReport::from_json_str`]. Rendered by hand because the
    /// vendored `serde` is a no-op stub (see `vendor/README.md`); the
    /// field layout mirrors the `Serialize` derive so restoring real
    /// serde keeps the same shape. `adaptive_gram_rebuilds` is always 0
    /// and is not encoded.
    pub fn to_json_string(&self) -> String {
        let t = &self.total;
        let failures = self
            .failures_by_kind
            .iter()
            .map(|(k, n)| format!("[\"{}\",{n}]", lion_obs::json::escape(k)))
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"jobs\":{},\"failed\":{},\"failures_by_kind\":[{}],\"workers\":{},\
             \"wall_ns\":{},\"total\":{{\"solves\":{},\"irls_iterations\":{},\
             \"irls_unconverged\":{},\"equations\":{},\"reads_dropped\":{},\
             \"adaptive_trials\":{},\"adaptive_skipped\":{},\"adaptive_cells_reused\":{}}},\
             \"queue_wait\":{},\"execute\":{}}}",
            self.jobs,
            self.failed,
            failures,
            self.workers,
            self.wall_ns,
            t.solves,
            t.irls_iterations,
            t.irls_unconverged,
            t.equations,
            t.reads_dropped,
            t.adaptive_trials,
            t.adaptive_skipped,
            t.adaptive_cells_reused,
            self.queue_wait.to_json(),
            self.execute.to_json(),
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
            solves: u(total_doc.get("solves"), "solves")?,
            irls_iterations: u(total_doc.get("irls_iterations"), "irls_iterations")?,
            irls_unconverged: u(total_doc.get("irls_unconverged"), "irls_unconverged")?,
            equations: u(total_doc.get("equations"), "equations")?,
            reads_dropped: u(total_doc.get("reads_dropped"), "reads_dropped")?,
            adaptive_trials: u(total_doc.get("adaptive_trials"), "adaptive_trials")?,
            adaptive_skipped: u(total_doc.get("adaptive_skipped"), "adaptive_skipped")?,
            adaptive_cells_reused: u(
                total_doc.get("adaptive_cells_reused"),
                "adaptive_cells_reused",
            )?,
            adaptive_gram_rebuilds: 0,
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
        let hist = |name: &str| -> Result<Histogram, String> {
            Histogram::from_json(
                doc.get(name)
                    .ok_or_else(|| format!("metrics report: missing {name}"))?,
            )
        };
        Ok(MetricsReport {
            jobs: u(doc.get("jobs"), "jobs")?,
            failed: u(doc.get("failed"), "failed")?,
            failures_by_kind: failures,
            workers: u(doc.get("workers"), "workers")?,
            wall_ns: u(doc.get("wall_ns"), "wall_ns")?,
            total,
            queue_wait: hist("queue_wait")?,
            execute: hist("execute")?,
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
            "jobs {} ({} failed) | workers {} | wall {:.2} ms",
            self.jobs,
            self.failed,
            self.workers,
            ms(self.wall_ns),
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
            "job p50/p90/p99 (\u{b5}s): queue-wait {} | execute {}",
            quantile_cell(&self.queue_wait),
            quantile_cell(&self.execute),
        )?;
        write!(
            f,
            "counts: {} solves | {} IRLS iters ({} unconverged) | {} equations | {} reads dropped | {} adaptive trials ({} skipped, {} reused)",
            self.total.solves,
            self.total.irls_iterations,
            self.total.irls_unconverged,
            self.total.equations,
            self.total.reads_dropped,
            self.total.adaptive_trials,
            self.total.adaptive_skipped,
            self.total.adaptive_cells_reused,
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
            ..StageMetrics::default()
        };
        let b = StageMetrics {
            solves: 3,
            ..StageMetrics::default()
        };
        let results: Vec<Result<JobOutput, CoreError>> = vec![Err(CoreError::InvalidConfig {
            parameter: "x",
            found: "y".to_string(),
        })];
        let timings = [
            JobTiming {
                queue_wait_ns: 10,
                execute_ns: 100,
            },
            JobTiming {
                queue_wait_ns: 20,
                execute_ns: 50,
            },
        ];
        let report = MetricsReport::aggregate(&[a, b], &results, &timings, 4, 1234);
        assert_eq!(report.jobs, 2);
        assert_eq!(report.failed, 1);
        assert_eq!(report.workers, 4);
        assert_eq!(report.total.solves, 5);
        // The execute distribution saw both jobs' timings.
        assert_eq!(report.execute.count(), 2);
        assert_eq!(report.execute.max(), 100);
        assert_eq!(report.queue_wait.count(), 2);
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
    fn display_mentions_counters_and_percentiles() {
        let report = MetricsReport::aggregate(&[], &[], &[], 1, 0);
        let text = report.to_string();
        for needle in [
            "solves",
            "adaptive",
            "reused",
            "IRLS",
            "unconverged",
            "p50/p90/p99",
            "queue-wait",
            "execute",
        ] {
            assert!(text.contains(needle), "missing {needle}: {text}");
        }
        // No failures → no failure line.
        assert!(!text.contains("failures:"), "{text}");
    }

    #[test]
    fn json_round_trip_preserves_the_whole_report() {
        let m = StageMetrics {
            solves: 3,
            irls_iterations: 9,
            irls_unconverged: 1,
            equations: 120,
            reads_dropped: 4,
            adaptive_trials: 30,
            adaptive_skipped: 6,
            adaptive_cells_reused: 12,
            adaptive_gram_rebuilds: 0,
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
            solves: 1,
            irls_unconverged: 1,
            adaptive_cells_reused: 5,
            ..StageMetrics::default()
        };
        let results: Vec<Result<JobOutput, CoreError>> = vec![Err(CoreError::NoPairs)];
        let timings = [JobTiming {
            queue_wait_ns: 10,
            execute_ns: 100,
        }];
        let report = MetricsReport::aggregate(&[m], &results, &timings, 2, 999);
        let registry = Registry::new();
        report.record_into(&registry);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("engine.jobs"), Some(1));
        assert_eq!(snap.counter("engine.failures.no_pairs"), Some(1));
        assert_eq!(snap.gauge("engine.workers"), Some(2.0));
        assert_eq!(snap.counter("engine.irls_unconverged"), Some(1));
        assert_eq!(snap.counter("engine.adaptive_cells_reused"), Some(5));
        assert_eq!(
            snap.histogram("engine.stage.execute_ns").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(snap.histogram("engine.stage.solve_ns"), None);
        assert_eq!(snap.counter("engine.busy_ns"), None);
        // Accumulation across batches.
        report.record_into(&registry);
        assert_eq!(registry.snapshot().counter("engine.jobs"), Some(2));
    }
}
