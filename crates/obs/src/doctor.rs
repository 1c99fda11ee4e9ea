//! Calibration-health watchdogs: windowed rules over solve telemetry.
//!
//! Latency histograms and the fleet SLO say how *fast* the pipeline is;
//! nothing there says whether the calibration is still *good*. Residual statistics
//! drift long before estimates visibly break (multipath growing as a
//! site changes, an antenna knocked out of alignment), convergence that
//! keeps un-latching signals an unstable geometry, and a shedding
//! ingress silently biases the window toward bursts. The [`Doctor`]
//! watches all of these from the stream of per-solve observations the
//! engine already produces.
//!
//! Operation: feed one [`SolveObservation`] per cadence solve via
//! [`Doctor::observe`], then ask for a [`HealthReport`]. Every rule is
//! evaluated over a rolling window of the last `window` observations,
//! so a fault is flagged within one window of its onset. The four rules
//! ([`RULES`]):
//!
//! - **`residual_drift`** — mean |weighted residual| over the recent
//!   window vs. a baseline frozen from the *first* full window (floored
//!   by `residual_floor` so a near-zero clean baseline can't make noise
//!   look like drift). Fires when the ratio exceeds
//!   `residual_drift_ratio`. This is the one answer to "is the model
//!   still explaining the data?": systematic phase corruption (a phase
//!   ramp, multipath growth) shows up in the linear model's own
//!   residuals, so no second estimator is needed to detect it.
//! - **`convergence_stall`** — converged→unconverged regressions
//!   (hysteresis un-latching, see `ConvergenceTracker`) within the
//!   window reaching `stall_regressions`.
//! - **`ingress_shed`** — fraction of offered reads shed by the bounded
//!   ingress over the window exceeding `max_shed_rate`.
//! - **`resolve_fallback`** — fraction of incremental-mode solves that
//!   fell back to the full replay path over the window exceeding
//!   `max_resolve_fallback_rate`. A stream configured for O(delta)
//!   re-solves that keeps replaying (out-of-order arrivals splicing the
//!   window, lower-dimension geometry, failing delta solves) has silently
//!   lost its latency budget; streams in plain replay mode produce no
//!   data for this rule and it reports insufficient data.
//!
//! No rule reads a clock: a report is a pure function of the
//! observation sequence, so it is identical for any engine worker count.
//! Solve latency is the fleet SLO's question ([`crate::SloTracker`]),
//! not the Doctor's. Rules appear in [`RULES`] order, and for identical
//! observation sequences the JSON and `Display` renderings are
//! byte-identical.

use std::collections::VecDeque;
use std::fmt;

use crate::json;

/// The Doctor's rule names, in report order. Fleet rollups, gauges and
/// docs take the rule set from here.
pub const RULES: [&str; 4] = [
    "residual_drift",
    "convergence_stall",
    "ingress_shed",
    "resolve_fallback",
];

/// Thresholds and window length for the watchdog rules. All rules share
/// one window so "within one watchdog window" means the same thing for
/// every failure mode.
#[derive(Debug, Clone, PartialEq)]
pub struct DoctorConfig {
    /// Observations per rolling window (≥ 2; default 8).
    pub window: usize,
    /// `residual_drift` fires when recent mean |residual| exceeds
    /// `ratio ×` the frozen baseline (default 3).
    pub residual_drift_ratio: f64,
    /// Baseline floor in residual units (meters); protects a near-zero
    /// clean baseline from flagging noise (default 0.5 mm).
    pub residual_floor: f64,
    /// `convergence_stall` fires at this many converged→unconverged
    /// regressions within the window (default 2).
    pub stall_regressions: u32,
    /// `ingress_shed` fires when shed/offered over the window exceeds
    /// this fraction (default 0.05).
    pub max_shed_rate: f64,
    /// `resolve_fallback` fires when the fraction of incremental-mode
    /// solves that fell back to full replay over the window exceeds this
    /// (default 0.5 — the periodic re-anchor alone stays well under it).
    pub max_resolve_fallback_rate: f64,
}

impl Default for DoctorConfig {
    fn default() -> Self {
        DoctorConfig {
            window: 8,
            residual_drift_ratio: 3.0,
            residual_floor: 5e-4,
            stall_regressions: 2,
            max_shed_rate: 0.05,
            max_resolve_fallback_rate: 0.5,
        }
    }
}

/// What the doctor learns from one cadence solve. Counts are deltas
/// since the previous observation, not running totals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveObservation {
    /// Stream time of the solve (seconds).
    pub time: f64,
    /// The solve's mean weighted residual (meters; sign preserved).
    pub mean_residual: f64,
    /// Whether the convergence tracker held "converged" after the solve.
    pub converged: bool,
    /// Reads accepted into the pipeline since the last observation.
    pub reads_in: u64,
    /// Reads shed by the bounded ingress since the last observation.
    pub shed: u64,
    /// Whether this solve, running in incremental resolve mode, fell
    /// back to the full replay path. `None` for streams in plain replay
    /// mode (replaying is then by design, not a fallback).
    pub resolve_fallback: Option<bool>,
}

/// Whether a rule fired, and whether it had enough data to judge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RuleStatus {
    /// Enough data, within threshold.
    Healthy,
    /// Enough data, threshold exceeded.
    Firing,
    /// Not enough observations yet to evaluate.
    Insufficient,
}

impl fmt::Display for RuleStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RuleStatus::Healthy => "healthy",
            RuleStatus::Firing => "FIRING",
            RuleStatus::Insufficient => "insufficient-data",
        })
    }
}

/// One rule's verdict: measured value vs. its firing threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct RuleReport {
    /// Rule name, one of [`RULES`].
    pub rule: &'static str,
    /// Verdict.
    pub status: RuleStatus,
    /// The measured value the rule compared (units vary per rule).
    pub value: f64,
    /// The threshold it compared against.
    pub threshold: f64,
    /// How many observations currently inform this rule. Together with
    /// [`RuleReport::samples_needed`] this makes an
    /// [`RuleStatus::Insufficient`] verdict machine-readable: `seen = 0`
    /// with the doctor already past `samples_needed` total observations
    /// means the rule is *data-starved* (e.g. no incremental-mode solves, no
    /// reads offered), while a small `seen` early in the run is an
    /// ordinary cold start.
    pub samples_seen: u64,
    /// The minimum [`RuleReport::samples_seen`] at which the rule can
    /// leave [`RuleStatus::Insufficient`].
    pub samples_needed: u64,
    /// Human-oriented context (units, window, baseline).
    pub detail: String,
}

impl RuleReport {
    /// A verdict the rule cannot reach yet: too few informative samples.
    fn insufficient(
        rule: &'static str,
        threshold: f64,
        samples_seen: u64,
        samples_needed: u64,
        detail: String,
    ) -> RuleReport {
        RuleReport {
            rule,
            status: RuleStatus::Insufficient,
            value: 0.0,
            threshold,
            samples_seen,
            samples_needed,
            detail,
        }
    }

    /// A judged verdict: [`RuleStatus::Firing`] iff `fires`.
    fn judged(
        rule: &'static str,
        value: f64,
        threshold: f64,
        fires: bool,
        samples_seen: u64,
        samples_needed: u64,
        detail: String,
    ) -> RuleReport {
        RuleReport {
            rule,
            status: if fires {
                RuleStatus::Firing
            } else {
                RuleStatus::Healthy
            },
            value,
            threshold,
            samples_seen,
            samples_needed,
            detail,
        }
    }
}

/// A deterministic health summary: every rule's verdict plus an overall
/// flag. Render with `Display` or [`HealthReport::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Observations consumed so far.
    pub observations: u64,
    /// Per-rule verdicts, in [`RULES`] order.
    pub rules: Vec<RuleReport>,
    /// `false` iff any rule is [`RuleStatus::Firing`].
    pub healthy: bool,
}

impl HealthReport {
    /// The report for one rule by name.
    pub fn rule(&self, name: &str) -> Option<&RuleReport> {
        self.rules.iter().find(|r| r.rule == name)
    }

    /// Names of the rules currently firing, in rule order.
    pub fn firing(&self) -> Vec<&'static str> {
        self.rules
            .iter()
            .filter(|r| r.status == RuleStatus::Firing)
            .map(|r| r.rule)
            .collect()
    }

    /// Renders the report as one deterministic JSON object (field order
    /// fixed; floats via Rust's shortest round-trip formatting).
    pub fn to_json(&self) -> String {
        let rules: Vec<String> = self
            .rules
            .iter()
            .map(|r| {
                format!(
                    "{{\"rule\":\"{}\",\"status\":\"{}\",\"value\":{},\"threshold\":{},\
                     \"samples_seen\":{},\"samples_needed\":{},\"detail\":\"{}\"}}",
                    json::escape(r.rule),
                    r.status,
                    json::number(r.value),
                    json::number(r.threshold),
                    r.samples_seen,
                    r.samples_needed,
                    json::escape(&r.detail),
                )
            })
            .collect();
        format!(
            "{{\"observations\":{},\"healthy\":{},\"rules\":[{}]}}",
            self.observations,
            self.healthy,
            rules.join(","),
        )
    }
}

impl fmt::Display for HealthReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "calibration health: {} ({} observations)",
            if self.healthy { "OK" } else { "DEGRADED" },
            self.observations,
        )?;
        for r in &self.rules {
            writeln!(
                f,
                "  {:18} {:17} value={:.6} threshold={:.6} samples={}/{}  {}",
                r.rule, r.status, r.value, r.threshold, r.samples_seen, r.samples_needed, r.detail,
            )?;
        }
        Ok(())
    }
}

/// The watchdog engine: feed observations, ask for reports. See the
/// module docs for the rule set.
#[derive(Debug, Clone)]
pub struct Doctor {
    config: DoctorConfig,
    recent: VecDeque<SolveObservation>,
    /// Mean |residual| of the first full window, frozen once available.
    baseline_residual: Option<f64>,
    observations: u64,
}

impl Doctor {
    /// Creates a doctor with `config` (window clamped to ≥ 2).
    pub fn new(mut config: DoctorConfig) -> Doctor {
        config.window = config.window.max(2);
        Doctor {
            config,
            recent: VecDeque::new(),
            baseline_residual: None,
            observations: 0,
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &DoctorConfig {
        &self.config
    }

    /// Consumes one per-solve observation.
    pub fn observe(&mut self, obs: SolveObservation) {
        self.observations += 1;
        self.recent.push_back(obs);
        if self.recent.len() > self.config.window {
            self.recent.pop_front();
        }
        // Freeze the residual baseline the first time a full window is
        // available: the earliest steady view of the clean system.
        if self.baseline_residual.is_none() && self.recent.len() == self.config.window {
            let mean = self
                .recent
                .iter()
                .map(|o| o.mean_residual.abs())
                .sum::<f64>()
                / self.recent.len() as f64;
            self.baseline_residual = Some(mean);
        }
    }

    /// Evaluates every rule over the current window.
    pub fn report(&self) -> HealthReport {
        let judges: [fn(&Doctor, &'static str) -> RuleReport; 4] = [
            Doctor::residual_drift,
            Doctor::convergence_stall,
            Doctor::ingress_shed,
            Doctor::resolve_fallback,
        ];
        let rules: Vec<RuleReport> = RULES
            .into_iter()
            .zip(judges)
            .map(|(rule, judge)| judge(self, rule))
            .collect();
        let healthy = rules.iter().all(|r| r.status != RuleStatus::Firing);
        HealthReport {
            observations: self.observations,
            rules,
            healthy,
        }
    }

    fn residual_drift(&self, rule: &'static str) -> RuleReport {
        let threshold = self.config.residual_drift_ratio;
        let seen = self.recent.len() as u64;
        let needed = self.config.window as u64;
        let Some(baseline) = self.baseline_residual else {
            let detail = format!("baseline not frozen yet ({seen}/{needed} observations)");
            return RuleReport::insufficient(rule, threshold, seen, needed, detail);
        };
        let floor = self.config.residual_floor.max(f64::MIN_POSITIVE);
        let baseline = baseline.max(floor);
        let recent = self
            .recent
            .iter()
            .map(|o| o.mean_residual.abs())
            .sum::<f64>()
            / self.recent.len() as f64;
        let ratio = recent / baseline;
        let fires = ratio > threshold;
        let detail = format!("recent mean |residual| {recent:.6} m vs baseline {baseline:.6} m");
        RuleReport::judged(rule, ratio, threshold, fires, seen, needed, detail)
    }

    fn convergence_stall(&self, rule: &'static str) -> RuleReport {
        let threshold = f64::from(self.config.stall_regressions);
        let seen = self.recent.len() as u64;
        if self.recent.len() < 2 {
            let detail = "need at least 2 observations".to_string();
            return RuleReport::insufficient(rule, threshold, seen, 2, detail);
        }
        let regressions = self
            .recent
            .iter()
            .zip(self.recent.iter().skip(1))
            .filter(|(prev, next)| prev.converged && !next.converged)
            .count() as u32;
        let fires = regressions >= self.config.stall_regressions;
        let value = f64::from(regressions);
        let detail = format!(
            "converged\u{2192}unconverged regressions in the last {} solves",
            self.recent.len(),
        );
        RuleReport::judged(rule, value, threshold, fires, seen, 2, detail)
    }

    fn ingress_shed(&self, rule: &'static str) -> RuleReport {
        let threshold = self.config.max_shed_rate;
        let accepted: u64 = self.recent.iter().map(|o| o.reads_in).sum();
        let shed: u64 = self.recent.iter().map(|o| o.shed).sum();
        let offered = accepted + shed;
        // Observations that actually carried reads: an empty-window
        // verdict with non-empty `recent` is data starvation, not a
        // cold start.
        let seen = self
            .recent
            .iter()
            .filter(|o| o.reads_in + o.shed > 0)
            .count() as u64;
        if offered == 0 {
            let detail = "no reads offered in the window".to_string();
            return RuleReport::insufficient(rule, threshold, seen, 1, detail);
        }
        let rate = shed as f64 / offered as f64;
        let detail = format!("{shed} of {offered} offered reads shed in the window");
        RuleReport::judged(rule, rate, threshold, rate > threshold, seen, 1, detail)
    }

    fn resolve_fallback(&self, rule: &'static str) -> RuleReport {
        let threshold = self.config.max_resolve_fallback_rate;
        let solves = self.recent.iter().map(|o| o.resolve_fallback);
        let checked = solves.clone().flatten().count() as u64;
        if checked == 0 {
            let detail = "no incremental-mode solves in the window".to_string();
            return RuleReport::insufficient(rule, threshold, 0, 1, detail);
        }
        let fallbacks = solves.filter(|&f| f == Some(true)).count() as u64;
        let rate = fallbacks as f64 / checked as f64;
        let detail = format!("{fallbacks} of {checked} incremental-mode solves replayed");
        RuleReport::judged(rule, rate, threshold, rate > threshold, checked, 1, detail)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(residual: f64, converged: bool) -> SolveObservation {
        SolveObservation {
            time: 0.0,
            mean_residual: residual,
            converged,
            reads_in: 25,
            shed: 0,
            resolve_fallback: Some(false),
        }
    }

    fn doctor_with_window(window: usize) -> Doctor {
        Doctor::new(DoctorConfig {
            window,
            ..DoctorConfig::default()
        })
    }

    #[test]
    fn clean_run_reports_all_healthy() {
        let mut doc = doctor_with_window(4);
        for _ in 0..12 {
            doc.observe(obs(1e-3, true));
        }
        let report = doc.report();
        assert!(report.healthy);
        assert!(report.firing().is_empty());
        assert!(report.rules.iter().all(|r| r.status == RuleStatus::Healthy));
    }

    #[test]
    fn rules_report_insufficient_before_data() {
        let doc = doctor_with_window(4);
        let report = doc.report();
        assert!(report.healthy, "insufficient data is not a failure");
        assert!(report
            .rules
            .iter()
            .all(|r| r.status == RuleStatus::Insufficient));
    }

    #[test]
    fn residual_drift_fires_within_one_window() {
        let mut doc = doctor_with_window(4);
        for _ in 0..4 {
            doc.observe(obs(1e-3, true));
        }
        assert!(doc.report().healthy);
        // Residuals jump 10×: must fire within the next window.
        for _ in 0..4 {
            doc.observe(obs(1e-2, true));
        }
        let report = doc.report();
        assert_eq!(report.firing(), ["residual_drift"]);
        assert!(!report.healthy);
    }

    #[test]
    fn residual_floor_suppresses_noise_on_a_clean_baseline() {
        let mut doc = Doctor::new(DoctorConfig {
            window: 4,
            residual_floor: 5e-4,
            ..DoctorConfig::default()
        });
        // Near-zero baseline, then small noise below the floor-scaled
        // threshold: ratio uses the floor, not the tiny baseline.
        for _ in 0..4 {
            doc.observe(obs(1e-9, true));
        }
        for _ in 0..4 {
            doc.observe(obs(1e-4, true));
        }
        assert!(doc.report().healthy);
    }

    #[test]
    fn convergence_stall_counts_regressions() {
        let mut doc = doctor_with_window(8);
        for converged in [true, false, true, false, true, true, true, true] {
            doc.observe(obs(1e-3, converged));
        }
        let report = doc.report();
        assert_eq!(report.firing(), ["convergence_stall"]);
        assert_eq!(report.rule("convergence_stall").unwrap().value, 2.0);
    }

    #[test]
    fn shed_rate_fires_on_overflow() {
        let mut doc = doctor_with_window(4);
        for _ in 0..4 {
            doc.observe(SolveObservation {
                shed: 5,
                ..obs(1e-3, true)
            });
        }
        let report = doc.report();
        assert_eq!(report.firing(), ["ingress_shed"]);
        let rule = report.rule("ingress_shed").unwrap();
        assert!((rule.value - 20.0 / 120.0).abs() < 1e-12);
    }

    #[test]
    fn resolve_fallback_fires_when_incremental_mode_keeps_replaying() {
        let mut doc = doctor_with_window(4);
        for _ in 0..4 {
            doc.observe(obs(1e-3, true));
        }
        assert!(doc.report().healthy);
        // 3 of 4 solves in the window fall back: above the 0.5 default.
        for fell_back in [true, true, true, false] {
            doc.observe(SolveObservation {
                resolve_fallback: Some(fell_back),
                ..obs(1e-3, true)
            });
        }
        let report = doc.report();
        assert_eq!(report.firing(), ["resolve_fallback"]);
        assert_eq!(report.rule("resolve_fallback").unwrap().value, 0.75);
    }

    #[test]
    fn resolve_fallback_without_incremental_mode_is_insufficient() {
        let mut doc = doctor_with_window(4);
        for _ in 0..6 {
            doc.observe(SolveObservation {
                resolve_fallback: None,
                ..obs(1e-3, true)
            });
        }
        let report = doc.report();
        assert!(report.healthy, "replay-mode streams produce no signal");
        let rule = report.rule("resolve_fallback").unwrap();
        assert_eq!(rule.status, RuleStatus::Insufficient);
        assert_eq!((rule.samples_seen, rule.samples_needed), (0, 1));
    }

    #[test]
    fn insufficient_rules_distinguish_cold_start_from_starvation() {
        // Cold start: no observations at all. Every rule reports
        // seen < needed with seen growing toward needed.
        let doc = doctor_with_window(4);
        let report = doc.report();
        for rule in &report.rules {
            assert_eq!(rule.status, RuleStatus::Insufficient);
            assert_eq!(rule.samples_seen, 0);
            assert!(rule.samples_needed >= 1);
        }

        // Starvation: plenty of observations, but none carrying reads.
        // The affected rule stays Insufficient with seen = 0 while
        // residual_drift has seen = needed.
        let mut doc = doctor_with_window(4);
        for _ in 0..6 {
            doc.observe(SolveObservation {
                reads_in: 0,
                shed: 0,
                ..obs(1e-3, true)
            });
        }
        let report = doc.report();
        let drift = report.rule("residual_drift").unwrap();
        assert_eq!(drift.status, RuleStatus::Healthy);
        assert_eq!((drift.samples_seen, drift.samples_needed), (4, 4));
        let shed = report.rule("ingress_shed").unwrap();
        assert_eq!(shed.status, RuleStatus::Insufficient);
        assert_eq!((shed.samples_seen, shed.samples_needed), (0, 1));

        // The pair is machine-readable from the JSON rendering.
        let json = report.to_json();
        let doc = crate::json::parse(&json).expect("valid JSON");
        let rules = doc.get("rules").and_then(|v| v.as_array()).unwrap();
        let shed_json = rules
            .iter()
            .find(|r| r.get("rule").and_then(|v| v.as_str()) == Some("ingress_shed"))
            .unwrap();
        assert_eq!(
            shed_json.get("samples_seen").and_then(|v| v.as_u64()),
            Some(0)
        );
        assert_eq!(
            shed_json.get("samples_needed").and_then(|v| v.as_u64()),
            Some(1)
        );
    }

    #[test]
    fn report_json_is_deterministic_and_parses() {
        let mut a = doctor_with_window(4);
        let mut b = doctor_with_window(4);
        for _ in 0..6 {
            a.observe(obs(1e-3, true));
            b.observe(obs(1e-3, true));
        }
        let ja = a.report().to_json();
        let jb = b.report().to_json();
        assert_eq!(ja, jb);
        let doc = crate::json::parse(&ja).expect("valid JSON");
        assert_eq!(doc.get("observations").and_then(|v| v.as_u64()), Some(6));
        assert_eq!(doc.get("healthy"), Some(&crate::json::Json::Bool(true)));
        assert_eq!(
            doc.get("rules").and_then(|v| v.as_array()).map(|a| a.len()),
            Some(RULES.len())
        );
        // Display is likewise stable.
        assert_eq!(a.report().to_string(), b.report().to_string());
    }
}
