//! Deterministic alerting over stored samples.
//!
//! An [`AlertEngine`] evaluates [`AlertRule`]s against a [`Tsdb`] —
//! never against live metrics, so every verdict is reproducible from
//! stored history alone. A rule compares an expression against a
//! threshold with a `for`-duration and a hysteresis band, driving the
//! classic inactive → pending → firing state machine. A firing alert
//! resolves only once the value falls to the *clear* threshold, so
//! values oscillating inside the band cannot flap the alert.
//!
//! Evaluation happens at sample timestamps supplied by the caller (the
//! hub's sampler), so under a [`ManualClock`](crate::ManualClock) the
//! full transition history is bit-identical run to run — the property
//! the worker-count parity gate asserts. When an alert over a histogram
//! window fires, its annotations carry the exemplars recorded in that
//! window (trace ids linking to [`FlightRecorder`](crate::FlightRecorder)
//! span trees).

use std::collections::VecDeque;

use crate::json;
use crate::tsdb::Tsdb;

/// Resolved alerts retained for `/alerts`.
const RESOLVED_RETAINED: usize = 32;
/// Transition log entries retained (newest kept).
const TRANSITIONS_RETAINED: usize = 256;

/// A value derived from stored samples, evaluated at a point in time.
#[derive(Debug, Clone, PartialEq)]
pub enum AlertExpr {
    /// The `q`-quantile of a histogram series over the trailing window,
    /// rebuilt from stored bucket deltas.
    WindowQuantile {
        /// Histogram series name.
        series: String,
        /// Quantile in `[0, 1]`.
        q: f64,
        /// Trailing window width.
        window_ns: u64,
    },
    /// The most recent stored value of a gauge series.
    GaugeLast {
        /// Gauge series name.
        series: String,
    },
}

impl AlertExpr {
    /// Evaluates against stored samples at `now_ns`. `None` means "no
    /// data" (missing series or empty window), which deliberately never
    /// changes alert state.
    pub fn evaluate(&self, tsdb: &Tsdb, now_ns: u64) -> Option<f64> {
        match self {
            AlertExpr::WindowQuantile {
                series,
                q,
                window_ns,
            } => tsdb.window_quantile(series, *q, *window_ns, now_ns),
            AlertExpr::GaugeLast { series } => tsdb.gauge_last(series),
        }
    }

    /// The histogram series this expression windows over, if any —
    /// the source for exemplar annotations.
    fn histogram_series(&self) -> Option<(&str, u64)> {
        match self {
            AlertExpr::WindowQuantile {
                series, window_ns, ..
            } => Some((series, *window_ns)),
            _ => None,
        }
    }

    /// A compact human-readable form for JSON and summaries.
    pub fn describe(&self) -> String {
        match self {
            AlertExpr::WindowQuantile {
                series,
                q,
                window_ns,
            } => format!("quantile({q}, {series}[{}s])", window_ns / 1_000_000_000),
            AlertExpr::GaugeLast { series } => format!("last({series})"),
        }
    }
}

/// A threshold alert with `for`-duration and hysteresis: it breaches
/// while `value > threshold`.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertRule {
    /// Alert name (unique within an engine).
    pub name: String,
    /// The evaluated expression.
    pub expr: AlertExpr,
    /// Breach threshold.
    pub threshold: f64,
    /// Hysteresis: a firing alert resolves only once
    /// `value <= clear_threshold`.
    pub clear_threshold: f64,
    /// The breach must persist this long before the alert fires.
    pub for_ns: u64,
    /// Static annotations; enriched with dynamic context at fire time.
    pub annotations: Vec<(String, String)>,
}

impl AlertRule {
    /// An alert that fires when `expr > threshold`.
    pub fn above(name: impl Into<String>, expr: AlertExpr, threshold: f64) -> AlertRule {
        AlertRule {
            name: name.into(),
            expr,
            threshold,
            clear_threshold: threshold,
            for_ns: 0,
            annotations: Vec::new(),
        }
    }

    /// Sets the hysteresis clear threshold.
    pub fn clear_at(mut self, clear_threshold: f64) -> AlertRule {
        self.clear_threshold = clear_threshold;
        self
    }

    /// Requires the breach to persist `for_ns` before firing.
    pub fn for_duration(mut self, for_ns: u64) -> AlertRule {
        self.for_ns = for_ns;
        self
    }

    /// Adds a static annotation.
    pub fn annotate(mut self, key: impl Into<String>, value: impl Into<String>) -> AlertRule {
        self.annotations.push((key.into(), value.into()));
        self
    }
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Not breaching.
    Inactive,
    /// Breaching, but not yet for the rule's `for` duration.
    Pending,
    /// Breaching past the `for` duration.
    Firing,
}

impl AlertState {
    /// Wire label: `inactive`, `pending`, or `firing`.
    pub fn label(self) -> &'static str {
        match self {
            AlertState::Inactive => "inactive",
            AlertState::Pending => "pending",
            AlertState::Firing => "firing",
        }
    }
}

/// One state-machine edge, in evaluation order. The full log (bounded,
/// newest retained) is the parity gate's comparison artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct AlertTransition {
    /// Rule name.
    pub rule: String,
    /// State before.
    pub from: AlertState,
    /// State after.
    pub to: AlertState,
    /// Evaluation timestamp.
    pub at_ns: u64,
    /// The expression value that drove the edge.
    pub value: f64,
}

/// A resolved firing, retained for `/alerts`.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedAlert {
    /// Rule name.
    pub rule: String,
    /// When the alert entered `Firing`.
    pub fired_at_ns: u64,
    /// When it resolved.
    pub resolved_at_ns: u64,
    /// The worst value observed while pending/firing.
    pub peak_value: f64,
}

/// Per-rule runtime state.
#[derive(Debug, Clone)]
struct RuleRuntime {
    state: AlertState,
    /// When the current pending/firing episode began breaching.
    breach_since_ns: u64,
    /// When the alert entered `Firing` (valid while firing).
    fired_at_ns: u64,
    last_value: Option<f64>,
    peak_value: f64,
    /// Dynamic annotations captured at fire time.
    fire_annotations: Vec<(String, String)>,
}

impl RuleRuntime {
    fn new() -> RuleRuntime {
        RuleRuntime {
            state: AlertState::Inactive,
            breach_since_ns: 0,
            fired_at_ns: 0,
            last_value: None,
            peak_value: 0.0,
            fire_annotations: Vec::new(),
        }
    }
}

/// Evaluates alert rules against a [`Tsdb`] at sample timestamps,
/// maintaining deterministic alert state.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<AlertRule>,
    runtime: Vec<RuleRuntime>,
    resolved: VecDeque<ResolvedAlert>,
    transitions: VecDeque<AlertTransition>,
    evaluations: u64,
    last_eval_ns: u64,
}

impl AlertEngine {
    /// Creates an engine over the given rules.
    pub fn new(rules: Vec<AlertRule>) -> AlertEngine {
        let runtime = rules.iter().map(|_| RuleRuntime::new()).collect();
        AlertEngine {
            rules,
            runtime,
            resolved: VecDeque::new(),
            transitions: VecDeque::new(),
            evaluations: 0,
            last_eval_ns: 0,
        }
    }

    /// Runs one evaluation pass at `now_ns` over every rule in
    /// declaration order. Returns the transitions this pass produced.
    pub fn evaluate(&mut self, tsdb: &Tsdb, now_ns: u64) -> Vec<AlertTransition> {
        self.evaluations += 1;
        self.last_eval_ns = now_ns;
        let mut edges = Vec::new();
        for (rule, rt) in self.rules.iter().zip(self.runtime.iter_mut()) {
            // No data → hold state. A dead sampler must not resolve a
            // firing alert or age a pending one into firing.
            let Some(value) = rule.expr.evaluate(tsdb, now_ns) else {
                rt.last_value = None;
                continue;
            };
            rt.last_value = Some(value);
            let from = rt.state;
            match rt.state {
                AlertState::Inactive => {
                    if value > rule.threshold {
                        rt.breach_since_ns = now_ns;
                        rt.peak_value = value;
                        if rule.for_ns == 0 {
                            rt.state = AlertState::Firing;
                            rt.fired_at_ns = now_ns;
                            rt.fire_annotations = fire_annotations(rule, value, tsdb, now_ns);
                        } else {
                            rt.state = AlertState::Pending;
                        }
                    }
                }
                AlertState::Pending => {
                    if value > rule.threshold {
                        rt.peak_value = rt.peak_value.max(value);
                        if now_ns.saturating_sub(rt.breach_since_ns) >= rule.for_ns {
                            rt.state = AlertState::Firing;
                            rt.fired_at_ns = now_ns;
                            rt.fire_annotations = fire_annotations(rule, value, tsdb, now_ns);
                        }
                    } else {
                        rt.state = AlertState::Inactive;
                    }
                }
                AlertState::Firing => {
                    if value <= rule.clear_threshold {
                        rt.state = AlertState::Inactive;
                        self.resolved.push_back(ResolvedAlert {
                            rule: rule.name.clone(),
                            fired_at_ns: rt.fired_at_ns,
                            resolved_at_ns: now_ns,
                            peak_value: rt.peak_value,
                        });
                        if self.resolved.len() > RESOLVED_RETAINED {
                            self.resolved.pop_front();
                        }
                        rt.fire_annotations.clear();
                    } else {
                        rt.peak_value = rt.peak_value.max(value);
                    }
                }
            }
            if rt.state != from {
                edges.push(AlertTransition {
                    rule: rule.name.clone(),
                    from,
                    to: rt.state,
                    at_ns: now_ns,
                    value,
                });
            }
        }
        for edge in &edges {
            self.transitions.push_back(edge.clone());
            if self.transitions.len() > TRANSITIONS_RETAINED {
                self.transitions.pop_front();
            }
        }
        edges
    }

    /// Rules currently firing, in declaration order.
    pub fn firing(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.runtime)
            .filter(|(_, rt)| rt.state == AlertState::Firing)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Rules currently pending.
    pub fn pending(&self) -> Vec<&str> {
        self.rules
            .iter()
            .zip(&self.runtime)
            .filter(|(_, rt)| rt.state == AlertState::Pending)
            .map(|(r, _)| r.name.as_str())
            .collect()
    }

    /// Recently-resolved firings, oldest first.
    pub fn resolved(&self) -> impl Iterator<Item = &ResolvedAlert> {
        self.resolved.iter()
    }

    /// The bounded transition log, oldest first.
    pub fn transitions(&self) -> impl Iterator<Item = &AlertTransition> {
        self.transitions.iter()
    }

    /// Evaluation passes run.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// One-line status for demo output.
    pub fn summary(&self) -> String {
        let firing = self.firing();
        let firing_list = if firing.is_empty() {
            String::new()
        } else {
            format!(" [{}]", firing.join(", "))
        };
        format!(
            "alerts: {} firing{}, {} pending, {} resolved retained ({} evaluations)",
            firing.len(),
            firing_list,
            self.pending().len(),
            self.resolved.len(),
            self.evaluations
        )
    }

    /// Deterministic JSON for `/alerts`: every rule with its state and
    /// last value, plus the recently-resolved ring.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"evaluations\":{},\"last_eval_ns\":{},\"rules\":[",
            self.evaluations, self.last_eval_ns
        );
        for (i, (rule, rt)) in self.rules.iter().zip(&self.runtime).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"expr\":\"{}\",\"state\":\"{}\",\"threshold\":{},\"clear_threshold\":{},\"for_ns\":{}",
                json::escape(&rule.name),
                json::escape(&rule.expr.describe()),
                rt.state.label(),
                json::number(rule.threshold),
                json::number(rule.clear_threshold),
                rule.for_ns
            ));
            let value = rt.last_value.unwrap_or(f64::NAN);
            out.push_str(&format!(",\"value\":{}", json::number(value)));
            if rt.state == AlertState::Firing {
                out.push_str(&format!(
                    ",\"fired_at_ns\":{},\"peak_value\":{}",
                    rt.fired_at_ns,
                    json::number(rt.peak_value)
                ));
            }
            if rt.state == AlertState::Pending {
                out.push_str(&format!(",\"pending_since_ns\":{}", rt.breach_since_ns));
            }
            let annotations: Vec<&(String, String)> = rule
                .annotations
                .iter()
                .chain(rt.fire_annotations.iter())
                .collect();
            if !annotations.is_empty() {
                out.push_str(",\"annotations\":{");
                for (j, (k, v)) in annotations.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&format!("\"{}\":\"{}\"", json::escape(k), json::escape(v)));
                }
                out.push('}');
            }
            out.push('}');
        }
        out.push_str("],\"resolved\":[");
        for (i, r) in self.resolved.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":\"{}\",\"fired_at_ns\":{},\"resolved_at_ns\":{},\"peak_value\":{}}}",
                json::escape(&r.rule),
                r.fired_at_ns,
                r.resolved_at_ns,
                json::number(r.peak_value)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Dynamic annotations captured the moment a rule fires: the driving
/// value and trace-id exemplars from the offending histogram window.
fn fire_annotations(
    rule: &AlertRule,
    value: f64,
    tsdb: &Tsdb,
    now_ns: u64,
) -> Vec<(String, String)> {
    let mut out = vec![("fired_value".to_string(), format!("{value}"))];
    if let Some((series, window_ns)) = rule.expr.histogram_series() {
        let exemplars = tsdb.window_exemplars(series, window_ns, now_ns);
        if !exemplars.is_empty() {
            let ids: Vec<String> = exemplars
                .iter()
                .rev() // largest values first
                .map(|e| format!("{:#x}", e.trace_id))
                .collect();
            out.push(("exemplar_trace_ids".to_string(), ids.join(",")));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tsdb::TsdbConfig;

    fn gauge_rule(for_ns: u64) -> AlertRule {
        AlertRule::above(
            "g_high",
            AlertExpr::GaugeLast {
                series: "g".to_string(),
            },
            10.0,
        )
        .clear_at(5.0)
        .for_duration(for_ns)
    }

    #[test]
    fn pending_for_duration_then_firing_then_hysteresis_resolve() {
        let db = Tsdb::new(TsdbConfig::default());
        let mut engine = AlertEngine::new(vec![gauge_rule(2_000_000_000)]);
        let sec = 1_000_000_000u64;

        db.push_gauge("g", 0, 1.0);
        assert!(engine.evaluate(&db, 0).is_empty());

        // Breach → pending.
        db.push_gauge("g", sec, 20.0);
        let edges = engine.evaluate(&db, sec);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].to, AlertState::Pending);

        // Still breaching but under the for-duration.
        db.push_gauge("g", 2 * sec, 25.0);
        assert!(engine.evaluate(&db, 2 * sec).is_empty());

        // Past the for-duration → firing.
        db.push_gauge("g", 3 * sec, 22.0);
        let edges = engine.evaluate(&db, 3 * sec);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].to, AlertState::Firing);

        // Inside the hysteresis band (5 < 7 <= 10): still firing.
        db.push_gauge("g", 4 * sec, 7.0);
        assert!(engine.evaluate(&db, 4 * sec).is_empty());
        assert_eq!(engine.firing(), vec!["g_high"]);

        // Below the clear threshold → resolved.
        db.push_gauge("g", 5 * sec, 4.0);
        let edges = engine.evaluate(&db, 5 * sec);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].to, AlertState::Inactive);
        let resolved: Vec<_> = engine.resolved().collect();
        assert_eq!(resolved.len(), 1);
        assert_eq!(resolved[0].fired_at_ns, 3 * sec);
        assert_eq!(resolved[0].resolved_at_ns, 5 * sec);
        assert_eq!(resolved[0].peak_value, 25.0);
    }

    #[test]
    fn pending_resets_when_breach_stops_early() {
        let db = Tsdb::new(TsdbConfig::default());
        let mut engine = AlertEngine::new(vec![gauge_rule(10_000_000_000)]);
        db.push_gauge("g", 0, 20.0);
        engine.evaluate(&db, 0);
        assert_eq!(engine.pending(), vec!["g_high"]);
        db.push_gauge("g", 1, 1.0);
        engine.evaluate(&db, 1);
        assert!(engine.pending().is_empty());
        assert!(engine.firing().is_empty());
        // The aborted pending episode never fired, so nothing resolved.
        assert_eq!(engine.resolved().count(), 0);
    }

    #[test]
    fn no_data_holds_state() {
        let db = Tsdb::new(TsdbConfig::default());
        let mut engine = AlertEngine::new(vec![gauge_rule(0)]);
        db.push_gauge("g", 0, 20.0);
        engine.evaluate(&db, 0);
        assert_eq!(engine.firing(), vec!["g_high"]);
        // Evaluate against a different (empty) store: no data, still firing.
        let empty = Tsdb::new(TsdbConfig::default());
        let edges = engine.evaluate(&empty, 1_000_000_000);
        assert!(edges.is_empty());
        assert_eq!(engine.firing(), vec!["g_high"]);
        let json = engine.to_json();
        assert!(json.contains("\"value\":null"), "{json}");
    }

    #[test]
    fn fire_annotations_capture_exemplars() {
        use crate::hist::Exemplar;
        let db = Tsdb::new(TsdbConfig::default());
        // One slow observation carrying a trace id, in bucket space.
        let mut h = crate::hist::Histogram::new();
        h.record_with_exemplar(2_000_000, 0xabc);
        let (buckets, c, s) = h.sparse_delta(None);
        db.push_histogram_delta(
            "lat",
            0,
            c,
            s,
            buckets,
            vec![Exemplar {
                value: 2_000_000,
                trace_id: 0xabc,
            }],
        );
        let rule = AlertRule::above(
            "lat_p99",
            AlertExpr::WindowQuantile {
                series: "lat".to_string(),
                q: 0.99,
                window_ns: 60_000_000_000,
            },
            1_000_000.0,
        );
        let mut engine = AlertEngine::new(vec![rule]);
        engine.evaluate(&db, 0);
        let json = engine.to_json();
        assert!(json.contains("\"exemplar_trace_ids\":\"0xabc\""), "{json}");
        assert!(json.contains("\"state\":\"firing\""), "{json}");
    }
}
