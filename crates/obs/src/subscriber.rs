//! Structured events and timed spans, modeled on `tracing`.
//!
//! A [`Subscriber`] receives [`Event`]s and closed [`SpanClose`]s. One is
//! installed process-wide ([`set_global_subscriber`]) and sees every
//! thread's telemetry, alongside the flight recorder when one is
//! installed.
//!
//! Instrumented code pays almost nothing when no subscriber is installed:
//! the [`span!`](crate::span) and [`event!`](crate::event) macros check a
//! single relaxed atomic ([`enabled`]) and skip field construction, clock
//! reads, and dispatch entirely on the disabled path. This is what lets
//! the hot solver loops stay instrumented unconditionally.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::hist::Histogram;
use crate::recorder;
use crate::trace;

/// Severity of an [`Event`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Fine-grained tracing.
    Trace,
    /// Debugging detail.
    Debug,
    /// Normal operational signal.
    Info,
    /// Something degraded.
    Warn,
    /// Something failed.
    Error,
}

impl fmt::Display for Level {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Level::Trace => "TRACE",
            Level::Debug => "DEBUG",
            Level::Info => "INFO",
            Level::Warn => "WARN",
            Level::Error => "ERROR",
        })
    }
}

/// A typed field value attached to an event.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer.
    U64(u64),
    /// Float.
    F64(f64),
    /// Boolean.
    Bool(bool),
    /// Static string.
    Str(&'static str),
    /// Owned string.
    Owned(String),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Str(v) => f.write_str(v),
            Value::Owned(v) => f.write_str(v),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}

impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&'static str> for Value {
    fn from(v: &'static str) -> Self {
        Value::Str(v)
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Owned(v)
    }
}

/// A structured event: target module, name, level, and typed fields.
#[derive(Debug)]
pub struct Event<'a> {
    /// Module path of the emitting code.
    pub target: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Severity.
    pub level: Level,
    /// Field key/value pairs.
    pub fields: &'a [(&'static str, Value)],
}

/// A closed (completed) span: name, measured wall time, and its position
/// in the causal trace (see [`crate::trace`]).
#[derive(Debug, Clone, PartialEq)]
pub struct SpanClose {
    /// Module path of the emitting code.
    pub target: &'static str,
    /// Span name.
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Id of the enclosing span, or `0` for a trace root.
    pub parent: u64,
    /// Trace this span belongs to (shared by the whole tree).
    pub trace_id: u64,
    /// Lane (thread) id the span ran on.
    pub thread: u64,
    /// Open time, nanoseconds since the process trace epoch.
    pub start_ns: u64,
    /// Close time, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Wall-clock duration between open and close, in nanoseconds.
    /// Always `end_ns.saturating_sub(start_ns)` — a clock anomaly yields
    /// `0`, never a wrap or panic.
    pub elapsed_ns: u64,
}

/// Receives dispatched events and closed spans.
pub trait Subscriber: Send + Sync {
    /// Called for each [`event!`](crate::event).
    fn on_event(&self, event: &Event<'_>);
    /// Called when a [`Span`] guard drops.
    fn on_span_close(&self, span: &SpanClose);
}

/// Count of installed sinks (the global subscriber slot and the flight
/// recorder). Non-zero means instrumentation must dispatch.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// Registers one more reason for instrumentation to run (used by the
/// flight recorder, which is a sink but not a [`Subscriber`]).
pub(crate) fn instrumentation_on() {
    INSTALLED.fetch_add(1, Ordering::Relaxed);
}

/// Releases a slot taken by [`instrumentation_on`].
pub(crate) fn instrumentation_off() {
    INSTALLED.fetch_sub(1, Ordering::Relaxed);
}

static GLOBAL: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Whether any subscriber is installed — the macros' fast-path check.
/// A single relaxed atomic load; when `false`, instrumentation skips all
/// other work.
#[inline(always)]
pub fn enabled() -> bool {
    INSTALLED.load(Ordering::Relaxed) != 0
}

/// Installs (or replaces) the process-wide subscriber.
pub fn set_global_subscriber(subscriber: Arc<dyn Subscriber>) {
    let mut slot = GLOBAL.write().expect("subscriber lock poisoned");
    if slot.is_none() {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
    }
    *slot = Some(subscriber);
}

/// Removes the process-wide subscriber, restoring the no-op fast path
/// (unless a flight recorder remains installed).
pub fn clear_global_subscriber() {
    let mut slot = GLOBAL.write().expect("subscriber lock poisoned");
    if slot.take().is_some() {
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Sends an event to the flight recorder (if installed) and the global
/// subscriber (if installed). Called by the [`event!`](crate::event)
/// macro after its [`enabled`] check; harmless (just slower) to call
/// directly.
pub fn dispatch_event(event: &Event<'_>) {
    recorder::record_event(event);
    if let Some(sub) = GLOBAL.read().expect("subscriber lock poisoned").as_ref() {
        sub.on_event(event);
    }
}

/// Sends a closed span to the flight recorder (if installed) and the
/// global subscriber (if installed).
pub fn dispatch_span_close(span: &SpanClose) {
    recorder::record_span_close(span);
    if let Some(sub) = GLOBAL.read().expect("subscriber lock poisoned").as_ref() {
        sub.on_span_close(span);
    }
}

/// The live half of a recording span: identity resolved at open time.
#[derive(Debug, Clone, Copy)]
struct Recording {
    id: u64,
    parent: u64,
    trace_id: u64,
    start_ns: u64,
}

/// An RAII timed span: measures wall time from construction to drop and
/// dispatches a [`SpanClose`]. When no sink is installed at construction
/// the span is inert — no clock read, no id allocation, no dispatch.
///
/// A recording span also joins the causal trace: it is pushed onto the
/// thread's span stack (see [`crate::trace`]) so spans opened inside its
/// scope become its children, and its close record carries `id`,
/// `parent`, and `trace_id` for tree reconstruction.
///
/// Created by the [`span!`](crate::span) macro.
#[derive(Debug)]
#[must_use = "a span measures the scope it is bound to; bind it to a variable"]
pub struct Span {
    target: &'static str,
    name: &'static str,
    recording: Option<Recording>,
}

impl Span {
    /// Opens a span if instrumentation is enabled, else returns an inert
    /// span.
    #[inline]
    pub fn enter(target: &'static str, name: &'static str) -> Span {
        let recording = if enabled() {
            let (id, parent, trace_id) = trace::enter_span();
            Some(Recording {
                id,
                parent,
                trace_id,
                start_ns: trace::now_ns(),
            })
        } else {
            None
        };
        Span {
            target,
            name,
            recording,
        }
    }

    /// Whether this span is actually recording.
    pub fn is_recording(&self) -> bool {
        self.recording.is_some()
    }

    /// The span's process-unique id, if recording.
    pub fn id(&self) -> Option<u64> {
        self.recording.map(|r| r.id)
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(rec) = self.recording {
            let end_ns = trace::now_ns();
            trace::exit_span(rec.id);
            dispatch_span_close(&SpanClose {
                target: self.target,
                name: self.name,
                id: rec.id,
                parent: rec.parent,
                trace_id: rec.trace_id,
                thread: trace::lane(),
                start_ns: rec.start_ns,
                end_ns,
                elapsed_ns: end_ns.saturating_sub(rec.start_ns),
            });
        }
    }
}

/// Opens a timed [`Span`] named `$name`; bind it to a local so it closes
/// at scope end. Costs one relaxed atomic load when disabled.
///
/// ```
/// let _span = lion_obs::span!("solve");
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::Span::enter(module_path!(), $name)
    };
}

/// Emits a structured [`Event`] with optional `"key" => value` fields.
/// Fields are only constructed when a subscriber is installed.
///
/// ```
/// use lion_obs::Level;
/// lion_obs::event!(Level::Info, "batch.done", "jobs" => 96u64, "failed" => 0u64);
/// ```
#[macro_export]
macro_rules! event {
    ($level:expr, $name:expr $(, $key:expr => $value:expr)* $(,)?) => {
        if $crate::enabled() {
            $crate::dispatch_event(&$crate::Event {
                target: module_path!(),
                name: $name,
                level: $level,
                fields: &[$(($key, $crate::Value::from($value))),*],
            });
        }
    };
}

/// An owned copy of a dispatched event, as stored by
/// [`CollectingSubscriber`].
#[derive(Debug, Clone, PartialEq)]
pub struct OwnedEvent {
    /// Module path of the emitting code.
    pub target: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Severity.
    pub level: Level,
    /// Field key/value pairs.
    pub fields: Vec<(&'static str, Value)>,
}

#[derive(Default)]
struct Collected {
    events: Vec<OwnedEvent>,
    spans: BTreeMap<&'static str, Histogram>,
}

/// A subscriber that stores every event and aggregates span durations
/// into one [`Histogram`] per span name. Useful in tests and as the
/// backing store for the telemetry exporters.
#[derive(Default)]
pub struct CollectingSubscriber {
    inner: Mutex<Collected>,
}

impl CollectingSubscriber {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CollectingSubscriber::default()
    }

    /// Copies out the events collected so far.
    pub fn events(&self) -> Vec<OwnedEvent> {
        self.inner
            .lock()
            .expect("collector poisoned")
            .events
            .clone()
    }

    /// The duration histogram for one span name, if any closed.
    pub fn span_histogram(&self, name: &str) -> Option<Histogram> {
        self.inner
            .lock()
            .expect("collector poisoned")
            .spans
            .get(name)
            .cloned()
    }

    /// All span names seen, with their duration histograms.
    pub fn span_histograms(&self) -> Vec<(&'static str, Histogram)> {
        self.inner
            .lock()
            .expect("collector poisoned")
            .spans
            .iter()
            .map(|(n, h)| (*n, h.clone()))
            .collect()
    }

    /// Discards everything collected so far.
    pub fn clear(&self) {
        let mut inner = self.inner.lock().expect("collector poisoned");
        inner.events.clear();
        inner.spans.clear();
    }
}

impl Subscriber for CollectingSubscriber {
    fn on_event(&self, event: &Event<'_>) {
        self.inner
            .lock()
            .expect("collector poisoned")
            .events
            .push(OwnedEvent {
                target: event.target,
                name: event.name,
                level: event.level,
                fields: event.fields.to_vec(),
            });
    }

    fn on_span_close(&self, span: &SpanClose) {
        self.inner
            .lock()
            .expect("collector poisoned")
            .spans
            .entry(span.name)
            .or_default()
            .record(span.elapsed_ns);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_record_only_while_a_sink_is_installed() {
        let _serial = crate::test_lock();
        assert!(!span!("idle").is_recording());
        let collector = Arc::new(CollectingSubscriber::new());
        set_global_subscriber(collector.clone());
        assert!(span!("active").is_recording());
        clear_global_subscriber();
        assert!(!span!("idle").is_recording());
        assert!(collector.span_histogram("active").is_some());
        assert!(collector.span_histogram("idle").is_none());
    }

    #[test]
    fn global_subscriber_collects_events_and_spans() {
        let _serial = crate::test_lock();
        let collector = Arc::new(CollectingSubscriber::new());
        set_global_subscriber(collector.clone());
        event!(Level::Info, "test.event", "k" => 3u64, "s" => "v");
        {
            let _span = span!("test.span");
        }
        clear_global_subscriber();
        let events = collector.events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].name, "test.event");
        assert_eq!(events[0].fields[0], ("k", Value::U64(3)));
        let hist = collector.span_histogram("test.span").expect("span closed");
        assert_eq!(hist.count(), 1);
        // Once cleared, events no longer reach the collector.
        event!(Level::Info, "test.after");
        assert_eq!(collector.events().len(), 1);
    }

    #[test]
    fn values_format_and_convert() {
        assert_eq!(Value::from(3usize), Value::U64(3));
        assert_eq!(Value::from(2.5f64).to_string(), "2.5");
        assert_eq!(Value::from(true).to_string(), "true");
        assert_eq!(Value::from("s").to_string(), "s");
        assert_eq!(Value::from("owned".to_string()).to_string(), "owned");
        assert_eq!(Level::Warn.to_string(), "WARN");
        assert!(Level::Error > Level::Info);
    }
}
