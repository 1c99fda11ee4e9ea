//! # lion-obs
//!
//! Zero-dependency, air-gap-friendly observability for the LION
//! workspace: structured tracing, latency histograms, and exportable
//! telemetry.
//!
//! Four pieces, each usable alone:
//!
//! - **Spans and events** ([`span!`], [`event!`], [`Subscriber`]) — one
//!   process-wide subscriber in the spirit of `tracing`. With no
//!   subscriber installed the macros cost a single relaxed atomic load
//!   ([`enabled`]), so the solver hot paths stay instrumented
//!   unconditionally.
//! - **Histograms** ([`Histogram`]) — fixed-bucket log-linear (HDR-style)
//!   `u64` distributions with ≤ 6.25% relative quantization error,
//!   exactly mergeable, reporting p50/p90/p99/max. These replace bare
//!   nanosecond sums wherever a distribution matters.
//! - **Registry** ([`Registry`], [`global`]) — named counters, gauges,
//!   and histograms with deterministic (sorted) snapshots.
//! - **Exporters** ([`export`]) — JSON-lines snapshot files (with a full
//!   round-trip parser, since the vendored `serde` is a no-op stub) and
//!   Prometheus text exposition, one `# HELP`/`# TYPE` header per metric
//!   family.
//!
//! On top of those, the **live telemetry plane**: [`fleet`] rolls
//! per-stream [`doctor`] health reports into a fleet-wide report with
//! SLO budgets behind a process-global [`TelemetryHub`], [`profile`]
//! turns flight-recorder span rings into exclusive-time collapsed-stack
//! flamegraphs, and [`http`] serves everything over a zero-dependency
//! HTTP scrape endpoint ([`TelemetryServer`]) while the pipeline runs.
//! The **history plane** extends the hub with an embedded time-series
//! store ([`tsdb`]: raw/10s/1m tiers under a hard memory cap, sampled on
//! an injectable clock) behind `GET /query`. Alerting belongs to the
//! scraper: the one rule ships as a Prometheus rule file
//! (`deploy/prometheus/lion-rules.yml`).
//!
//! Each health question has one signal. "Is the calibration still
//! good?" is the [`Doctor`]'s four rules, rolled up per fleet in
//! [`FleetReport`]. "Are solves slow or failing?" is the fleet SLO burn
//! rate ([`SloTracker`]), exported as the `fleet.slo.burn_rate` gauge.
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use lion_obs::{CollectingSubscriber, Level};
//!
//! let collector = Arc::new(CollectingSubscriber::new());
//! lion_obs::set_global_subscriber(collector.clone());
//! {
//!     let _span = lion_obs::span!("solve");
//!     lion_obs::event!(Level::Info, "solve.start", "equations" => 128u64);
//! }
//! lion_obs::clear_global_subscriber();
//! assert_eq!(collector.events().len(), 1);
//! assert_eq!(collector.span_histogram("solve").unwrap().count(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doctor;
pub mod export;
pub mod fleet;
mod hist;
pub mod http;
pub mod json;
pub mod profile;
pub mod recorder;
mod registry;
mod subscriber;
mod timer;
pub mod trace;
pub mod tsdb;

pub use doctor::{
    Doctor, DoctorConfig, HealthReport, RuleReport, RuleStatus, SolveObservation, RULES,
};
pub use fleet::{
    install_telemetry_hub, telemetry_hub, uninstall_telemetry_hub, BackgroundSampler, FleetDoctor,
    FleetReport, HistoryConfig, SloConfig, SloReport, SloTracker, TelemetryHub,
};
pub use hist::{Exemplar, Histogram, MAX_EXEMPLARS, SUB_BUCKETS};
pub use http::TelemetryServer;
pub use recorder::{
    flight_recorder, install_flight_recorder, note_failure, uninstall_flight_recorder, FailureDump,
    FlightRecord, FlightRecorder, FlightSnapshot, RecordedEvent,
};
pub use registry::{global, Metric, Registry, Snapshot};
pub use subscriber::{
    clear_global_subscriber, dispatch_event, dispatch_span_close, enabled, set_global_subscriber,
    CollectingSubscriber, Event, Level, OwnedEvent, Span, SpanClose, Subscriber, Value,
};
pub use timer::{saturating_ns_between, HistogramTimer};
pub use trace::{attach, TraceContext, TraceGuard};
pub use tsdb::{
    CounterPoint, GaugePoint, HistPoint, ManualClock, SampleClock, Sampler, SeriesInfo,
    SeriesPoints, Tier, Tsdb, TsdbConfig, TsdbStats, WallClock,
};

/// Serializes the unit tests that install a process-wide sink (the
/// global subscriber or the flight recorder) or emit spans and events
/// that such a sink would catch.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}
