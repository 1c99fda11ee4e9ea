//! Scoped histogram timers.
//!
//! A [`HistogramTimer`] measures the wall-clock lifetime of a scope and
//! records it (in nanoseconds) into a named [`Registry`] histogram on
//! drop — the ergonomic way to feed latency distributions like the
//! streaming pipeline's `lion.stream.stream_lag_ns` without sprinkling
//! `Instant::now()` pairs through the call sites.

use std::time::Instant;

use crate::registry::Registry;

/// Records elapsed nanoseconds into a registry histogram when dropped.
///
/// # Example
///
/// ```
/// use lion_obs::{HistogramTimer, Registry};
///
/// let registry = Registry::new();
/// {
///     let _t = HistogramTimer::start(&registry, "work_ns");
///     // ... timed work ...
/// }
/// let snap = registry.snapshot();
/// assert_eq!(snap.histogram("work_ns").unwrap().count(), 1);
/// ```
#[derive(Debug)]
pub struct HistogramTimer<'a> {
    registry: &'a Registry,
    name: &'a str,
    started: Instant,
    stopped: bool,
}

impl<'a> HistogramTimer<'a> {
    /// Starts timing; the elapsed time lands in `registry`'s histogram
    /// `name` when the timer drops (or [`HistogramTimer::stop`] is
    /// called).
    pub fn start(registry: &'a Registry, name: &'a str) -> Self {
        HistogramTimer {
            registry,
            name,
            started: Instant::now(),
            stopped: false,
        }
    }

    /// Records now instead of at drop, returning the elapsed nanoseconds.
    pub fn stop(mut self) -> u64 {
        let elapsed = self.record();
        self.stopped = true;
        elapsed
    }

    /// Like [`HistogramTimer::stop`], but when an ambient trace context
    /// exists (a span is open or a [`crate::TraceContext`] is attached)
    /// the elapsed value lands with that trace id as a histogram
    /// exemplar, so a slow interval on `/query` links back to the span
    /// tree of its slowest observation. Without tracing this is
    /// exactly `stop()`.
    pub fn stop_traced(mut self) -> u64 {
        let elapsed = self.elapsed_ns();
        match crate::trace::TraceContext::current() {
            Some(ctx) => {
                self.registry
                    .histogram_record_with_exemplar(self.name, elapsed, ctx.trace_id);
            }
            None => {
                self.registry.histogram_record(self.name, elapsed);
            }
        }
        self.stopped = true;
        elapsed
    }

    /// Nanoseconds since the timer started, saturating at `u64::MAX`
    /// (and at `0` against clock anomalies — see
    /// [`saturating_ns_between`]).
    pub fn elapsed_ns(&self) -> u64 {
        saturating_ns_between(self.started, Instant::now())
    }

    fn record(&self) -> u64 {
        let elapsed = self.elapsed_ns();
        self.registry.histogram_record(self.name, elapsed);
        elapsed
    }
}

impl Drop for HistogramTimer<'_> {
    fn drop(&mut self) {
        if !self.stopped {
            self.record();
        }
    }
}

/// The interval from `earlier` to `later` in nanoseconds, saturating in
/// both directions: `0` when `later` precedes `earlier` (a backwards or
/// frozen clock must record a zero-length interval, never wrap or
/// panic — the repo builds with `overflow-checks` on), `u64::MAX` when
/// the interval overflows `u64`.
pub fn saturating_ns_between(earlier: Instant, later: Instant) -> u64 {
    match later.checked_duration_since(earlier) {
        Some(d) => u64::try_from(d.as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_on_drop() {
        let registry = Registry::new();
        {
            let _t = HistogramTimer::start(&registry, "t_ns");
        }
        {
            let _t = HistogramTimer::start(&registry, "t_ns");
        }
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("t_ns").unwrap().count(), 2);
    }

    #[test]
    fn stop_records_once() {
        let registry = Registry::new();
        let t = HistogramTimer::start(&registry, "t_ns");
        let _elapsed = t.stop();
        let snap = registry.snapshot();
        assert_eq!(snap.histogram("t_ns").unwrap().count(), 1);
    }

    #[test]
    fn clock_anomalies_saturate_instead_of_wrapping() {
        let earlier = Instant::now();
        let later = Instant::now();
        // A zero-length interval is 0, not a panic.
        assert_eq!(saturating_ns_between(earlier, earlier), 0);
        // A forced *backwards* interval (later observed before earlier)
        // saturates to 0 — with overflow-checks on, a naive subtraction
        // here would abort the process.
        assert_eq!(saturating_ns_between(later, earlier), 0);
        // The forward direction still measures.
        assert!(saturating_ns_between(earlier, Instant::now()) < u64::MAX);
    }
}
