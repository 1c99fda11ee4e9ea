//! Always-on flight recorder: a bounded in-memory tail of recent spans
//! and events, dumped when something fails.
//!
//! Post-mortem debugging of a live pipeline needs the records from *just
//! before* the failure — exactly the ones a sampling profiler or a
//! latency histogram has already thrown away. The [`FlightRecorder`]
//! keeps them: every span close and event is appended to a bounded
//! per-thread ring, old records are evicted (and counted) as new ones
//! arrive, and [`FlightRecorder::drain`] merges the rings into one
//! globally ordered tail.
//!
//! Design constraints, in order:
//!
//! - **Steady-state writes never contend.** Each thread appends only to
//!   its own ring, found through a thread-local cache, so the per-ring
//!   mutex is uncontended on the hot path (one lock/unlock on a cache
//!   hit, no allocation once the ring is full). Cross-thread contention
//!   exists only while a drain walks the rings.
//! - **Drops are deterministic, not best-effort.** A full ring always
//!   evicts its oldest record and increments that ring's drop counter;
//!   for a fixed workload on fixed threads the counter is reproducible.
//! - **Merge is exact.** Every record carries `(at_ns, lane, seq)`:
//!   close/emission time on the shared trace epoch, the writing thread's
//!   lane, and a per-ring sequence number. Sorting by that triple gives
//!   one canonical interleaving — ties in `at_ns` cannot reorder records
//!   from the same thread, and the order is stable across drains.
//!
//! [`note_failure`] is the error hook: `lion::Error` construction calls
//! it, and the recorder files a [`FailureDump`] — the failing thread's
//! ambient [`TraceContext`] plus a full snapshot of the tail — so every
//! surfaced error carries the trace that led to it.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, Weak};

use crate::subscriber::{Event, Level, SpanClose, Value};
use crate::trace::{self, TraceContext};

/// An owned copy of a dispatched event as retained by the recorder,
/// stamped with its position in the causal trace.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordedEvent {
    /// Module path of the emitting code.
    pub target: &'static str,
    /// Event name.
    pub name: &'static str,
    /// Severity.
    pub level: Level,
    /// Field key/value pairs.
    pub fields: Vec<(&'static str, Value)>,
    /// Trace the event belongs to (`0` when emitted outside any trace).
    pub trace_id: u64,
    /// Id of the span the event was emitted under (`0` = none).
    pub parent: u64,
    /// Emission time, nanoseconds since the process trace epoch.
    pub at_ns: u64,
    /// Lane (thread) id the event was emitted on.
    pub thread: u64,
}

/// One retained record: a closed span or an event.
#[derive(Debug, Clone, PartialEq)]
pub enum FlightRecord {
    /// A span that closed.
    Span(SpanClose),
    /// An instantaneous event.
    Event(RecordedEvent),
}

impl FlightRecord {
    /// The record's timeline position: span close time or event time.
    pub fn at_ns(&self) -> u64 {
        match self {
            FlightRecord::Span(s) => s.end_ns,
            FlightRecord::Event(e) => e.at_ns,
        }
    }

    /// Lane (thread) id the record was written from.
    pub fn thread(&self) -> u64 {
        match self {
            FlightRecord::Span(s) => s.thread,
            FlightRecord::Event(e) => e.thread,
        }
    }

    /// Trace id, or `0` when the record is outside any trace.
    pub fn trace_id(&self) -> u64 {
        match self {
            FlightRecord::Span(s) => s.trace_id,
            FlightRecord::Event(e) => e.trace_id,
        }
    }
}

struct RingState {
    records: VecDeque<(u64, FlightRecord)>,
    dropped: u64,
    seq: u64,
}

/// One thread's ring. Only its owning thread pushes; drains walk all
/// rings under the recorder's ring-list lock.
struct ThreadRing {
    lane: u64,
    state: Mutex<RingState>,
}

impl ThreadRing {
    fn push(&self, capacity: usize, record: FlightRecord) {
        let mut state = self.state.lock().expect("flight ring poisoned");
        if state.records.len() >= capacity {
            state.records.pop_front();
            state.dropped += 1;
        }
        let seq = state.seq;
        state.seq += 1;
        state.records.push_back((seq, record));
    }
}

/// The merged, ordered tail taken from a recorder: records sorted by
/// `(at_ns, lane, seq)` plus per-lane drop counters.
#[derive(Debug, Clone, Default)]
pub struct FlightSnapshot {
    records: Vec<FlightRecord>,
    dropped: Vec<(u64, u64)>,
}

impl FlightSnapshot {
    /// All retained records in canonical merge order.
    pub fn records(&self) -> &[FlightRecord] {
        &self.records
    }

    /// The retained span closes, in merge order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanClose> {
        self.records.iter().filter_map(|r| match r {
            FlightRecord::Span(s) => Some(s),
            FlightRecord::Event(_) => None,
        })
    }

    /// Looks up a retained span by id.
    pub fn span(&self, id: u64) -> Option<&SpanClose> {
        self.spans().find(|s| s.id == id)
    }

    /// The ancestry of span `id` among retained records: the span
    /// itself, then its parent, up to the first ancestor whose parent is
    /// `0` (a trace root) or is no longer retained.
    pub fn ancestry(&self, id: u64) -> Vec<&SpanClose> {
        let mut chain = Vec::new();
        let mut cursor = id;
        while let Some(span) = self.span(cursor) {
            chain.push(span);
            if span.parent == 0 {
                break;
            }
            cursor = span.parent;
        }
        chain
    }

    /// Per-lane `(lane, dropped)` eviction counts, sorted by lane.
    pub fn dropped(&self) -> &[(u64, u64)] {
        &self.dropped
    }

    /// Total records evicted across all lanes.
    pub fn total_dropped(&self) -> u64 {
        self.dropped.iter().map(|&(_, n)| n).sum()
    }

    /// Whether nothing was retained or dropped.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty() && self.dropped.is_empty()
    }
}

/// A failure dump filed by [`note_failure`]: what failed, where in the
/// trace, and the recorder tail at that instant.
#[derive(Debug, Clone)]
pub struct FailureDump {
    /// Failing domain (e.g. `"core"`, `"sim"`).
    pub domain: String,
    /// Error kind within the domain.
    pub kind: String,
    /// The failing thread's ambient trace position, if any.
    pub trace: Option<TraceContext>,
    /// When the failure was noted, ns since the process trace epoch.
    pub at_ns: u64,
    /// The recorder tail at the time of the failure.
    pub snapshot: FlightSnapshot,
}

/// How many failure dumps a recorder retains (oldest evicted first).
const FAILURE_CAPACITY: usize = 8;

/// Bounded ring-buffer recorder of recent spans and events. Install with
/// [`install_flight_recorder`]; see the module docs for semantics.
pub struct FlightRecorder {
    id: u64,
    capacity: usize,
    rings: Mutex<Vec<Arc<ThreadRing>>>,
    failures: Mutex<VecDeque<FailureDump>>,
}

impl FlightRecorder {
    /// Creates a recorder retaining up to `capacity` records per thread
    /// (clamped to at least 1). Not yet receiving — install it.
    pub fn new(capacity: usize) -> Arc<FlightRecorder> {
        Arc::new(FlightRecorder {
            id: trace::next_id(),
            capacity: capacity.max(1),
            rings: Mutex::new(Vec::new()),
            failures: Mutex::new(VecDeque::new()),
        })
    }

    /// Per-thread ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    fn record(self: &Arc<Self>, record: FlightRecord) {
        self.ring_for_current_thread().push(self.capacity, record);
    }

    /// This thread's ring, through the thread-local cache (keyed by
    /// recorder id so a stale cache entry from a replaced recorder can
    /// never alias into the new one).
    fn ring_for_current_thread(self: &Arc<Self>) -> Arc<ThreadRing> {
        RING_CACHE.with(|cache| {
            let mut cache = cache.borrow_mut();
            if let Some((_, weak)) = cache.iter().find(|(id, _)| *id == self.id) {
                if let Some(ring) = weak.upgrade() {
                    return ring;
                }
            }
            let ring = Arc::new(ThreadRing {
                lane: trace::lane(),
                state: Mutex::new(RingState {
                    records: VecDeque::with_capacity(self.capacity),
                    dropped: 0,
                    seq: 0,
                }),
            });
            self.rings
                .lock()
                .expect("flight ring list poisoned")
                .push(ring.clone());
            cache.retain(|(_, weak)| weak.strong_count() > 0);
            cache.push((self.id, Arc::downgrade(&ring)));
            ring
        })
    }

    fn collect(&self, reset: bool) -> FlightSnapshot {
        let rings = self.rings.lock().expect("flight ring list poisoned");
        let mut merged: Vec<(u64, u64, u64, FlightRecord)> = Vec::new();
        let mut dropped: Vec<(u64, u64)> = Vec::new();
        for ring in rings.iter() {
            let mut state = ring.state.lock().expect("flight ring poisoned");
            let records: Vec<(u64, FlightRecord)> = if reset {
                state.records.drain(..).collect()
            } else {
                state.records.iter().cloned().collect()
            };
            for (seq, record) in records {
                merged.push((record.at_ns(), ring.lane, seq, record));
            }
            if state.dropped > 0 {
                dropped.push((ring.lane, state.dropped));
            }
            if reset {
                state.dropped = 0;
            }
        }
        drop(rings);
        merged.sort_by_key(|&(at_ns, lane, seq, _)| (at_ns, lane, seq));
        dropped.sort_by_key(|&(lane, _)| lane);
        FlightSnapshot {
            records: merged.into_iter().map(|(_, _, _, r)| r).collect(),
            dropped,
        }
    }

    /// Copies out the current tail without disturbing the rings.
    pub fn snapshot(&self) -> FlightSnapshot {
        self.collect(false)
    }

    /// Takes the current tail, emptying every ring and resetting drop
    /// counters (sequence numbers keep running, so merge order stays
    /// exact across drains).
    pub fn drain(&self) -> FlightSnapshot {
        self.collect(true)
    }

    /// Files a failure dump (keeps the most recent
    /// [`FAILURE_CAPACITY`]).
    fn file_failure(&self, dump: FailureDump) {
        let mut failures = self.failures.lock().expect("failure list poisoned");
        if failures.len() >= FAILURE_CAPACITY {
            failures.pop_front();
        }
        failures.push_back(dump);
    }

    /// Copies out the failure dumps filed so far, oldest first.
    pub fn failures(&self) -> Vec<FailureDump> {
        self.failures
            .lock()
            .expect("failure list poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

thread_local! {
    /// `(recorder_id, ring)` pairs for recorders this thread has written
    /// to. Weak so dropping a recorder frees its rings.
    static RING_CACHE: RefCell<Vec<(u64, Weak<ThreadRing>)>> = const { RefCell::new(Vec::new()) };
}

/// Fast-path gate: `true` only while a recorder is installed. Relaxed
/// load on every dispatch; avoids the `RwLock` when recording is off.
static RECORDER_ACTIVE: AtomicBool = AtomicBool::new(false);

static GLOBAL_RECORDER: RwLock<Option<Arc<FlightRecorder>>> = RwLock::new(None);

/// Builds a [`FlightRecorder`] with `capacity` records per thread and
/// installs it process-wide. Recording starts immediately — the
/// recorder counts as an installed sink, so [`crate::enabled`] turns on
/// even with no [`crate::Subscriber`]. Returns the recorder for later
/// [`FlightRecorder::drain`]/[`FlightRecorder::failures`] calls.
///
/// Replaces any previously installed recorder.
pub fn install_flight_recorder(capacity: usize) -> Arc<FlightRecorder> {
    let recorder = FlightRecorder::new(capacity);
    let mut slot = GLOBAL_RECORDER.write().expect("recorder lock poisoned");
    if slot.is_none() {
        crate::subscriber::instrumentation_on();
    }
    *slot = Some(recorder.clone());
    RECORDER_ACTIVE.store(true, Ordering::Relaxed);
    recorder
}

/// Uninstalls the process-wide recorder, returning it (so a final drain
/// is still possible) if one was installed.
pub fn uninstall_flight_recorder() -> Option<Arc<FlightRecorder>> {
    let mut slot = GLOBAL_RECORDER.write().expect("recorder lock poisoned");
    let taken = slot.take();
    if taken.is_some() {
        crate::subscriber::instrumentation_off();
    }
    RECORDER_ACTIVE.store(false, Ordering::Relaxed);
    taken
}

/// The installed recorder, if any.
pub fn flight_recorder() -> Option<Arc<FlightRecorder>> {
    if !RECORDER_ACTIVE.load(Ordering::Relaxed) {
        return None;
    }
    GLOBAL_RECORDER
        .read()
        .expect("recorder lock poisoned")
        .clone()
}

/// Feeds a closed span to the installed recorder (no-op when none).
pub(crate) fn record_span_close(span: &SpanClose) {
    if let Some(recorder) = flight_recorder() {
        recorder.record(FlightRecord::Span(span.clone()));
    }
}

/// Feeds an event to the installed recorder (no-op when none). The
/// event is stamped with the thread's ambient trace position.
pub(crate) fn record_event(event: &Event<'_>) {
    if let Some(recorder) = flight_recorder() {
        let ctx = TraceContext::current();
        recorder.record(FlightRecord::Event(RecordedEvent {
            target: event.target,
            name: event.name,
            level: event.level,
            fields: event.fields.to_vec(),
            trace_id: ctx.map(|c| c.trace_id).unwrap_or(0),
            parent: ctx.map(|c| c.parent).unwrap_or(0),
            at_ns: trace::now_ns(),
            thread: trace::lane(),
        }));
    }
}

/// The error-construction hook: files a [`FailureDump`] (failing
/// domain/kind, the calling thread's ambient [`TraceContext`], and a
/// snapshot of the recorder tail) with the installed recorder. No-op —
/// and near-free — when no recorder is installed, so `lion::Error` can
/// call it unconditionally.
pub fn note_failure(domain: &str, kind: &str) {
    if let Some(recorder) = flight_recorder() {
        let dump = FailureDump {
            domain: domain.to_string(),
            kind: kind.to_string(),
            trace: TraceContext::current(),
            at_ns: trace::now_ns(),
            snapshot: recorder.snapshot(),
        };
        recorder.file_failure(dump);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_and_events_in_order() {
        let _serial = crate::test_lock();
        let recorder = install_flight_recorder(64);
        {
            let _outer = crate::span!("rec.outer");
            crate::event!(Level::Info, "rec.mark", "k" => 1u64);
            let _inner = crate::span!("rec.inner");
        }
        let snap = recorder.drain();
        uninstall_flight_recorder();
        // Event first (emitted before either span closed), then inner,
        // then outer — ordered by at_ns.
        let names: Vec<&str> = snap
            .records()
            .iter()
            .map(|r| match r {
                FlightRecord::Span(s) => s.name,
                FlightRecord::Event(e) => e.name,
            })
            .collect();
        assert_eq!(names, ["rec.mark", "rec.inner", "rec.outer"]);
        // The event parented to the outer span; the spans form a chain.
        let outer = snap.spans().find(|s| s.name == "rec.outer").unwrap();
        let inner = snap.spans().find(|s| s.name == "rec.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.trace_id, outer.trace_id);
        match &snap.records()[0] {
            FlightRecord::Event(e) => {
                assert_eq!(e.parent, outer.id);
                assert_eq!(e.trace_id, outer.trace_id);
            }
            other => panic!("expected event, got {other:?}"),
        }
        assert_eq!(snap.total_dropped(), 0);
    }

    #[test]
    fn full_ring_evicts_oldest_and_counts_drops() {
        let _serial = crate::test_lock();
        let recorder = install_flight_recorder(4);
        for _ in 0..10 {
            let _span = crate::span!("rec.churn");
        }
        let snap = recorder.drain();
        uninstall_flight_recorder();
        assert_eq!(snap.spans().count(), 4);
        assert_eq!(snap.total_dropped(), 6);
        // Drain reset the counters: an immediate second drain is empty.
        assert!(recorder.drain().is_empty());
    }

    #[test]
    fn ancestry_walks_to_the_root() {
        let _serial = crate::test_lock();
        let recorder = install_flight_recorder(16);
        let leaf_id;
        {
            let _a = crate::span!("rec.a");
            let _b = crate::span!("rec.b");
            let c = crate::span!("rec.c");
            leaf_id = c.id().unwrap();
        }
        let snap = recorder.drain();
        uninstall_flight_recorder();
        let chain: Vec<&str> = snap.ancestry(leaf_id).iter().map(|s| s.name).collect();
        assert_eq!(chain, ["rec.c", "rec.b", "rec.a"]);
    }

    #[test]
    fn note_failure_files_a_dump_with_context() {
        let _serial = crate::test_lock();
        let recorder = install_flight_recorder(16);
        let ctx = {
            let span = crate::span!("rec.failing");
            let id = span.id().unwrap();
            note_failure("core", "DegenerateWindow");
            TraceContext {
                trace_id: id, // root span's trace id equals its own id
                parent: id,
            }
        };
        let failures = recorder.failures();
        uninstall_flight_recorder();
        assert_eq!(failures.len(), 1);
        let dump = &failures[0];
        assert_eq!(dump.domain, "core");
        assert_eq!(dump.kind, "DegenerateWindow");
        assert_eq!(dump.trace, Some(ctx));
    }

    #[test]
    fn note_failure_without_recorder_is_a_noop() {
        let _serial = crate::test_lock();
        uninstall_flight_recorder();
        note_failure("core", "whatever");
    }

    #[test]
    fn merge_is_exact_across_threads() {
        let _serial = crate::test_lock();
        let recorder = install_flight_recorder(64);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    for _ in 0..8 {
                        let _span = crate::span!("rec.worker");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = recorder.drain();
        uninstall_flight_recorder();
        assert_eq!(snap.spans().count(), 32);
        // Canonical order: (at_ns, lane, seq) non-decreasing.
        let keys: Vec<(u64, u64)> = snap
            .records()
            .iter()
            .map(|r| (r.at_ns(), r.thread()))
            .collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }
}
