//! The traced run's per-layer time ledger.
//!
//! A bench-side [`Subscriber`] keeps every closed span in memory; the
//! ledger then attributes each span's *exclusive* time (its elapsed time
//! minus the elapsed time of its direct children) to its name, in linear
//! time through one parent → children-sum map. `lion_obs::profile` does the
//! same attribution over flight-recorder snapshots, but its child lookup
//! is a linear scan per span, which is quadratic on the ~100k spans one
//! traced stream round closes.
//!
//! Because children nest inside their parents on one thread and siblings
//! do not overlap, the exclusive times of all spans add up to the elapsed
//! times of the root spans exactly; [`Ledger::identity_holds`] checks that
//! nothing was lost or double counted.

use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

use lion_obs::{Event, SpanClose, Subscriber};

/// The span the bench opens around each client call of a traced round.
pub const ROUND_SPAN: &str = "bench.round";

/// One closed span, as much of it as the ledger needs.
#[derive(Debug, Clone, Copy)]
pub struct SpanRecord {
    /// Span name.
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span id, `0` for a root.
    pub parent: u64,
    /// Open time, ns since the process trace epoch.
    pub start_ns: u64,
    /// Wall time between open and close.
    pub elapsed_ns: u64,
}

/// Collects every closed span; events are ignored.
#[derive(Debug, Default)]
pub struct SpanCollector {
    spans: Mutex<Vec<SpanRecord>>,
}

impl SpanCollector {
    /// An empty collector.
    pub fn new() -> Self {
        SpanCollector::default()
    }

    /// Takes the spans collected so far.
    pub fn take(&self) -> Vec<SpanRecord> {
        std::mem::take(&mut *self.spans.lock().expect("span collector poisoned"))
    }
}

impl Subscriber for SpanCollector {
    fn on_event(&self, _event: &Event<'_>) {}

    fn on_span_close(&self, span: &SpanClose) {
        self.spans
            .lock()
            .expect("span collector poisoned")
            .push(SpanRecord {
                name: span.name,
                id: span.id,
                parent: span.parent,
                start_ns: span.start_ns,
                elapsed_ns: span.elapsed_ns,
            });
    }
}

/// Per-name totals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    /// Σ exclusive ns of spans with this name.
    pub exclusive_ns: u64,
    /// Σ elapsed (inclusive) ns of spans with this name.
    pub elapsed_ns: u64,
    /// Spans with this name.
    pub count: u64,
}

/// Exclusive-time attribution over one traced run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Totals per span name, sorted by name.
    pub by_name: BTreeMap<&'static str, NameTotals>,
    /// Spans collected.
    pub spans: u64,
    /// Σ elapsed ns of root spans (`parent == 0`).
    pub root_elapsed_ns: u64,
    /// Σ exclusive ns over every span.
    pub exclusive_ns: u64,
    /// Spans whose parent never closed into the collector (lost spans).
    pub orphans: u64,
    /// Spans whose children's elapsed time exceeds their own.
    pub overfull: u64,
    /// Per root span that is not a bench round: ns from the start of the
    /// round it ran in to its own start (the job's queue wait).
    pub queue_waits_ns: Vec<u64>,
}

impl Ledger {
    /// Builds the ledger in O(spans).
    pub fn build(spans: &[SpanRecord]) -> Ledger {
        let mut children_ns: HashMap<u64, u64> = HashMap::with_capacity(spans.len());
        for s in spans.iter().filter(|s| s.parent != 0) {
            *children_ns.entry(s.parent).or_insert(0) += s.elapsed_ns;
        }
        let mut ledger = Ledger {
            spans: spans.len() as u64,
            ..Ledger::default()
        };
        let mut seen = 0u64;
        for s in spans {
            let children = match children_ns.get(&s.id) {
                Some(&ns) => {
                    seen += 1;
                    ns
                }
                None => 0,
            };
            let exclusive = s.elapsed_ns.checked_sub(children).unwrap_or_else(|| {
                ledger.overfull += 1;
                0
            });
            let totals = ledger.by_name.entry(s.name).or_default();
            totals.exclusive_ns += exclusive;
            totals.elapsed_ns += s.elapsed_ns;
            totals.count += 1;
            ledger.exclusive_ns += exclusive;
            if s.parent == 0 {
                ledger.root_elapsed_ns += s.elapsed_ns;
            }
        }
        // Every parent id referenced by a child must be a collected span.
        let parents = children_ns.len() as u64;
        ledger.orphans = parents - seen;
        let mut rounds: Vec<u64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name == ROUND_SPAN)
            .map(|s| s.start_ns)
            .collect();
        rounds.sort_unstable();
        ledger.queue_waits_ns = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name != ROUND_SPAN)
            .filter_map(|s| {
                let i = rounds.partition_point(|&r| r <= s.start_ns);
                i.checked_sub(1).map(|i| s.start_ns - rounds[i])
            })
            .collect();
        ledger
    }

    /// Whether Σ exclusive equals Σ root elapsed exactly, with no lost
    /// spans and no child outlasting its parent.
    pub fn identity_holds(&self) -> bool {
        self.exclusive_ns == self.root_elapsed_ns && self.orphans == 0 && self.overfull == 0
    }

    /// Totals for `name` (zeros when no such span closed).
    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(
        name: &'static str,
        id: u64,
        parent: u64,
        start_ns: u64,
        elapsed_ns: u64,
    ) -> SpanRecord {
        SpanRecord {
            name,
            id,
            parent,
            start_ns,
            elapsed_ns,
        }
    }

    #[test]
    fn exclusive_times_add_up_to_root_time() {
        let spans = [
            span(ROUND_SPAN, 1, 0, 0, 100),
            span("job", 2, 0, 10, 80),
            span("solve", 3, 2, 20, 50),
            span("rows", 4, 3, 25, 20),
            span("pairs", 5, 2, 75, 10),
        ];
        let ledger = Ledger::build(&spans);
        assert!(ledger.identity_holds());
        assert_eq!(ledger.root_elapsed_ns, 180);
        assert_eq!(ledger.get("job").exclusive_ns, 20);
        assert_eq!(ledger.get("solve").exclusive_ns, 30);
        assert_eq!(ledger.get("rows").exclusive_ns, 20);
        assert_eq!(ledger.queue_waits_ns, vec![10]);
    }

    #[test]
    fn lost_parents_and_overfull_spans_break_the_identity() {
        let orphan = Ledger::build(&[span("solve", 3, 2, 0, 50)]);
        assert_eq!(orphan.orphans, 1);
        assert!(!orphan.identity_holds());
        let overfull = Ledger::build(&[span("job", 1, 0, 0, 10), span("solve", 2, 1, 0, 20)]);
        assert_eq!(overfull.overfull, 1);
        assert!(!overfull.identity_holds());
    }
}
