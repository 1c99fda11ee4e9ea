//! Flamegraph export: exclusive-time attribution over flight-recorder
//! span rings, emitted as collapsed-stack text.
//!
//! The pipeline's stages are timed by their `lion.*` spans alone, and
//! nested spans overlap: the `lion.adaptive` sweep span contains the
//! `lion.pairs` and `lion.solve` spans of the cells it drives. This
//! module keeps totals **disjoint** over span trees from the
//! [`crate::recorder::FlightRecorder`]: each span's **exclusive** time is its `elapsed_ns` minus the elapsed time of its
//! *direct* children (saturating at zero when rings evicted a parent's
//! tail), so summing every line of the output reproduces total traced
//! busy time exactly once.
//!
//! The export format is **collapsed stacks** — one line per unique
//! ancestry chain, `root;child;leaf <nanoseconds>` — the interchange
//! format consumed by inferno's `flamegraph.pl` lineage and by
//! [speedscope](https://www.speedscope.app) directly. Lines are sorted
//! and sibling spans with identical chains are pre-aggregated, so the
//! same snapshot always serializes byte-identically: scrape `/profile`
//! twice on a quiet system and diff cleanly.

use std::collections::BTreeMap;

use crate::recorder::FlightSnapshot;
use crate::subscriber::SpanClose;

/// Exclusive-time totals per span *name*, sorted by name.
///
/// Each entry is `(name, exclusive_ns, count)`: the nanoseconds spent
/// in spans of that name but **not** in their children, and how many
/// spans contributed. The exclusive sums are disjoint — adding every
/// entry gives total traced busy time with no double counting.
pub fn exclusive_by_name(snapshot: &FlightSnapshot) -> Vec<(String, u64, u64)> {
    let mut totals: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for span in snapshot.spans() {
        let entry = totals.entry(span.name).or_insert((0, 0));
        entry.0 = entry.0.saturating_add(exclusive_ns(snapshot, span));
        entry.1 += 1;
    }
    totals
        .into_iter()
        .map(|(name, (ns, count))| (name.to_string(), ns, count))
        .collect()
}

/// One span's exclusive time: elapsed minus the elapsed of its direct
/// children, saturating at zero (ring eviction can retain a child whose
/// sibling — or part of the parent's own frame — is gone).
fn exclusive_ns(snapshot: &FlightSnapshot, span: &SpanClose) -> u64 {
    let children_ns: u64 = snapshot
        .spans()
        .filter(|s| s.parent == span.id && s.id != span.id)
        .map(|s| s.elapsed_ns)
        .fold(0u64, u64::saturating_add);
    span.elapsed_ns.saturating_sub(children_ns)
}

/// Renders a snapshot as collapsed-stack text.
///
/// One line per unique ancestry chain: frame names root-first joined by
/// `;`, a space, then the chain's **exclusive** nanoseconds. Chains are
/// sorted; spans whose parent was evicted from the ring start their own
/// chain at the deepest retained ancestor. Spans contributing zero
/// exclusive time are omitted (pure-wrapper frames still appear as
/// prefixes of their children's chains). Frame names have `;`, space,
/// and newline replaced by `_` to keep the format unambiguous.
pub fn to_collapsed_stacks(snapshot: &FlightSnapshot) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for span in snapshot.spans() {
        let ns = exclusive_ns(snapshot, span);
        if ns == 0 {
            continue;
        }
        let mut chain = snapshot.ancestry(span.id);
        chain.reverse(); // root-first
        let stack: Vec<String> = chain.iter().map(|s| clean_frame(s.name)).collect();
        let slot = stacks.entry(stack.join(";")).or_insert(0);
        *slot = slot.saturating_add(ns);
    }
    let mut out = String::new();
    for (stack, ns) in &stacks {
        out.push_str(stack);
        out.push(' ');
        out.push_str(&ns.to_string());
        out.push('\n');
    }
    out
}

/// Sanitizes one frame name for collapsed-stack output.
fn clean_frame(name: &str) -> String {
    name.replace([';', ' ', '\n'], "_")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{install_flight_recorder, uninstall_flight_recorder};

    fn total_elapsed(snapshot: &FlightSnapshot) -> u64 {
        // Roots only: children are contained in their parents.
        snapshot
            .spans()
            .filter(|s| snapshot.span(s.parent).is_none())
            .map(|s| s.elapsed_ns)
            .sum()
    }

    #[test]
    fn exclusive_sums_are_disjoint_and_collapse_deterministically() {
        let _guard = crate::test_lock();
        let recorder = install_flight_recorder(256);
        {
            let _outer = crate::span!("pipeline");
            {
                let _inner = crate::span!("unwrap");
                std::hint::black_box(0u64);
            }
            {
                let _inner = crate::span!("solve");
                let _leaf = crate::span!("normal_eq");
                std::hint::black_box(0u64);
            }
        }
        uninstall_flight_recorder();
        let snapshot = recorder.snapshot();

        // Disjoint-sum invariant: exclusive totals add up to exactly the
        // root spans' inclusive time.
        let by_name = exclusive_by_name(&snapshot);
        let sum: u64 = by_name.iter().map(|(_, ns, _)| ns).sum();
        assert_eq!(sum, total_elapsed(&snapshot));
        let names: Vec<&str> = by_name.iter().map(|(n, _, _)| n.as_str()).collect();
        assert_eq!(names, ["normal_eq", "pipeline", "solve", "unwrap"]);

        // Collapsed stacks carry full ancestry chains and the same sum.
        let collapsed = to_collapsed_stacks(&snapshot);
        assert!(collapsed.contains("pipeline;solve;normal_eq "));
        assert_eq!(collapsed, to_collapsed_stacks(&snapshot));
        let mut parsed_sum = 0u64;
        for line in collapsed.lines() {
            let (stack, ns) = line.rsplit_once(' ').expect("stack SP value");
            assert!(!stack.is_empty());
            parsed_sum += ns.parse::<u64>().expect("numeric weight");
        }
        assert_eq!(parsed_sum, sum);
    }

    #[test]
    fn frame_names_are_sanitized_and_empty_snapshot_renders_empty() {
        assert_eq!(clean_frame("a b;c\nd"), "a_b_c_d");
        assert_eq!(to_collapsed_stacks(&FlightSnapshot::default()), "");
    }
}
