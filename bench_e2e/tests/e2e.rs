//! Every workload at a reduced size, checked against the contract the
//! benchmark's consumers rely on: declared metrics only, passing output
//! checks, an exact ledger, and outputs that repeat across runs and
//! worker counts.

use std::sync::Mutex;

use lion_bench_e2e::inputs::{generate, Scale, Workload};
use lion_bench_e2e::run::{run, Options, Report};

/// Runs share process-global telemetry: the registry, the subscriber slot
/// and the telemetry hub.
static GLOBALS: Mutex<()> = Mutex::new(());

fn tiny(workload: Workload, seed: u64, trace: bool, workers: usize) -> Report {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    run(&Options {
        workload,
        seed,
        seconds: 0.2,
        trace,
        workers,
        scale: Scale::Tiny,
        setups: 1,
    })
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = lion_obs::json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(|s| s.as_array())
        .expect("section is an array")
        .iter()
        .map(|m| {
            let field = |key| m.get(key).and_then(|v| v.as_str()).expect(key).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(report: &Report) -> Vec<(String, String)> {
    report
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn sorted(mut v: Vec<(String, String)>) -> Vec<(String, String)> {
    v.sort();
    v
}

#[test]
fn every_declared_metric_is_emitted_finite_and_checked() {
    let end_to_end = sorted(declared("end_to_end"));
    let per_layer = sorted(declared("per_layer"));
    for workload in Workload::ALL {
        let e2e = tiny(workload, 7, false, 2);
        assert!(e2e.correct, "{}: {:?}", workload.name(), e2e.check_failures);
        assert_eq!(sorted(emitted(&e2e)), end_to_end, "{}", workload.name());
        assert!(e2e.attempted > 0 && e2e.failed == 0);
        for m in &e2e.metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{}: {m:?}",
                workload.name()
            );
        }

        let traced = tiny(workload, 7, true, 2);
        assert!(
            traced.correct,
            "{}: {:?}",
            workload.name(),
            traced.check_failures
        );
        assert_eq!(sorted(emitted(&traced)), per_layer, "{}", workload.name());
        for m in &traced.metrics {
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{}: {m:?}",
                workload.name()
            );
        }
        let ledger = traced
            .ledger
            .as_ref()
            .expect("traced runs keep their ledger");
        assert!(ledger.identity_holds(), "{}: {ledger:?}", workload.name());
        assert_eq!(ledger.exclusive_ns, ledger.root_elapsed_ns);
        assert!(ledger.spans > 0);
    }
}

/// Per-layer metrics that are ratios of the program's own deterministic
/// counters (no clocks), so they must repeat exactly.
const COUNTERS: [&str; 18] = [
    "core.pairs.equations_per_solve",
    "core.solve.irls_iterations_per_solve",
    "core.adaptive.trials_per_sweep",
    "core.adaptive.useful_ratio",
    "core.adaptive.cells_reused_ratio",
    "core.adaptive.gram_rebuilds_per_sweep",
    "core.resolve.fast_ratio",
    "core.resolve.rows_delta_per_tick",
    "core.resolve.rebuilds_per_stream",
    "core.resolve.fallbacks_per_stream",
    "core.window.late_ratio",
    "stream.ingress.shed_ratio",
    "linalg.phase_unwrap_bytes",
    "linalg.sliding_mean_bytes",
    "linalg.radical_rows_bytes",
    "linalg.gram_accumulate_bytes",
    "linalg.exp_weights_bytes",
    "trace.spans",
];

#[test]
fn outputs_and_counters_repeat_across_runs_and_worker_counts() {
    for workload in Workload::ALL {
        let name = workload.name();
        let runs: Vec<Report> = [2, 2, 1]
            .into_iter()
            .map(|workers| tiny(workload, 11, false, workers))
            .collect();
        let traced: Vec<Report> = [2, 2, 1]
            .into_iter()
            .map(|workers| tiny(workload, 11, true, workers))
            .collect();
        let first = &runs[0];
        for other in runs.iter().chain(&traced) {
            assert_eq!(other.digest, first.digest, "{name}");
            assert_eq!(other.failed, 0, "{name}");
        }
        for other in &runs[1..] {
            assert_eq!(
                other.metric("error_p50_mm"),
                first.metric("error_p50_mm"),
                "{name}: error_p50_mm"
            );
        }
        for other in &traced[1..] {
            for counter in COUNTERS {
                assert_eq!(
                    other.metric(counter),
                    traced[0].metric(counter),
                    "{name}: {counter}"
                );
            }
        }
    }
}

#[test]
fn digest_repeats_with_the_seed_and_changes_with_it() {
    for workload in Workload::ALL {
        let a = generate(workload, 1, Scale::Tiny).digest;
        assert_eq!(
            a,
            generate(workload, 1, Scale::Tiny).digest,
            "{}",
            workload.name()
        );
        assert_ne!(
            a,
            generate(workload, 2, Scale::Tiny).digest,
            "{}",
            workload.name()
        );
    }
}

#[test]
fn the_turntable_takes_the_delta_path_and_reordered_portals_do_not() {
    let turntable = tiny(Workload::StreamTurntable, 3, true, 2);
    let portal = tiny(Workload::StreamPortal, 3, true, 2);
    let fast = |r: &Report| r.metric("core.resolve.fast_ratio").expect("declared");
    assert!(fast(&turntable) >= 0.8, "turntable {}", fast(&turntable));
    assert!(fast(&portal) <= 0.05, "portal {}", fast(&portal));
}
