//! Criterion bench: cost of the LION linear solve as the measurement
//! count grows (the "light-weight" claim, paper Fig. 13b).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use lion_bench::rig;
use lion_core::{Localizer, LocalizerConfig, PairStrategy, SolveSpace, Weighting};
use lion_geom::{LineSegment, Point3, ThreeLineScan};

fn measurements_2d(n: usize) -> Vec<(Point3, f64)> {
    let target = Point3::new(0.1, 0.8, 0.0);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, 1);
    let track = LineSegment::along_x(-0.6, 0.6, 0.0, 0.0).expect("valid");
    // Pick the read rate so the sampler emits ~n samples over the track.
    let rate = n as f64 * rig::TAG_SPEED / 1.2;
    scenario
        .scan(&track, rig::TAG_SPEED, rate)
        .expect("valid scan")
        .to_measurements()
}

fn measurements_3d(rate: f64) -> Vec<(Point3, f64)> {
    let target = Point3::new(0.1, 0.8, 0.15);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, 2);
    let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid");
    scenario
        .scan(&scan.to_path(), rig::TAG_SPEED, rate)
        .expect("valid scan")
        .to_measurements()
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("lion_solve_2d");
    for &n in &[200usize, 500, 1000, 2000] {
        let m = measurements_2d(n);
        let cfg = LocalizerConfig {
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(cfg, SolveSpace::TwoD);
        group.bench_with_input(BenchmarkId::from_parameter(m.len()), &m, |b, m| {
            b.iter(|| localizer.locate(std::hint::black_box(m)).expect("locates"))
        });
    }
    group.finish();

    let mut group = c.benchmark_group("lion_solve_3d");
    for &rate in &[20.0_f64, 50.0, 100.0] {
        let m = measurements_3d(rate);
        let scan = ThreeLineScan::new(-0.4, 0.4, 0.2, 0.2).expect("valid");
        let cfg = LocalizerConfig {
            pair_strategy: PairStrategy::StructuredScan {
                scan,
                x_interval: 0.2,
                tolerance: 0.003,
            },
            side_hint: Some(Point3::new(0.0, 0.5, 0.1)),
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(cfg, SolveSpace::ThreeD);
        group.bench_with_input(BenchmarkId::from_parameter(m.len()), &m, |b, m| {
            b.iter(|| localizer.locate(std::hint::black_box(m)).expect("locates"))
        });
    }
    group.finish();

    // WLS vs plain LS solve cost (the robustness premium).
    let mut group = c.benchmark_group("weighting_cost");
    let m = measurements_2d(1000);
    for (name, weighting) in [
        ("plain_ls", Weighting::LeastSquares),
        ("irls_wls", Weighting::default()),
    ] {
        let cfg = LocalizerConfig {
            weighting,
            side_hint: Some(Point3::new(0.0, 0.5, 0.0)),
            ..LocalizerConfig::default()
        };
        let localizer = Localizer::new(cfg, SolveSpace::TwoD);
        group.bench_function(name, |b| {
            b.iter(|| localizer.locate(std::hint::black_box(&m)).expect("locates"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_solver
}
criterion_main!(benches);
