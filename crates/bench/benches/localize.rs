//! Criterion bench: end-to-end localization — LION vs DAH vs hyperbola on
//! the same trace (the paper's Fig. 13b comparison, as a microbenchmark).

use criterion::{criterion_group, criterion_main, Criterion};

use lion_baselines::hologram::{self, HologramConfig, SearchVolume};
use lion_baselines::hyperbola::{self, HyperbolaConfig};
use lion_baselines::parabola::{self, ParabolaConfig};
use lion_bench::rig;
use lion_core::{Localizer, LocalizerConfig, SolveSpace};
use lion_geom::{LineSegment, Point3};

fn shared_trace() -> Vec<(Point3, f64)> {
    let target = Point3::new(0.1, 0.8, 0.0);
    let antenna = rig::ideal_antenna(target);
    let mut scenario = rig::paper_scenario(antenna, 3);
    let track = LineSegment::along_x(-0.5, 0.5, 0.0, 0.0).expect("valid");
    scenario
        .scan(&track, rig::TAG_SPEED, rig::READ_RATE)
        .expect("valid scan")
        .to_measurements()
}

fn bench_localize(c: &mut Criterion) {
    let m = shared_trace();
    let hint = Point3::new(0.0, 0.5, 0.0);

    let mut group = c.benchmark_group("end_to_end_2d");
    let lion_cfg = LocalizerConfig {
        side_hint: Some(hint),
        ..LocalizerConfig::default()
    };
    let localizer = Localizer::new(lion_cfg, SolveSpace::TwoD);
    group.bench_function("lion", |b| {
        b.iter(|| localizer.locate(std::hint::black_box(&m)).expect("locates"))
    });

    let dec: Vec<(Point3, f64)> = m.iter().step_by(10).copied().collect();
    let dah_cfg = HologramConfig {
        grid_size: 0.001,
        wavelength: rig::LAMBDA,
        augmented: true,
    };
    let volume = SearchVolume::square_2d(Point3::new(0.1, 0.8, 0.0), 0.1);
    group.sample_size(10);
    group.bench_function("dah_1mm_20cm", |b| {
        b.iter(|| hologram::locate(std::hint::black_box(&dec), volume, &dah_cfg).expect("locates"))
    });

    let hyp_cfg = HyperbolaConfig {
        initial_guess: Some(hint),
        ..HyperbolaConfig::default()
    };
    group.bench_function("hyperbola_lm", |b| {
        b.iter(|| hyperbola::locate(std::hint::black_box(&m), &hyp_cfg).expect("locates"))
    });

    let par_cfg = ParabolaConfig::default();
    group.bench_function("parabola_fit", |b| {
        b.iter(|| parabola::locate(std::hint::black_box(&m), &par_cfg).expect("locates"))
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_localize
}
criterion_main!(benches);
