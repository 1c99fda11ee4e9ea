//! Criterion bench: steady-state streaming throughput (reads/sec) of the
//! online pipeline across window sizes, the per-read cost of window
//! maintenance alone, and the cost of a single windowed re-solve.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use lion_geom::Point3;
use lion_stream::{Cadence, StreamConfig, StreamLocalizer, StreamRead};
use std::f64::consts::{PI, TAU};

const LAMBDA: f64 = 299_792_458.0 / 920.625e6;
const FEED: usize = 5_000;
/// Long enough that most reads hit a full window even at the largest
/// maintenance capacity.
const MAINTENANCE_FEED: usize = 20_000;

/// A clean circular-scan feed of `n` reads (120 per revolution).
fn feed(n: usize) -> Vec<StreamRead> {
    let antenna = Point3::new(1.2, 0.4, 0.0);
    (0..n)
        .map(|i| {
            let a = i as f64 * TAU / 120.0;
            let p = Point3::new(0.3 * a.cos(), 0.3 * a.sin(), 0.0);
            StreamRead {
                time: i as f64 * 0.001,
                position: p,
                phase: (4.0 * PI * antenna.distance(p) / LAMBDA) % TAU,
                ..StreamRead::default()
            }
        })
        .collect()
}

fn stream_config(window: usize, cadence: Cadence) -> StreamConfig {
    StreamConfig::builder()
        .window_capacity(window)
        .min_window_len(24)
        .cadence(cadence)
        .build()
        .expect("valid bench config")
}

/// Reads/sec through the full pipeline (window maintenance + cadence
/// solves every 64 reads) for each window size.
fn bench_stream_throughput(c: &mut Criterion) {
    let reads = feed(FEED);
    let mut group = c.benchmark_group("stream_throughput");
    group.throughput(Throughput::Elements(FEED as u64));
    for window in [64usize, 128, 256, 512] {
        group.bench_function(format!("window_{window}"), |b| {
            b.iter(|| {
                let config = stream_config(window, Cadence::EveryReads(64));
                let mut stream = StreamLocalizer::new(config).expect("valid");
                let mut emitted = 0u64;
                for &read in std::hint::black_box(&reads) {
                    if let Ok(Some(_)) = stream.push(read) {
                        emitted += 1;
                    }
                }
                emitted
            })
        });
    }
    group.finish();
}

/// Window maintenance alone: cadence never fires, so this isolates the
/// per-read cost of a push (ring-buffer evict + insert and the counters),
/// which should be flat across window sizes.
fn bench_window_maintenance(c: &mut Criterion) {
    let reads = feed(MAINTENANCE_FEED);
    let mut group = c.benchmark_group("stream_window_maintenance");
    group.throughput(Throughput::Elements(MAINTENANCE_FEED as u64));
    for window in [256usize, 512, 4096] {
        group.bench_function(format!("window_{window}"), |b| {
            b.iter(|| {
                let config = stream_config(window, Cadence::EveryReads(usize::MAX));
                let mut stream = StreamLocalizer::new(config).expect("valid");
                for &read in std::hint::black_box(&reads) {
                    let _ = stream.push(read);
                }
                stream.reads_seen()
            })
        });
    }
    group.finish();
}

/// One forced re-solve on a full window of each size (the flush path) —
/// the marginal cost a tighter cadence pays per solve.
fn bench_single_solve(c: &mut Criterion) {
    let reads = feed(FEED);
    let mut group = c.benchmark_group("stream_single_solve");
    for window in [64usize, 128, 256, 512] {
        let config = stream_config(window, Cadence::EveryReads(usize::MAX));
        let mut stream = StreamLocalizer::new(config).expect("valid");
        for &read in reads.iter().take(window + 16) {
            let _ = stream.push(read);
        }
        group.bench_function(format!("window_{window}"), |b| {
            b.iter(|| stream.flush().expect("solves"))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_stream_throughput, bench_window_maintenance, bench_single_solve
}
criterion_main!(benches);
